package guardian

import "testing"

// TestHangDeadline pins the Section VI(i) rule: T × the previous
// execution time, never below the minimum interval.
func TestHangDeadline(t *testing.T) {
	for _, tc := range []struct {
		name            string
		baseline, floor float64
		want            float64
	}{
		{"floor", 10, 1e6, 1e6},
		{"no baseline", 0, 1e6, 1e6},
		{"negative baseline", -5, 1e6, 1e6},
		{"T times the baseline", 5e6, 1e6, 5e7},
		{"boundary", 1e5, 1e6, 1e6},
		{"just past the boundary", 1e5 + 1, 1e6, 1e6 + 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := HangDeadline(tc.baseline, tc.floor); got != tc.want {
				t.Errorf("HangDeadline(%g, %g) = %g, want %g", tc.baseline, tc.floor, got, tc.want)
			}
		})
	}
}
