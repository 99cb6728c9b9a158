package guardian

import (
	"strings"
	"testing"

	"hauberk/internal/gpu"
	"hauberk/internal/kir"
)

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

func TestCheckpointRoundTrip(t *testing.T) {
	d := gpu.New(gpu.DefaultConfig())
	b := d.Alloc("data", kir.I32, 8)
	d.WriteI32(b, 0, []int32{1, 2, 3, 4, 5, 6, 7, 8})
	cp := Capture(d)
	if cp.Words() != d.ArenaWords() {
		t.Fatalf("checkpoint words = %d, arena = %d", cp.Words(), d.ArenaWords())
	}
	d.WriteI32(b, 0, []int32{-1, -1, -1, -1, -1, -1, -1, -1})
	if err := cp.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got := d.ReadI32(b, 0, 8)
	for i, v := range got {
		if v != int32(i+1) {
			t.Fatalf("restored word %d = %d, want %d", i, v, i+1)
		}
	}
}

func TestCheckpointRestoreCorrupt(t *testing.T) {
	d := gpu.New(gpu.DefaultConfig())
	d.Alloc("data", kir.I32, 8)
	cp := Capture(d)
	cp.snap.Words = cp.snap.Words[:len(cp.snap.Words)-1] // truncated snapshot
	err := cp.Restore()
	if err == nil {
		t.Fatalf("restoring a truncated checkpoint must fail, not half-restore")
	}
	if !strings.Contains(err.Error(), "corrupt checkpoint") {
		t.Errorf("error %q does not name the corruption", err)
	}
}

func TestCheckpointRestoreEmpty(t *testing.T) {
	var cp *Checkpoint
	if err := cp.Restore(); err == nil {
		t.Errorf("nil checkpoint restore must fail")
	}
	if err := (&Checkpoint{}).Restore(); err == nil {
		t.Errorf("empty checkpoint restore must fail")
	}
}
