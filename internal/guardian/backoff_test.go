package guardian

import "testing"

func TestBackoffPolicySchedule(t *testing.T) {
	p := BackoffPolicy{Init: 1, Factor: 2}
	if p.First() != 1 {
		t.Fatalf("First() = %d, want 1", p.First())
	}
	want := []int64{1, 2, 4, 8, 16}
	for i, w := range want {
		if got := p.Delay(i); got != w {
			t.Fatalf("Delay(%d) = %d, want %d", i, got, w)
		}
	}
	if got := p.Next(4); got != 8 {
		t.Fatalf("Next(4) = %d, want 8", got)
	}
}

func TestBackoffPolicyCapAndDefaults(t *testing.T) {
	p := BackoffPolicy{Init: 3, Factor: 3, Max: 20}
	for i, w := range []int64{3, 9, 20, 20} {
		if got := p.Delay(i); got != w {
			t.Fatalf("capped Delay(%d) = %d, want %d", i, got, w)
		}
	}
	// Zero-valued fields fall back to the paper's doubling from 1.
	var zero BackoffPolicy
	if zero.First() != 1 || zero.Next(1) != 2 {
		t.Fatalf("zero policy: First=%d Next(1)=%d", zero.First(), zero.Next(1))
	}
	// A huge current delay must not overflow into a negative schedule.
	if got := zero.Next(1 << 62); got <= 0 {
		t.Fatalf("overflowed Next = %d", got)
	}
}
