package guardian

import (
	"strings"
	"testing"

	"hauberk/internal/gpu"
	"hauberk/internal/kir"
)

func TestWatchdogFirstRunWithoutBaseline(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Factor: 10, MinCycles: 1e6})
	// The conservative pre-seed rule: with no baseline, anything past the
	// absolute minimum is presumed hung — which misclassifies a
	// legitimately long clean first run.
	if w.WouldKill("k", 1e6-1) {
		t.Errorf("below MinCycles must never kill")
	}
	if !w.WouldKill("k", 2e6) {
		t.Errorf("unknown kernel past MinCycles must kill (conservative rule)")
	}
}

func TestWatchdogSeedFixesLongCleanFirstRun(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Factor: 10, MinCycles: 1e6})
	// A profiled clean runtime of 5e6 cycles seeds the baseline: the
	// first real run taking 6e6 cycles (past MinCycles, well within
	// Factor × baseline) is clean, not a hang.
	w.Seed("k", 5e6)
	if w.WouldKill("k", 6e6) {
		t.Errorf("seeded kernel killed at 6e6 cycles with 5e6 baseline and factor 10")
	}
	if !w.WouldKill("k", 5e7+1) {
		t.Errorf("seeded kernel not killed past Factor x baseline")
	}
	if got := w.Deadline("k"); got != 5e7 {
		t.Errorf("Deadline = %g, want 5e7", got)
	}
}

func TestWatchdogSeedDoesNotOverrideObservation(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Factor: 10, MinCycles: 1})
	w.Observe("k", 100)
	w.Seed("k", 1e9)
	if got, ok := w.Baseline("k"); !ok || got != 100 {
		t.Errorf("Baseline = (%g,%v), want the real observation (100,true)", got, ok)
	}
	w.Seed("k2", -5)
	if _, ok := w.Baseline("k2"); ok {
		t.Errorf("non-positive seed must be ignored")
	}
}

func TestWatchdogDeadlineFloor(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Factor: 10, MinCycles: 1e6})
	if got := w.Deadline("unknown"); got != 1e6 {
		t.Errorf("Deadline without baseline = %g, want the MinCycles floor", got)
	}
	w.Seed("fast", 10) // Factor x 10 = 100 << floor
	if got := w.Deadline("fast"); got != 1e6 {
		t.Errorf("Deadline for fast kernel = %g, want the MinCycles floor", got)
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
