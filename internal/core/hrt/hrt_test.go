package hrt

import (
	"testing"

	"hauberk/internal/core/ranges"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
)

func testMeta() []DetectorMeta {
	return []DetectorMeta{
		{ID: 0, Name: "k/nonloop", VarName: "<nonloop>"},
		{ID: 1, Name: "k/acc", VarName: "acc", IsFP: true},
		{ID: 2, Name: "k/loop0/iter", VarName: "<iteration count>"},
	}
}

func storeWith(name string, min, max float64) *ranges.Store {
	s := ranges.NewStore()
	s.Put(&ranges.Detector{Name: name, Alpha: 1, IsFP: true, Ranges: []ranges.Range{{Min: min, Max: max}}})
	return s
}

func TestControlBlockResolvesRangesByName(t *testing.T) {
	cb := NewControlBlock(testMeta(), storeWith("k/acc", 0, 10))
	if cb.Detectors[1] == nil {
		t.Fatalf("detector 1 should resolve from the store")
	}
	if cb.Detectors[0] != nil || cb.Detectors[2] != nil {
		t.Fatalf("unconfigured detectors must stay nil")
	}
}

func TestRangeCheckAlarmsOutsideRanges(t *testing.T) {
	cb := NewControlBlock(testMeta(), storeWith("k/acc", 0, 10))
	rt := NewFT(cb)
	tc := gpu.ThreadCtx{}
	rt.RangeCheck(tc, 1, 5) // inside
	if cb.SDC() {
		t.Fatalf("in-range value alarmed")
	}
	rt.RangeCheck(tc, 1, 50) // outside
	if !cb.SDC() {
		t.Fatalf("out-of-range value did not alarm")
	}
	alarms := cb.Alarms()
	if len(alarms) != 1 || alarms[0].Kind != kir.DetectRange || alarms[0].Value != 50 {
		t.Fatalf("alarm payload wrong: %+v", alarms)
	}
	// Unconfigured detector accepts everything (bootstrap behaviour).
	cb.Reset()
	rt.RangeCheck(tc, 0, 1e30)
	if cb.SDC() {
		t.Fatalf("unconfigured detector must not alarm")
	}
}

func TestEqualCheck(t *testing.T) {
	cb := NewControlBlock(testMeta(), nil)
	rt := NewFT(cb)
	rt.EqualCheck(gpu.ThreadCtx{}, 2, 100, 100)
	if cb.SDC() {
		t.Fatalf("matching counts alarmed")
	}
	rt.EqualCheck(gpu.ThreadCtx{}, 2, 99, 100)
	if !cb.SDC() {
		t.Fatalf("iteration-count mismatch not alarmed")
	}
	a := cb.Alarms()[0]
	if a.Kind != kir.DetectIter || a.Count != 99 || a.Expected != 100 {
		t.Fatalf("iteration alarm payload wrong: %+v", a)
	}
}

func TestSetSDCAndReset(t *testing.T) {
	cb := NewControlBlock(testMeta(), nil)
	rt := NewFT(cb)
	rt.SetSDC(gpu.ThreadCtx{}, 0, kir.DetectChecksum)
	if !cb.SDC() {
		t.Fatalf("SetSDC ignored")
	}
	cb.Reset()
	if cb.SDC() {
		t.Fatalf("Reset did not clear alarms")
	}
}

func TestProfilerCollectsAndMerges(t *testing.T) {
	cb1 := NewControlBlock(testMeta(), nil)
	r1 := NewProfiler(cb1, 5)
	tc := gpu.ThreadCtx{}
	r1.ProfileSample(tc, 1, 3)
	r1.ProfileSample(tc, 1, 4)
	r1.CountExec(tc, 2)
	r1.CountExec(tc, 2)

	cb2 := NewControlBlock(testMeta(), nil)
	r2 := NewProfiler(cb2, 5)
	r2.ProfileSample(tc, 1, 5)
	r2.CountExec(tc, 2)
	r2.MergeProfiles(r1)

	if got := len(r1.Learners[1].Raw()); got != 3 {
		t.Fatalf("merged samples = %d, want 3", got)
	}
	store := ranges.NewStore()
	r1.FinishProfiling(store)
	d := store.Get("k/acc")
	if d == nil || !d.Check(4) || d.Check(400) {
		t.Fatalf("profiled detector wrong: %+v", d)
	}
	if r1.ExecCounts[2] != 2 {
		t.Fatalf("exec counts = %d, want 2 (merge does not sum counts here)", r1.ExecCounts[2])
	}
}

func TestInjectDelegate(t *testing.T) {
	cb := NewControlBlock(nil, nil)
	rt := NewFT(cb)
	v := &kir.Var{Name: "x", Type: kir.I32}
	if got, changed := rt.Probe(gpu.ThreadCtx{}, 0, v, kir.HWALU, 7); got != 7 || changed {
		t.Fatalf("nil delegate must pass through")
	}
	rt.Inject = func(_ gpu.ThreadCtx, _ int, _ *kir.Var, _ kir.HW, val uint32) (uint32, bool) {
		return val ^ 1, true
	}
	if got, changed := rt.Probe(gpu.ThreadCtx{}, 0, v, kir.HWALU, 7); got != 6 || !changed {
		t.Fatalf("delegate not invoked")
	}
}

// Reset clears recorded alarms.
func (cb *ControlBlock) Reset() {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	cb.alarms = cb.alarms[:0]
}
