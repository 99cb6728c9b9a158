package gpu

import "hauberk/internal/kir"

// ThreadCtx identifies the executing thread for a hook callback.
type ThreadCtx struct {
	Block  int
	Thread int // thread index within the block
}

// Hooks is the runtime interface behind the Hauberk intrinsic statements.
// The FT library (internal/core/hrt), the profiler, and the fault injector
// (internal/swifi) implement it; a launch without instrumentation passes
// nil and the interpreter skips intrinsics.
//
// A launch invokes hooks live, from its own goroutine, in serial
// (block, thread) order, so implementations do not need locking unless
// shared across devices.
type Hooks interface {
	// Probe is called at each FIProbe site with the current value of the
	// target variable; it returns the (possibly corrupted) value and
	// whether it changed. It is the mechanism of Section VII, Figure 12.
	Probe(tc ThreadCtx, site int, v *kir.Var, hw kir.HW, val uint32) (uint32, bool)

	// CountExec is called at CountExec sites (profiler binary).
	CountExec(tc ThreadCtx, site int)

	// RangeCheck implements HauberkCheckRange for loop detector det with
	// the averaged accumulator value.
	RangeCheck(tc ThreadCtx, det int, val float64)

	// EqualCheck implements HauberkCheckEqual for loop detector det.
	EqualCheck(tc ThreadCtx, det int, count, expected int32)

	// ProfileSample feeds the averaged accumulator value to the range
	// learner (profiler binary).
	ProfileSample(tc ThreadCtx, det int, val float64)

	// SetSDC raises the SDC bit for detector det in the control block.
	SetSDC(tc ThreadCtx, det int, kind kir.DetectKind)
}

// NopHooks is a Hooks implementation that does nothing; embed it to
// implement only the callbacks a component cares about.
type NopHooks struct{}

// Probe returns the value unchanged.
func (NopHooks) Probe(_ ThreadCtx, _ int, _ *kir.Var, _ kir.HW, val uint32) (uint32, bool) {
	return val, false
}

// CountExec does nothing.
func (NopHooks) CountExec(ThreadCtx, int) {}

// RangeCheck does nothing.
func (NopHooks) RangeCheck(ThreadCtx, int, float64) {}

// EqualCheck does nothing.
func (NopHooks) EqualCheck(ThreadCtx, int, int32, int32) {}

// ProfileSample does nothing.
func (NopHooks) ProfileSample(ThreadCtx, int, float64) {}

// SetSDC does nothing.
func (NopHooks) SetSDC(ThreadCtx, int, kir.DetectKind) {}
