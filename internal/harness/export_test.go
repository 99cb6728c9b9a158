package harness

import (
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
)

// forceFullLaunch makes every injection against golden under (e.Config,
// store, mode) take the ineligible path — a fresh device and the full
// Device.Launch — by dropping the resumable part of its trace, and returns
// the trace. It is the oracle side of the resume differentials; call it
// before any injection runs against golden.
func (e *Env) forceFullLaunch(golden *GoldenRun, store *ranges.Store, mode translate.Mode) (*goldenTrace, error) {
	gt, err := e.goldenTrace(golden.Spec, golden, store, mode)
	if err == nil {
		gt.mem = nil
	}
	return gt, err
}

// forceBackstopBudget makes every injection against golden under
// (e.Config, store, mode) run under the device's Config.StepBudget alone instead of
// the derived hang budget: the oracle TestHangBudgetReclassifiesNothing
// compares against. Call it before any injection runs against golden.
func (e *Env) forceBackstopBudget(golden *GoldenRun, store *ranges.Store, mode translate.Mode) error {
	gt, err := e.goldenTrace(golden.Spec, golden, store, mode)
	if err == nil {
		gt.hangBudget = e.Config.StepBudget
	}
	return err
}

// twin returns a golden run with the same reference output and its own,
// empty trace cache, so one test can hold a resumable and a forced-full
// trace of the same launch.
func (g *GoldenRun) twin() *GoldenRun {
	return &GoldenRun{Spec: g.Spec, Dataset: g.Dataset, Output: g.Output, Result: g.Result}
}
