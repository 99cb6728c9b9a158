package gpu

import "fmt"

// CrashError reports a kernel crash detected by the (simulated) GPU runtime
// environment: an access outside the device memory arena, an integer divide
// by zero, or a similar fatal condition. Per the paper (Principle 3), "GPU
// runtime can detect all GPU kernel crashes by default", so a CrashError is
// a *detected* failure, not an SDC.
type CrashError struct {
	Reason string
	Block  int
	Thread int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("gpu: kernel crash in block %d thread %d: %s", e.Block, e.Thread, e.Reason)
}

// HangError reports that a thread exceeded its statement budget. On real
// hardware the kernel would simply not terminate; the guardian process
// detects this via its execution-time watchdog (Section VI(i)). The
// simulator bounds execution and surfaces the condition as a HangError so
// the guardian model can classify it. Budget is the bound the thread
// crossed: LaunchSpec.StepBudget when the launch carried one (the
// guardian's T times the clean run's longest thread), else
// Config.StepBudget.
type HangError struct {
	Block  int
	Thread int
	Steps  int
	Budget int
}

func (e *HangError) Error() string {
	return fmt.Sprintf("gpu: kernel hang in block %d thread %d after %d steps (budget %d)", e.Block, e.Thread, e.Steps, e.Budget)
}

// LaunchError reports an invalid launch (bad arguments, resource limits).
// R-Scatter's refusal to compile programs that use more than half of a GPU
// resource (Section IX.A, TPACF) surfaces as a LaunchError.
type LaunchError struct{ Reason string }

func (e *LaunchError) Error() string { return "gpu: launch failed: " + e.Reason }

// PanicError reports a Go panic recovered at a launch boundary — a bug in
// a hook implementation or in the engine itself. Containing it classifies
// the run as a detected crash failure (like a CrashError) instead of
// tearing down the whole campaign process; the stack is preserved for
// diagnosis.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("gpu: panic during launch: %v", e.Value)
}
