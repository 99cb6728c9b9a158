package guardian

// HangFactor is T of the guardian's preemptive hang rule (Section VI(i)):
// a GPU kernel is presumed hung once its execution time exceeds T times
// its previous execution time (the paper's example uses 10).
const HangFactor = 10

// HangDeadline is the duration past which an execution whose previous
// (clean) run took baseline is presumed hung: HangFactor times baseline,
// floored at floor, the rule's minimum interval. A non-positive baseline
// leaves the floor alone.
//
// The FT library reports each kernel's measured time to the guardian
// through an IPC primitive. In this reproduction the rule is applied in
// two units, both through this one function: simulated kernel time, where
// the kill signal is the simulator's per-launch step budget — the deadline
// of the clean run's longest thread (threads run in parallel on the
// modelled GPU, so the slowest one is the kernel's time), in statements,
// with a floor the harness names (harness.hangBudget;
// gpu.Config.StepBudget is only the backstop for launches that have no
// clean baseline) — and host wall time, where the campaign runner derives
// an injection's deadline from the clean run's measured duration
// (harness.deriveWatchdogTimeout), judges each in-process result by it
// and sends it to the procexec supervisor with each request. Nothing else
// decides a hang in either executor.
func HangDeadline(baseline, floor float64) float64 {
	return max(floor, HangFactor*baseline)
}
