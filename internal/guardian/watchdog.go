package guardian

// WatchdogConfig models the guardian's preemptive hang detection
// (Section VI(i)): a GPU kernel is presumed hung when its execution time
// exceeds both T times its previous execution time and a minimum interval.
// The FT library reports each kernel's measured time to the guardian
// through an IPC primitive. In this reproduction the rule is applied in
// two units, both through Seed and Deadline below so there is one
// arithmetic: simulated kernel time, where the kill signal is the
// simulator's per-launch step budget — Deadline of the clean run's longest
// thread (threads run in parallel on the modelled GPU, so the slowest one
// is the kernel's time), in statements, with DefaultWatchdog's T and a
// floor the harness names (harness.hangBudget; gpu.Config.StepBudget is
// only the backstop for launches that have no clean baseline) — and host
// wall time, where the campaign runner derives an injection's deadline from
// the clean run's measured duration (harness.deriveWatchdogTimeout) and
// sends it to the procexec supervisor with each request. The
// bookkeeping below decides *whether* a given duration would have been
// classified as a hang; "cycles" in its names stands for whichever unit
// the caller seeds it with.
type WatchdogConfig struct {
	// Factor is T, the multiple of the previous execution time (the
	// paper's example uses 10).
	Factor float64
	// MinCycles is the minimum absolute duration before a kill is
	// considered (the paper's example: one minute).
	MinCycles float64
}

// DefaultWatchdog returns the paper's example configuration.
func DefaultWatchdog() WatchdogConfig {
	return WatchdogConfig{Factor: 10, MinCycles: 1e6}
}

// Watchdog tracks per-kernel execution times.
type Watchdog struct {
	cfg  WatchdogConfig
	prev map[string]float64
}

// NewWatchdog creates a watchdog with the given configuration; zero-value
// fields fall back to DefaultWatchdog.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	def := DefaultWatchdog()
	if cfg.Factor <= 0 {
		cfg.Factor = def.Factor
	}
	if cfg.MinCycles <= 0 {
		cfg.MinCycles = def.MinCycles
	}
	return &Watchdog{cfg: cfg, prev: make(map[string]float64)}
}

// Observe records a completed execution of the kernel.
func (w *Watchdog) Observe(kernel string, cycles float64) {
	w.prev[kernel] = cycles
}

// Seed primes the kernel's baseline with a profiled clean execution time,
// unless a real observation (or earlier seed) already exists. Without a
// baseline, WouldKill falls back to killing anything past MinCycles — a
// legitimately long first run would be misclassified as a hang, so
// callers that profiled the program (the campaign runner derives its
// timeout and its step budget this way) should seed before the first
// WouldKill query. Non-positive values are
// ignored.
func (w *Watchdog) Seed(kernel string, cycles float64) {
	if cycles <= 0 {
		return
	}
	if _, ok := w.prev[kernel]; !ok {
		w.prev[kernel] = cycles
	}
}

// Baseline returns the kernel's current previous-execution baseline
// (observed or seeded) and whether one exists.
func (w *Watchdog) Baseline(kernel string) (float64, bool) {
	prev, ok := w.prev[kernel]
	return prev, ok
}

// WouldKill reports whether an execution that has been running for the
// given cycles should be preemptively killed as a hang or delay error.
// Before any observation or seed, only the absolute minimum applies.
func (w *Watchdog) WouldKill(kernel string, cycles float64) bool {
	if cycles < w.cfg.MinCycles {
		return false
	}
	prev, ok := w.prev[kernel]
	if !ok {
		return true
	}
	return cycles > prev*w.cfg.Factor
}

// Deadline returns the duration at which WouldKill starts classifying the
// kernel as hung: Factor times its baseline, floored at MinCycles. For a
// kernel with no baseline the floor itself is the deadline (the
// conservative pre-seed rule).
func (w *Watchdog) Deadline(kernel string) float64 {
	d := w.cfg.MinCycles
	if prev, ok := w.prev[kernel]; ok && prev*w.cfg.Factor > d {
		d = prev * w.cfg.Factor
	}
	return d
}
