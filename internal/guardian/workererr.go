package guardian

import "fmt"

// This file defines the failure vocabulary of the process-isolated
// executor (internal/guardian/procexec): when the supervised program runs
// in a worker OS process instead of an in-process RunFn, real process
// death replaces the simulator's CrashError and the request deadline
// replaces the step budget. The errors live in this package — not in procexec — so
// the Figure 11 automaton and its telemetry can classify them without an
// import cycle (procexec imports guardian for the back-off and watchdog
// policies).

// WorkerCrashError reports that a worker subprocess died before delivering
// its result frame: it exited non-zero, was killed by a signal, or
// corrupted the response protocol (a truncated or garbled frame, which is
// indistinguishable from a crash mid-write). Like gpu.CrashError it is a
// *detected* failure — the supervisor's SIGCHLD/Wait sees every process
// death, mirroring the paper's Principle 3 for kernel crashes.
type WorkerCrashError struct {
	// ExitCode is the worker's exit status (-1 when killed by a signal
	// or unknown).
	ExitCode int
	// Signal names the killing signal, when there was one.
	Signal string
	// Reason carries protocol context or the tail of the worker's stderr
	// (a panic stack, for instance).
	Reason string
}

func (e *WorkerCrashError) Error() string {
	msg := "guardian: worker process crashed"
	switch {
	case e.Signal != "":
		msg += " (killed by " + e.Signal + ")"
	case e.ExitCode >= 0:
		msg += fmt.Sprintf(" (exit status %d)", e.ExitCode)
	}
	if e.Reason != "" {
		msg += ": " + e.Reason
	}
	return msg
}

// WorkerHangError reports that the supervisor presumed a worker
// subprocess hung — it delivered no result by the watchdog's
// execution-time deadline (Section VI(i)), whether it kept computing or
// fell silent — and killed its process group.
type WorkerHangError struct {
	// Reason describes the deadline that fired.
	Reason string
}

func (e *WorkerHangError) Error() string {
	msg := "guardian: worker process hung (request deadline exceeded)"
	if e.Reason != "" {
		msg += ": " + e.Reason
	}
	return msg
}
