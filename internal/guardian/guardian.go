// Package guardian implements the paper's error recovery layer
// (Section VI): a parent process that supervises an instrumented GPU
// program, restarts it on crashes and hangs, diagnoses SDC alarms by
// re-execution (separating false positives from real transient faults),
// runs a BIST-style device self-test when faults persist, and manages a
// pool of GPU devices with exponential-back-off re-enabling.
//
// In this reproduction the "process" is a closure the harness provides: a
// RunFn that sets up and launches the program once on a given device. OS
// facilities of the paper (fork, SIGCHLD, kill) map onto ordinary function
// calls and the simulator's hang budget, which plays the role of the
// guardian's execution-time watchdog.
//
// The subpackage procexec restores the OS layer of Section VI for real:
// it runs the supervised program in a worker subprocess (its own process
// group), detects crashes via Wait status and hangs via heartbeat frames,
// and surfaces process death to this automaton as *WorkerCrashError /
// *WorkerHangError inside RunOutcome.Err — so the same Figure 11 states
// now cover a worker that panics, spins, or is killed mid-run.
package guardian

import (
	"errors"
	"fmt"

	"hauberk/internal/core/hrt"
	"hauberk/internal/gpu"
	"hauberk/internal/obs"
)

// RunOutcome is the result of running the supervised program once.
type RunOutcome struct {
	// Err is nil, *gpu.CrashError, *gpu.HangError, *gpu.LaunchError — or,
	// when the program ran in an isolated worker subprocess (procexec),
	// *WorkerCrashError / *WorkerHangError for real process death.
	Err error
	// SDC reports whether the control block carried any alarm.
	SDC    bool
	Alarms []hrt.Alarm
	// Output is the program's output words (valid when Err is nil).
	Output []uint32
	Cycles float64
}

// Failed reports whether the run ended in a crash or hang.
func (o *RunOutcome) Failed() bool { return o != nil && o.Err != nil }

// RunFn runs the supervised program once on the given device.
type RunFn func(dev *gpu.Device) *RunOutcome

// Diagnosis is the terminal state of the Figure 11 automaton.
type Diagnosis uint8

// Diagnoses.
const (
	// DiagClean: the first execution completed with no alarm.
	DiagClean Diagnosis = iota
	// DiagFalseAlarm: re-execution raised the same alarm with identical
	// output — the detector's ranges were too tight; the recovery engine
	// widens them (on-line learning).
	DiagFalseAlarm
	// DiagTransient: the first run failed or alarmed, and a re-execution
	// succeeded cleanly — a transient or short intermittent fault; the
	// re-execution's output is used.
	DiagTransient
	// DiagDeviceFault: executions kept failing or producing different
	// alarmed outputs and the device self-test failed — the device is
	// disabled and the program migrated to another device.
	DiagDeviceFault
	// DiagSoftwareError: the self-test passed but outputs disagree — an
	// unsupported (buggy or nondeterministic) program is reported.
	DiagSoftwareError
	// DiagGaveUp: no healthy device was available to complete the run.
	DiagGaveUp
)

func (d Diagnosis) String() string {
	switch d {
	case DiagClean:
		return "clean"
	case DiagFalseAlarm:
		return "false-alarm"
	case DiagTransient:
		return "transient-fault"
	case DiagDeviceFault:
		return "device-fault"
	case DiagSoftwareError:
		return "software-error"
	case DiagGaveUp:
		return "gave-up"
	}
	return "diagnosis(?)"
}

// ExitCode maps a diagnosis to the hauberk-run process exit code, so
// scripts supervising many runs can branch on the outcome. Diagnoses
// where the program completed with an accepted output (clean, recovered
// transient, learned false alarm) exit 0; the rest get distinct non-zero
// codes.
func (d Diagnosis) ExitCode() int {
	switch d {
	case DiagClean, DiagFalseAlarm, DiagTransient:
		return 0
	case DiagDeviceFault:
		return 3
	case DiagSoftwareError:
		return 4
	case DiagGaveUp:
		return 5
	}
	return 1
}

// Config tunes the guardian.
type Config struct {
	// Pool supplies devices; required.
	Pool *DevicePool
	// MaxRestarts bounds crash/hang restarts of the same kernel with the
	// same input before the device is suspected (the paper diagnoses
	// after the failure repeats twice).
	MaxRestarts int
	// Identical compares two outputs; nil means exact word equality
	// (deterministic programs). Nondeterministic programs pass a
	// tolerance comparison of at most twice the output correctness
	// requirement, per Section VI(ii)(a).
	Identical func(a, b []uint32) bool
	// OnFalseAlarm is invoked with the alarms of a diagnosed false
	// positive so the caller can widen detector ranges (on-line
	// learning). May be nil.
	//
	// Preemptive hang detection is handled by the simulator's step
	// budget, which callers with a clean baseline derive per launch from
	// the Watchdog type's rule (see watchdog.go); Watchdog also serves
	// callers that track kernel execution times themselves.
	OnFalseAlarm func(alarms []hrt.Alarm)
	// Obs, when enabled, journals one event per Figure 11 state
	// transition: each supervised execution, BIST self-tests, device
	// disables, and the final diagnosis. May be nil.
	Obs *obs.Telemetry
}

// Report is the guardian's summary of one supervised execution.
type Report struct {
	Diagnosis Diagnosis
	// Final is the accepted outcome (nil if DiagGaveUp).
	Final *RunOutcome
	// Executions counts how many times the program ran, including the
	// first execution.
	Executions int
	// DisabledDevices lists devices taken out of service.
	DisabledDevices []int
	// FalseAlarm reports whether a false positive was identified.
	FalseAlarm bool
}

// Supervise runs the Figure 11 diagnosis-and-tolerance algorithm to
// completion.
//
// With an enabled cfg.Obs every state transition of the automaton is
// journaled: a guardian.execution event per supervised run, guardian.bist
// per self-test, guardian.device_disable per migration, and a final
// guardian.diagnosis event.
func Supervise(cfg Config, run RunFn) (*Report, error) {
	if cfg.Pool == nil {
		return nil, errors.New("guardian: config needs a device pool")
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 2
	}
	identical := cfg.Identical
	if identical == nil {
		identical = wordsEqual
	}

	rep := &Report{}
	defer func() { cfg.emitDiagnosis(rep) }()
	devIdx, dev := cfg.Pool.Acquire()
	if dev == nil {
		rep.Diagnosis = DiagGaveUp
		return rep, nil
	}

	// disable takes the current device out of service (journaling the
	// transition) and migrates to the next healthy one; it reports
	// whether any device was left.
	disable := func() bool {
		rep.DisabledDevices = append(rep.DisabledDevices, devIdx)
		cfg.Pool.Disable(devIdx)
		cfg.emitDisable(devIdx, cfg.Pool.Backoff(devIdx))
		devIdx, dev = cfg.Pool.Acquire()
		return dev != nil
	}
	selfTest := func() bool {
		pass := cfg.Pool.SelfTest(devIdx)
		cfg.emitBIST(devIdx, pass)
		return pass
	}

	failures := 0
	for {
		first := run(dev)
		rep.Executions++
		cfg.emitRun(rep.Executions, devIdx, first)

		switch {
		case first.Failed():
			// Crash or hang: restart with the same input (after restoring
			// the checkpoint, which our RunFn does by re-setup). If the
			// failure repeats, diagnose the device.
			failures++
			if failures < cfg.MaxRestarts {
				continue
			}
			if selfTest() {
				// Device healthy but the program keeps failing on the
				// same input: with a transient cause it would have gone
				// away; report unsupported software behaviour.
				rep.Diagnosis = DiagSoftwareError
				rep.Final = first
				return rep, nil
			}
			if !disable() {
				rep.Diagnosis = DiagGaveUp
				return rep, nil
			}
			failures = 0
			continue

		case !first.SDC:
			rep.Diagnosis = DiagClean
			switch {
			case len(rep.DisabledDevices) > 0:
				// We got here by migrating off a faulty device.
				rep.Diagnosis = DiagDeviceFault
			case rep.Executions > 1:
				// We got here recovering from earlier failures.
				rep.Diagnosis = DiagTransient
			}
			rep.Final = first
			return rep, nil
		}

		// SDC alarm: assume a false positive and re-execute for diagnosis
		// (Section VI(ii)).
		second := run(dev)
		rep.Executions++
		cfg.emitRun(rep.Executions, devIdx, second)
		switch {
		case second.Failed():
			// The reexecution itself failed; treat like a repeated
			// failure on this device.
			if !selfTest() {
				if !disable() {
					rep.Diagnosis = DiagGaveUp
					return rep, nil
				}
				continue
			}
			rep.Diagnosis = DiagSoftwareError
			rep.Final = first
			return rep, nil

		case second.SDC && identical(first.Output, second.Output):
			// (a) False alarm: both executions alarm with identical
			// output. Learn the reported values into the ranges.
			rep.Diagnosis = DiagFalseAlarm
			rep.FalseAlarm = true
			rep.Final = second
			if cfg.OnFalseAlarm != nil {
				cfg.OnFalseAlarm(second.Alarms)
			}
			return rep, nil

		case !second.SDC:
			// (b) Transient or short intermittent fault: take the
			// re-execution result.
			rep.Diagnosis = DiagTransient
			rep.Final = second
			return rep, nil

		default:
			// (c) Alarms with differing outputs: long intermittent or
			// permanent fault suspected; run the BIST-style self test.
			if selfTest() {
				rep.Diagnosis = DiagSoftwareError
				rep.Final = second
				return rep, nil
			}
			if !disable() {
				rep.Diagnosis = DiagGaveUp
				return rep, nil
			}
			// Migrated: re-run from the top on the new device.
		}
	}
}

// --- telemetry ------------------------------------------------------------

func (cfg *Config) emitRun(attempt, devIdx int, o *RunOutcome) {
	if !cfg.Obs.Enabled() {
		return
	}
	status := "ok"
	switch o.Err.(type) {
	case nil:
	case *gpu.CrashError:
		status = "crash"
	case *gpu.HangError:
		status = "hang"
	case *gpu.PanicError:
		status = "panic"
	case *WorkerCrashError:
		status = "worker-crash"
	case *WorkerHangError:
		status = "worker-hang"
	default:
		status = "launch-error"
	}
	cfg.Obs.Emit(obs.EvGuardianRun,
		obs.Int("attempt", int64(attempt)),
		obs.Int("device", int64(devIdx)),
		obs.Str("status", status),
		obs.Bool("sdc", o.SDC),
		obs.Int("alarms", int64(len(o.Alarms))),
		obs.Float("cycles", o.Cycles))
	cfg.Obs.Metrics().Counter("hauberk_guardian_executions_total").Inc()
}

func (cfg *Config) emitBIST(devIdx int, pass bool) {
	if !cfg.Obs.Enabled() {
		return
	}
	cfg.Obs.Emit(obs.EvBIST, obs.Int("device", int64(devIdx)), obs.Bool("pass", pass))
	result := "pass"
	if !pass {
		result = "fail"
	}
	cfg.Obs.Metrics().Counter("hauberk_guardian_bist_total", "result", result).Inc()
}

func (cfg *Config) emitDisable(devIdx int, backoff int64) {
	if !cfg.Obs.Enabled() {
		return
	}
	cfg.Obs.Emit(obs.EvDeviceDisable,
		obs.Int("device", int64(devIdx)), obs.Int("backoff", backoff))
	cfg.Obs.Metrics().Counter("hauberk_guardian_device_disables_total").Inc()
}

func (cfg *Config) emitDiagnosis(rep *Report) {
	if !cfg.Obs.Enabled() {
		return
	}
	cfg.Obs.Emit(obs.EvDiagnosis,
		obs.Str("diagnosis", rep.Diagnosis.String()),
		obs.Int("executions", int64(rep.Executions)),
		obs.Bool("false_alarm", rep.FalseAlarm),
		obs.Int("disabled", int64(len(rep.DisabledDevices))))
	m := cfg.Obs.Metrics()
	m.Help("hauberk_guardian_diagnoses_total", "terminal Figure 11 diagnoses, by kind")
	m.Counter("hauberk_guardian_diagnoses_total", "diagnosis", rep.Diagnosis.String()).Inc()
}

func wordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ToleranceIdentical builds the nondeterministic-output comparison of
// Section VI(ii)(a): outputs are treated as identical when every element
// differs by no more than twice the program's correctness tolerance.
func ToleranceIdentical(check func(golden, actual []uint32) bool) func(a, b []uint32) bool {
	return func(a, b []uint32) bool { return check(a, b) }
}

// Error formats for gave-up cases in CLI contexts.
var ErrNoDevices = fmt.Errorf("guardian: no healthy devices available")
