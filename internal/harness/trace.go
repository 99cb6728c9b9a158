package harness

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/guardian"
	"hauberk/internal/kir"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// traceKey names one golden trace of a GoldenRun: everything besides the
// program and dataset that a clean instrumented launch depends on. The
// range store is keyed by identity — a campaign must not widen the store
// it is running against (the recovery study, which does, launches itself).
type traceKey struct {
	mode  translate.Mode
	store *ranges.Store
	cfg   gpu.Config
}

type traceEntry struct {
	once sync.Once
	gt   *goldenTrace
	err  error
}

// hangFloorSteps is the least step budget a faulted launch is given,
// however short its clean baseline: the analogue of the minimum interval
// of the paper's hang rule (Section VI(i)), below which the guardian never
// presumes a kernel hung.
const hangFloorSteps = 1 << 16

// hangBudget is the per-thread step budget of a faulted launch whose clean
// twin's longest thread ran longest steps: the guardian's own rule — T
// times the previous execution, floored at the minimum interval — with the
// device-wide Config.StepBudget kept as the backstop. The longest thread is
// the baseline because the modelled GPU runs threads in parallel: the
// kernel's time is its slowest thread's.
func hangBudget(cfg gpu.Config, kernel string, longest int) int {
	wd := guardian.NewWatchdog(guardian.WatchdogConfig{
		Factor:    guardian.DefaultWatchdog().Factor,
		MinCycles: hangFloorSteps,
	})
	wd.Seed(kernel, float64(longest))
	return min(cfg.StepBudget, int(wd.Deadline(kernel)))
}

// goldenTrace is one clean instrumented launch of a program, recorded once
// and shared read-only by every injection run against it (DESIGN.md §5,
// "Golden-trace resume"): what the instrumentation and the range store
// resolve to, the clean run's wall time and hang budget, and — when the
// launch can be resumed — the device-memory trace plus the hook state at
// every thread boundary, which is what lets an injection execute only the
// threads its fault can reach.
type goldenTrace struct {
	spec      *workloads.Spec
	ds        workloads.Dataset
	cfg       gpu.Config
	tr        *translate.Result
	detectors []*ranges.Detector

	// cleanWall is the wall time of one full clean run — device set-up,
	// every thread of the instrumented launch, read-back and check — the
	// baseline the campaign watchdog multiplies.
	cleanWall time.Duration
	// hangBudget is the step budget of every faulted launch against this
	// trace (see hangBudget), from the clean run's longest thread.
	hangBudget int

	// mem is nil when the launch is ineligible for resume: the device
	// carries an opaque overlay closure, the engine is the tree-walking
	// oracle, or the clean launch stores more than a trace holds. Such
	// injections take a fresh device and the full Device.Launch.
	mem *gpu.Trace
	// probes[site*threads+t] counts thread t's Probe calls at site.
	probes []uint32
	// alarms are the clean run's alarms; thread t raised
	// alarms[alarmEnd[t-1]:alarmEnd[t]].
	alarms   []hrt.Alarm
	alarmEnd []int32

	// pool holds set-up devices (*tracedDevice) between injections; Resume
	// rewrites the whole arena, so a device is reusable whatever the last
	// injection did to it.
	pool sync.Pool
}

// tracedDevice is a device with the program set up on it.
type tracedDevice struct {
	d    *gpu.Device
	inst *workloads.Instance
}

// goldenTrace returns the (cached) trace of golden's program under the
// given instrumentation mode and range store on a device of e.Config,
// recording it on first use. Concurrent campaign workers share one
// recording.
func (e *Env) goldenTrace(spec *workloads.Spec, golden *GoldenRun, store *ranges.Store, mode translate.Mode) (*goldenTrace, error) {
	key := traceKey{mode: mode, store: store, cfg: e.Config}
	golden.traceMu.Lock()
	ent := golden.traces[key]
	if ent == nil {
		if golden.traces == nil {
			golden.traces = make(map[traceKey]*traceEntry)
		}
		ent = &traceEntry{}
		golden.traces[key] = ent
	}
	golden.traceMu.Unlock()
	ent.once.Do(func() {
		ent.gt, ent.err = e.recordTrace(spec, golden, store, mode)
	})
	return ent.gt, ent.err
}

func (e *Env) recordTrace(spec *workloads.Spec, golden *GoldenRun, store *ranges.Store, mode translate.Mode) (*goldenTrace, error) {
	tr, err := e.Instrument(spec, translate.NewOptions(mode))
	if err != nil {
		return nil, err
	}
	gt := &goldenTrace{
		spec: spec, ds: golden.Dataset, cfg: e.Config,
		tr: tr, detectors: hrt.ResolveDetectors(tr.Detectors, store),
	}
	start := time.Now()
	td := gt.newDevice()
	cb := gt.controlBlock()
	rt := hrt.NewFT(cb)
	lspec := td.launchSpec(rt, 0)
	var res *gpu.Result
	var lerr error
	if !td.d.Traceable() {
		res, lerr = td.d.Launch(tr.Kernel, lspec)
	} else {
		threads := lspec.Grid * lspec.Block
		counts := make([]uint32, len(tr.Sites))
		gt.probes = make([]uint32, len(counts)*threads)
		rt.Inject = func(_ gpu.ThreadCtx, site int, _ *kir.Var, _ kir.HW, val uint32) (uint32, bool) {
			if site >= 0 && site < len(counts) {
				counts[site]++
			}
			return val, false
		}
		gt.mem, res, lerr = td.d.Record(tr.Kernel, lspec, func(t int) {
			for site := range counts {
				gt.probes[site*threads+t] = counts[site]
				counts[site] = 0
			}
			gt.alarmEnd = append(gt.alarmEnd, int32(len(cb.Alarms())))
		})
	}
	// The clean run is the baseline of the watchdog, of the hang budget and
	// of every resumed launch: one that fails, or computes something else
	// than the golden run, must fail the campaign, not quietly run it on
	// the full path against a broken baseline.
	if lerr != nil {
		return nil, fmt.Errorf("harness: clean %s run of %s failed: %w", mode, spec.Name, lerr)
	}
	if !spec.Requirement.Check(golden.Output, td.inst.ReadOutput()) {
		return nil, fmt.Errorf("harness: clean %s run of %s misses the output requirement against the golden run", mode, spec.Name)
	}
	gt.cleanWall = time.Since(start)
	gt.hangBudget = hangBudget(e.Config, spec.Name, res.MaxSteps)
	if gt.mem != nil {
		gt.alarms = cb.Alarms()
		gt.pool.Put(td)
	}
	if e.Obs.Enabled() {
		m := e.Obs.Metrics()
		m.Help("hauberk_hang_budget_steps", "per-thread step budget of a program's faulted launches (T x the clean run's longest thread, floored)")
		m.Gauge("hauberk_hang_budget_steps", "program", spec.Name, "mode", mode.String()).Set(float64(gt.hangBudget))
		if gt.mem != nil {
			m.Help("hauberk_golden_trace_bytes", "memory held by a program's golden trace")
			m.Gauge("hauberk_golden_trace_bytes", "program", spec.Name, "mode", mode.String()).Set(float64(gt.bytes()))
		}
	}
	return gt, nil
}

// bytes returns the memory the trace holds for resume.
func (gt *goldenTrace) bytes() int {
	return gt.mem.Bytes() + 4*len(gt.probes) + 4*len(gt.alarmEnd) + int(unsafe.Sizeof(hrt.Alarm{}))*len(gt.alarms)
}

func (gt *goldenTrace) newDevice() *tracedDevice {
	d := gpu.New(gt.cfg)
	return &tracedDevice{d: d, inst: gt.spec.Setup(d, gt.ds)}
}

func (gt *goldenTrace) controlBlock() *hrt.ControlBlock {
	return &hrt.ControlBlock{Meta: gt.tr.Detectors, Detectors: gt.detectors}
}

// launchSpec is the program's launch with the given hooks and per-launch
// step budget (0: the device's own, for the clean run).
func (td *tracedDevice) launchSpec(hooks gpu.Hooks, stepBudget int) gpu.LaunchSpec {
	return gpu.LaunchSpec{Grid: td.inst.Grid, Block: td.inst.Block, Args: td.inst.Args, Hooks: hooks, StepBudget: stepBudget}
}

// resumePoint returns the thread holding the command's first targeted
// instance — the thread count when the clean run never reaches it — and
// how often the site ran before that thread.
func (gt *goldenTrace) resumePoint(cmd swifi.Command) (from int, executions int64) {
	threads := gt.mem.Threads()
	if cmd.Site < 0 || cmd.Site >= len(gt.tr.Sites) {
		return threads, 0
	}
	for t, c := range gt.probes[cmd.Site*threads : (cmd.Site+1)*threads] {
		if executions+int64(c) > cmd.Instance {
			return t, executions
		}
		executions += int64(c)
	}
	return threads, executions
}

// replayAlarms records the clean run's alarms of threads [from, to).
func (gt *goldenTrace) replayAlarms(cb *hrt.ControlBlock, from, to int) {
	lo := 0
	if from > 0 {
		lo = int(gt.alarmEnd[from-1])
	}
	hi := lo
	if to > 0 {
		hi = int(gt.alarmEnd[to-1])
	}
	for _, a := range gt.alarms[lo:hi] {
		cb.Record(a)
	}
}

// injectionLaunch is what one faulted launch produced, before
// classification.
type injectionLaunch struct {
	td        *tracedDevice
	cb        *hrt.ControlBlock
	result    *gpu.Result
	err       error
	activated bool
	// exit says how the launch ended (the hauberk_injection_exit_total
	// reasons); executed counts the threads that ran live.
	exit     string
	executed int
}

// launch runs one injection against the trace. An eligible launch restores
// the threads before the one holding the target instance from the trace,
// executes from there with the real hooks, and stops at the first thread
// boundary where the injector is spent and nothing the fault changed is
// read again; the rest is the clean run. The caller returns l.td with
// gt.release when it is done reading device memory.
func (gt *goldenTrace) launch(cmd swifi.Command) injectionLaunch {
	l := injectionLaunch{cb: gt.controlBlock()}
	rt := hrt.NewFT(l.cb)
	injector := &swifi.Injector{}
	injector.Arm(cmd)
	rt.Inject = injector.Probe

	if gt.mem == nil {
		l.td = gt.newDevice()
		l.result, l.err = l.td.d.Launch(gt.tr.Kernel, l.td.launchSpec(rt, gt.hangBudget))
		l.activated = injector.Injected
		l.exit, l.executed = "ineligible", l.result.Threads
		return l
	}

	l.td, _ = gt.pool.Get().(*tracedDevice)
	if l.td == nil {
		l.td = gt.newDevice()
	}
	threads := gt.mem.Threads()
	from, executions := gt.resumePoint(cmd)
	injector.Preset(executions)
	gt.replayAlarms(l.cb, 0, from)
	var stop int
	l.result, stop, l.err = l.td.d.Resume(gt.tr.Kernel, l.td.launchSpec(rt, gt.hangBudget), gt.mem, from, injector.Spent)
	l.activated = injector.Injected
	l.executed = stop - from
	switch _, hung := l.err.(*gpu.HangError); {
	case hung:
		l.exit = "hung"
	case l.err != nil:
		l.exit = "crashed"
	case from == threads:
		l.exit = "never_fired"
	case stop == threads:
		l.exit = "ran_to_end"
	default:
		l.exit = "settled"
	}
	if l.err == nil {
		gt.replayAlarms(l.cb, stop, threads)
	}
	return l
}

// release returns a launch's device to the pool.
func (gt *goldenTrace) release(td *tracedDevice) {
	if gt.mem != nil {
		gt.pool.Put(td)
	}
}
