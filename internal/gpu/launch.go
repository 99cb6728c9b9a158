package gpu

import (
	"fmt"
	"math"
	"runtime/debug"

	"hauberk/internal/kir"
	"hauberk/internal/obs"
)

// Arg is one kernel launch argument.
type Arg struct {
	Buf    *Buffer
	Scalar uint32
}

// BufArg passes a device buffer to a pointer parameter.
func BufArg(b *Buffer) Arg { return Arg{Buf: b} }

// I32Arg passes a signed scalar.
func I32Arg(v int32) Arg { return Arg{Scalar: uint32(v)} }

// F32Arg passes a float scalar.
func F32Arg(v float32) Arg { return Arg{Scalar: math.Float32bits(v)} }

// LaunchSpec configures one kernel launch.
type LaunchSpec struct {
	Grid  int // blocks
	Block int // threads per block
	Args  []Arg
	Hooks Hooks // nil for uninstrumented kernels
	// StepBudget, when positive, replaces Config.StepBudget for this launch:
	// the hang rule of a launch that has a clean baseline — the guardian's
	// T times the baseline's Result.MaxSteps (Section VI(i)). Zero leaves
	// the device-wide backstop in charge, which is right for launches that
	// are the baseline: golden, profile and recording runs.
	StepBudget int
	// Obs, when enabled, journals a kernel.launch event at entry and a
	// kernel.retire span (status, cycle split, memory traffic) at exit,
	// and feeds the launch counters/cycle histogram of the metrics
	// registry. nil or a disabled telemetry adds nothing to the hot
	// path.
	Obs *obs.Telemetry
}

// Result reports the outcome of a launch.
type Result struct {
	// Cycles is the modelled kernel execution time: per-warp maxima of
	// thread cycle counts, spread over the device's SMs.
	Cycles float64
	// LoopCycles / NonLoopCycles split Cycles by whether the work
	// executed inside a loop (Figure 4's measurement).
	LoopCycles    float64
	NonLoopCycles float64
	Threads       int
	// MaxLive is the kernel's peak live-variable estimate; Spill reports
	// whether it exceeded the per-thread register file.
	MaxLive int
	Spill   bool
	// Loads/Stores count global memory accesses.
	Loads, Stores int64
	// MaxSteps is the statement count of the launch's longest thread. The
	// modelled GPU runs threads in parallel, so this — not the sum — is what
	// sets the kernel's time, and what a hang budget is a multiple of.
	MaxSteps int
}

// kernelCycleBuckets spreads modelled kernel times over the decades the
// workloads actually span (QuickScale kernels run 1e3..1e8 cycles).
var kernelCycleBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// Launch runs the kernel on the device. The returned Result carries the
// cycle accounting accumulated up to the point of failure; err is nil, a
// *CrashError, a *HangError, or a *LaunchError.
//
// With an enabled spec.Obs the launch is bracketed by kernel.launch /
// kernel.retire events and counted in the metrics registry; the
// telemetry-off path is allocation-free (see BenchmarkNopTelemetryLaunch).
func (d *Device) Launch(k *kir.Kernel, spec LaunchSpec) (*Result, error) {
	if !spec.Obs.Enabled() {
		return d.launch(k, spec)
	}
	tel := spec.Obs
	tel.Emit(obs.EvKernelLaunch,
		obs.Str("kernel", k.Name),
		obs.Int("grid", int64(spec.Grid)),
		obs.Int("block", int64(spec.Block)),
		obs.Int("threads", int64(spec.Grid*spec.Block)))
	sp := tel.Span(obs.EvKernelRetire)
	res, err := d.launch(k, spec)
	status := launchStatus(err)
	sp.End(
		obs.Str("kernel", k.Name),
		obs.Str("status", status),
		obs.Float("cycles", res.Cycles),
		obs.Float("loop_cycles", res.LoopCycles),
		obs.Int("loads", res.Loads),
		obs.Int("stores", res.Stores))
	m := tel.Metrics()
	m.Counter("hauberk_kernel_launches_total", "kernel", k.Name, "status", status).Inc()
	m.Histogram("hauberk_kernel_cycles", kernelCycleBuckets, "kernel", k.Name).Observe(res.Cycles)
	return res, err
}

// launchStatus classifies a launch error for events and metric labels.
func launchStatus(err error) string {
	switch err.(type) {
	case nil:
		return "ok"
	case *CrashError:
		return "crash"
	case *HangError:
		return "hang"
	case *PanicError:
		return "panic"
	default:
		return "launch-error"
	}
}

func (d *Device) launch(k *kir.Kernel, spec LaunchSpec) (res *Result, err error) {
	// Containment boundary: a panic anywhere in the engine or in hook
	// delivery becomes a classified crash failure of this launch, never a
	// dead campaign process.
	defer func() {
		if r := recover(); r != nil {
			res, err = &Result{}, &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	if lerr := d.checkLaunch(k, spec); lerr != nil {
		return &Result{}, lerr
	}
	p, hit := programFor(k, d.cfg)
	if spec.Obs.Enabled() {
		result := "miss"
		if hit {
			result = "hit"
		}
		m := spec.Obs.Metrics()
		m.Counter("hauberk_program_cache_total",
			"kernel", k.Name, "result", result).Inc()
		m.Help("hauberk_launch_modes_total",
			"bytecode launches by execution mode (always serial: there is one engine)")
		m.Counter("hauberk_launch_modes_total", "kernel", k.Name, "mode", "serial").Inc()
	}
	x := d.newTracedLaunch(k, &spec, p)
	return x.runAll()
}

// stepBudget resolves the launch's per-thread statement budget.
func (d *Device) stepBudget(spec *LaunchSpec) int {
	if spec.StepBudget > 0 {
		return spec.StepBudget
	}
	return d.cfg.StepBudget
}

// checkLaunch validates a launch request against the device and the
// kernel's signature.
func (d *Device) checkLaunch(k *kir.Kernel, spec LaunchSpec) error {
	if d.Disabled {
		return &LaunchError{Reason: "device disabled"}
	}
	if spec.Grid <= 0 || spec.Block <= 0 {
		return &LaunchError{Reason: "grid and block must be positive"}
	}
	if len(spec.Args) != len(k.Params) {
		return &LaunchError{
			Reason: fmt.Sprintf("kernel %s wants %d args, got %d", k.Name, len(k.Params), len(spec.Args)),
		}
	}
	for i, p := range k.Params {
		if p.Type == kir.Ptr && spec.Args[i].Buf == nil {
			return &LaunchError{Reason: fmt.Sprintf("param %s needs a buffer", p.Name)}
		}
	}
	return nil
}

func finishResult(res *Result, d *Device, warpCycles, threadCycles, loopCycles float64) {
	res.Cycles = warpCycles / float64(d.cfg.SMs)
	if threadCycles > 0 {
		frac := loopCycles / threadCycles
		res.LoopCycles = res.Cycles * frac
		res.NonLoopCycles = res.Cycles - res.LoopCycles
	}
}

// convert implements value conversion between 32-bit scalar types with
// GPU-like saturation on float-to-int.
func convert(from, to kir.Type, x uint32) uint32 {
	if from == to {
		return x
	}
	switch {
	case from == kir.F32 && to == kir.I32:
		f := math.Float32frombits(x)
		switch {
		case f != f: // NaN
			return 0
		case f >= math.MaxInt32:
			return uint32(int32(math.MaxInt32))
		case f <= math.MinInt32:
			minI32 := int32(math.MinInt32)
			return uint32(minI32)
		default:
			return uint32(int32(f))
		}
	case from == kir.F32 && to == kir.U32:
		f := math.Float32frombits(x)
		switch {
		case f != f, f <= 0:
			return 0
		case f >= math.MaxUint32:
			return math.MaxUint32
		default:
			return uint32(f)
		}
	case from == kir.I32 && to == kir.F32:
		return math.Float32bits(float32(int32(x)))
	case from == kir.U32 && to == kir.F32:
		return math.Float32bits(float32(x))
	default: // I32 <-> U32 and pointer-sized moves: same payload
		return x
	}
}
