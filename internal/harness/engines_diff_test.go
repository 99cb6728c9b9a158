package harness

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/workloads"
)

// hookEvent is one recorded detector/FI hook callback, with every argument
// the kernel handed the runtime (floats as raw bits so comparison is exact).
type hookEvent struct {
	Kind     string
	Tc       gpu.ThreadCtx
	A, B     int
	VarName  string
	ValBits  uint64
	I32a     int32
	I32b     int32
	DetKind  kir.DetectKind
	ProbeVal uint32
}

// diffHooks records the full hook call sequence. Probe corrupts nothing, so
// instrumented kernels run their fault-free paths under both engines.
type diffHooks struct {
	gpu.NopHooks
	events []hookEvent
}

func (h *diffHooks) Probe(tc gpu.ThreadCtx, site int, v *kir.Var, hw kir.HW, val uint32) (uint32, bool) {
	h.events = append(h.events, hookEvent{Kind: "probe", Tc: tc, A: site, B: int(hw), VarName: v.Name, ProbeVal: val})
	return val, false
}

func (h *diffHooks) CountExec(tc gpu.ThreadCtx, site int) {
	h.events = append(h.events, hookEvent{Kind: "count", Tc: tc, A: site})
}

func (h *diffHooks) RangeCheck(tc gpu.ThreadCtx, det int, val float64) {
	h.events = append(h.events, hookEvent{Kind: "range", Tc: tc, A: det, ValBits: math.Float64bits(val)})
}

func (h *diffHooks) EqualCheck(tc gpu.ThreadCtx, det int, count, expected int32) {
	h.events = append(h.events, hookEvent{Kind: "equal", Tc: tc, A: det, I32a: count, I32b: expected})
}

func (h *diffHooks) ProfileSample(tc gpu.ThreadCtx, det int, val float64) {
	h.events = append(h.events, hookEvent{Kind: "sample", Tc: tc, A: det, ValBits: math.Float64bits(val)})
}

func (h *diffHooks) SetSDC(tc gpu.ThreadCtx, det int, kind kir.DetectKind) {
	h.events = append(h.events, hookEvent{Kind: "sdc", Tc: tc, A: det, DetKind: kind})
}

// engineRun is everything observable about one launch.
type engineRun struct {
	res    *gpu.Result
	err    error
	output []uint32
	events []hookEvent
}

func runEngine(t *testing.T, interp gpu.Interpreter, nofuse bool, k *kir.Kernel, spec *workloads.Spec) engineRun {
	t.Helper()
	cfg := gpu.DefaultConfig()
	cfg.Interpreter = interp
	cfg.DisableFusion = nofuse
	d := gpu.New(cfg)
	inst := spec.Setup(d, workloads.Dataset{Index: 0})
	hooks := &diffHooks{}
	res, err := d.Launch(k, gpu.LaunchSpec{
		Grid:  inst.Grid,
		Block: inst.Block,
		Args:  inst.Args,
		Hooks: hooks,
	})
	return engineRun{res: res, err: err, output: inst.ReadOutput(), events: hooks.events}
}

// forEachWorkloadVariant runs fn as a subtest for every evaluation workload
// (7 HPC + 2 graphics), original and under every translator
// instrumentation mode, handing it the (instrumented) kernel.
func forEachWorkloadVariant(t *testing.T, fn func(t *testing.T, k *kir.Kernel, spec *workloads.Spec)) {
	specs := append(workloads.HPC(), workloads.Graphics()...)
	modes := []translate.Mode{
		translate.ModeNone, translate.ModeProfiler, translate.ModeFT,
		translate.ModeFI, translate.ModeFIFT,
	}
	for _, spec := range specs {
		t.Run(spec.Name+"/original", func(t *testing.T) { fn(t, spec.Build(), spec) })
		for _, mode := range modes {
			t.Run(spec.Name+"/"+mode.String(), func(t *testing.T) {
				tr, err := translate.Instrument(spec.Build(), translate.NewOptions(mode))
				if err != nil {
					t.Fatalf("instrument: %v", err)
				}
				fn(t, tr.Kernel, spec)
			})
		}
	}
}

// TestEnginesBitIdentical is the bytecode engine's differential oracle: for
// every workload variant the fused bytecode engine, the unfused bytecode
// stream, and the tree-walker must agree bit-for-bit on outputs,
// total/loop/non-loop cycle counts, memory traffic, the complete
// detector/FI hook call sequence, and the crash/hang classification.
func TestEnginesBitIdentical(t *testing.T) {
	forEachWorkloadVariant(t, func(t *testing.T, k *kir.Kernel, spec *workloads.Spec) {
		t.Parallel()
		bc := runEngine(t, gpu.InterpreterBytecode, false, k, spec)
		un := runEngine(t, gpu.InterpreterBytecode, true, k, spec)
		tw := runEngine(t, gpu.InterpreterTree, false, k, spec)

		compareRuns(t, bc, un)
		compareRuns(t, bc, tw)
	})
}

// TestParallelLaunchBitIdentical pins what campaign workers depend on:
// launches are serial, campaigns are not. Several goroutines launching the
// same kernel at once — each on its own device, all sharing the cached
// program and its pooled register files — must each reproduce a lone
// launch bit-for-bit, for every workload variant.
func TestParallelLaunchBitIdentical(t *testing.T) {
	forEachWorkloadVariant(t, func(t *testing.T, k *kir.Kernel, spec *workloads.Spec) {
		alone := runEngine(t, gpu.InterpreterBytecode, false, k, spec)
		together := make([]engineRun, 4)
		var wg sync.WaitGroup
		for i := range together {
			wg.Add(1)
			go func() {
				defer wg.Done()
				together[i] = runEngine(t, gpu.InterpreterBytecode, false, k, spec)
			}()
		}
		wg.Wait()
		for _, run := range together {
			compareRuns(t, alone, run)
		}
	})
}

// TestParallelLaunchWithRuntimeHooks drives the real profiler and FT
// runtimes (hrt) the same way: concurrent environments profiling and
// running the FT binary of one program must each match a lone run in
// cycles, hook-call counts, and golden output.
func TestParallelLaunchWithRuntimeHooks(t *testing.T) {
	spec := workloads.HPC()[0]
	ds := workloads.Dataset{Index: 0}

	type ftRun struct {
		cycles float64
		counts gpu.HookCounts
		output []uint32
		err    error
	}
	run := func() (r ftRun) {
		env := NewEnv(QuickScale())
		prof, err := env.Profile(spec, []workloads.Dataset{ds})
		if err != nil {
			return ftRun{err: fmt.Errorf("profile: %w", err)}
		}
		golden, err := env.Golden(spec, ds)
		if err != nil {
			return ftRun{err: fmt.Errorf("golden: %w", err)}
		}
		tr, err := env.Instrument(spec, translate.NewOptions(translate.ModeFT))
		if err != nil {
			return ftRun{err: fmt.Errorf("instrument: %w", err)}
		}
		r.cycles, r.counts, r.err = env.launchFT(tr, spec, ds, prof.Store)
		r.output = golden.Output
		return r
	}

	alone := run()
	if alone.err != nil {
		t.Fatal(alone.err)
	}
	together := make([]ftRun, 4)
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = run()
		}()
	}
	wg.Wait()
	for i, r := range together {
		if r.err != nil {
			t.Fatalf("concurrent run %d: %v", i, r.err)
		}
		if math.Float64bits(r.cycles) != math.Float64bits(alone.cycles) {
			t.Fatalf("concurrent run %d: FT cycles %v, alone %v", i, r.cycles, alone.cycles)
		}
		if !reflect.DeepEqual(r.counts, alone.counts) {
			t.Fatalf("concurrent run %d: hook counts %+v, alone %+v", i, r.counts, alone.counts)
		}
		if !reflect.DeepEqual(r.output, alone.output) {
			t.Fatalf("concurrent run %d: golden output differs", i)
		}
	}
}

func compareRuns(t *testing.T, bc, tw engineRun) {
	t.Helper()
	if (bc.err == nil) != (tw.err == nil) || fmt.Sprint(bc.err) != fmt.Sprint(tw.err) {
		t.Fatalf("error mismatch: bytecode=%v tree=%v", bc.err, tw.err)
	}
	if ty := fmt.Sprintf("%T/%T", bc.err, tw.err); bc.err != nil && reflect.TypeOf(bc.err) != reflect.TypeOf(tw.err) {
		t.Fatalf("error type mismatch: %s", ty)
	}
	for _, c := range []struct {
		name     string
		got, wnt float64
	}{
		{"Cycles", bc.res.Cycles, tw.res.Cycles},
		{"LoopCycles", bc.res.LoopCycles, tw.res.LoopCycles},
		{"NonLoopCycles", bc.res.NonLoopCycles, tw.res.NonLoopCycles},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.wnt) {
			t.Errorf("%s not bit-identical: bytecode=%v (%#x) tree=%v (%#x)",
				c.name, c.got, math.Float64bits(c.got), c.wnt, math.Float64bits(c.wnt))
		}
	}
	if bc.res.Loads != tw.res.Loads || bc.res.Stores != tw.res.Stores {
		t.Errorf("memory traffic mismatch: bytecode loads=%d stores=%d, tree loads=%d stores=%d",
			bc.res.Loads, bc.res.Stores, tw.res.Loads, tw.res.Stores)
	}
	if bc.res.Threads != tw.res.Threads || bc.res.MaxLive != tw.res.MaxLive || bc.res.Spill != tw.res.Spill {
		t.Errorf("launch metadata mismatch: bytecode=%+v tree=%+v", bc.res, tw.res)
	}
	if !reflect.DeepEqual(bc.output, tw.output) {
		t.Errorf("outputs differ (%d words)", len(bc.output))
	}
	if len(bc.events) != len(tw.events) {
		t.Fatalf("hook event count mismatch: bytecode=%d tree=%d", len(bc.events), len(tw.events))
	}
	for i := range bc.events {
		if bc.events[i] != tw.events[i] {
			t.Fatalf("hook event %d mismatch:\n  bytecode: %+v\n  tree:     %+v", i, bc.events[i], tw.events[i])
		}
	}
}
