package gpu_test

import (
	"fmt"
	"math"
	"reflect"
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
// instrumented kernels run their fault-free paths under every engine.
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

func runEngine(t *testing.T, e gpu.Engine, k *kir.Kernel, spec *workloads.Spec) engineRun {
	t.Helper()
	d := gpu.New(gpu.DefaultConfig())
	inst := spec.Setup(d, workloads.Dataset{Index: 0})
	hooks := &diffHooks{}
	res, err := d.LaunchOn(e, k, gpu.LaunchSpec{
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

// TestEnginesBitIdentical is the bytecode engine's differential oracle on
// the real workloads: for every workload variant the fused bytecode engine,
// the unfused bytecode stream, and the tree-walker must agree bit-for-bit on
// outputs, total/loop/non-loop cycle counts, memory traffic, the complete
// detector/FI hook call sequence, and the crash/hang classification.
func TestEnginesBitIdentical(t *testing.T) {
	forEachWorkloadVariant(t, func(t *testing.T, k *kir.Kernel, spec *workloads.Spec) {
		t.Parallel()
		bc := runEngine(t, gpu.EngineFused, k, spec)
		un := runEngine(t, gpu.EngineUnfused, k, spec)
		tw := runEngine(t, gpu.EngineTree, k, spec)

		compareRuns(t, bc, un)
		compareRuns(t, bc, tw)
	})
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

// TestCheckpointsOnShippedKernels pins what intra-thread checkpoints rest
// on for the ten shipped kernels: under every instrumentation mode the
// program Record compiles (with its recorder notes) and the cached one
// start the same number of statements, so a checkpoint maps between them
// by statement ordinal; and a launch resumed from checkpoints spread over
// the grid reproduces the recorded one bit for bit.
func TestCheckpointsOnShippedKernels(t *testing.T) {
	defer gpu.CheckpointEvery(64)()
	cfg := gpu.DefaultConfig()
	for _, spec := range append(append(workloads.HPC(), workloads.Graphics()...), workloads.CPURef()) {
		t.Run(spec.Name, func(t *testing.T) {
			var k *kir.Kernel
			for _, mode := range []translate.Mode{translate.ModeNone, translate.ModeProfiler, translate.ModeFT, translate.ModeFI, translate.ModeFIFT} {
				tr, err := translate.Instrument(spec.Build(), translate.NewOptions(mode))
				if err != nil {
					t.Fatalf("instrument %s: %v", mode, err)
				}
				if rec, cached := gpu.StatementCounts(tr.Kernel, cfg); rec != cached {
					t.Fatalf("%s: Record's program starts %d statements, the cached one %d", mode, rec, cached)
				}
				k = tr.Kernel // the FI&FT kernel campaigns resume
			}
			d := gpu.New(cfg)
			inst := spec.Setup(d, workloads.Dataset{})
			spec := gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: gpu.NopHooks{}}
			trace, want, err := d.Record(k, spec, nil, nil)
			if err != nil || trace == nil {
				t.Fatalf("record: trace %v, err %v", trace, err)
			}
			wantMem := d.Snapshot()
			resumed := 0
			for th := 0; th < trace.Threads(); th += max(1, trace.Threads()/7) {
				n := trace.Checkpoints(th)
				for _, c := range []int{1, (n + 1) / 2, n} {
					if c == 0 {
						continue
					}
					got, _, err := d.Resume(k, spec, trace, gpu.ResumeAt{Thread: th, Checkpoint: c}, -1, func() bool { return true })
					if err != nil {
						t.Fatal(err)
					}
					if *got != *want || !reflect.DeepEqual(d.Snapshot(), wantMem) {
						t.Fatalf("resumed from thread %d checkpoint %d: %+v, want %+v (or memory differs)", th, c, got, want)
					}
					resumed++
				}
			}
			t.Logf("%d resumes from checkpoints", resumed)
		})
	}
}
