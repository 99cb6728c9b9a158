package harness

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/workloads"
)

func TestFig13PerfShape(t *testing.T) {
	e := NewEnv(QuickScale())
	ds := workloads.Dataset{Index: 0}
	var (
		sumHauberk, sumRNaive float64
		nRows                 int
	)
	for _, spec := range workloads.HPC() {
		prof, err := e.Profile(spec, []workloads.Dataset{ds})
		if err != nil {
			t.Fatalf("%s profile: %v", spec.Name, err)
		}
		row, err := e.MeasurePerf(spec, ds, prof.Store)
		if err != nil {
			t.Fatalf("%s perf: %v", spec.Name, err)
		}
		t.Logf("%-8s base=%10.0f rnaive=%8s rscatter=%8s nl=%8s l=%8s hauberk=%8s",
			row.Program, row.Baseline, row.Overhead(RNaive), row.Overhead(RScatter),
			row.Overhead(HauberkNL), row.Overhead(HauberkL), row.Overhead(Hauberk))

		sumHauberk += row.Overheads[Hauberk]
		sumRNaive += row.Overheads[RNaive]
		nRows++

		if spec.Name == "TPACF" {
			if row.Overhead(RScatter) != "n/a" {
				t.Errorf("TPACF should not compile under R-Scatter")
			}
		}
		if row.Overheads[Hauberk] >= row.Overheads[RNaive] {
			t.Errorf("%s: Hauberk overhead %.1f%% not below R-Naive %.1f%%",
				spec.Name, row.Overheads[Hauberk], row.Overheads[RNaive])
		}
	}
	avgH := sumHauberk / float64(nRows)
	avgN := sumRNaive / float64(nRows)
	t.Logf("avg hauberk=%.1f%% rnaive=%.1f%%", avgH, avgN)
	if avgH > 40 {
		t.Errorf("average Hauberk overhead %.1f%%, want the paper's ~15%% ballpark (<40%%)", avgH)
	}
	if avgN < 90 || avgN > 115 {
		t.Errorf("average R-Naive overhead %.1f%%, want ~100%%", avgN)
	}
}

// hookEvent is one detector/FI hook callback with every argument the
// kernel handed the runtime (floats as raw bits, so comparison is exact).
type hookEvent struct {
	kind string
	tc   gpu.ThreadCtx
	a, b int64
	name string
	bits uint64
}

// hookLog records the full hook call sequence. Probe corrupts nothing.
type hookLog struct {
	gpu.NopHooks
	events []hookEvent
}

func (h *hookLog) Probe(tc gpu.ThreadCtx, site int, v *kir.Var, hw kir.HW, val uint32) (uint32, bool) {
	h.events = append(h.events, hookEvent{"probe", tc, int64(site), int64(hw), v.Name, uint64(val)})
	return val, false
}

func (h *hookLog) CountExec(tc gpu.ThreadCtx, site int) {
	h.events = append(h.events, hookEvent{kind: "count", tc: tc, a: int64(site)})
}

func (h *hookLog) RangeCheck(tc gpu.ThreadCtx, det int, val float64) {
	h.events = append(h.events, hookEvent{kind: "range", tc: tc, a: int64(det), bits: math.Float64bits(val)})
}

func (h *hookLog) EqualCheck(tc gpu.ThreadCtx, det int, count, expected int32) {
	h.events = append(h.events, hookEvent{kind: "equal", tc: tc, a: int64(det), b: int64(count), bits: uint64(expected)})
}

func (h *hookLog) ProfileSample(tc gpu.ThreadCtx, det int, val float64) {
	h.events = append(h.events, hookEvent{kind: "sample", tc: tc, a: int64(det), bits: math.Float64bits(val)})
}

func (h *hookLog) SetSDC(tc gpu.ThreadCtx, det int, kind kir.DetectKind) {
	h.events = append(h.events, hookEvent{kind: "sdc", tc: tc, a: int64(det), b: int64(kind)})
}

// launchRun is everything observable about one launch.
type launchRun struct {
	res    gpu.Result
	err    string
	output []uint32
	events []hookEvent
}

func launchOnce(k *kir.Kernel, spec *workloads.Spec) launchRun {
	d := gpu.New(gpu.DefaultConfig())
	inst := spec.Setup(d, workloads.Dataset{Index: 0})
	hooks := &hookLog{}
	res, err := d.Launch(k, gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: hooks})
	return launchRun{res: *res, err: fmt.Sprintf("%T %v", err, err), output: inst.ReadOutput(), events: hooks.events}
}

// TestParallelLaunchBitIdentical pins what campaign workers depend on:
// launches are serial, campaigns are not. Several goroutines launching the
// same kernel at once — each on its own device, all sharing the cached
// program and its pooled register files — must each reproduce a lone
// launch bit-for-bit, for every evaluation workload (7 HPC + 2 graphics),
// original and under every translator instrumentation mode.
func TestParallelLaunchBitIdentical(t *testing.T) {
	check := func(t *testing.T, k *kir.Kernel, spec *workloads.Spec) {
		alone := launchOnce(k, spec)
		together := make([]launchRun, 4)
		var wg sync.WaitGroup
		for i := range together {
			wg.Add(1)
			go func() {
				defer wg.Done()
				together[i] = launchOnce(k, spec)
			}()
		}
		wg.Wait()
		for i, run := range together {
			if run.err != alone.err {
				t.Fatalf("concurrent launch %d: error %s, alone %s", i, run.err, alone.err)
			}
			if run.res != alone.res {
				t.Errorf("concurrent launch %d: result %+v, alone %+v", i, run.res, alone.res)
			}
			if !reflect.DeepEqual(run.output, alone.output) {
				t.Errorf("concurrent launch %d: outputs differ (%d words)", i, len(alone.output))
			}
			if !reflect.DeepEqual(run.events, alone.events) {
				t.Errorf("concurrent launch %d: hook call sequence differs (%d vs %d calls)",
					i, len(run.events), len(alone.events))
			}
		}
	}
	modes := []translate.Mode{
		translate.ModeNone, translate.ModeProfiler, translate.ModeFT,
		translate.ModeFI, translate.ModeFIFT,
	}
	for _, spec := range append(workloads.HPC(), workloads.Graphics()...) {
		t.Run(spec.Name+"/original", func(t *testing.T) { check(t, spec.Build(), spec) })
		for _, mode := range modes {
			t.Run(spec.Name+"/"+mode.String(), func(t *testing.T) {
				tr, err := translate.Instrument(spec.Build(), translate.NewOptions(mode))
				if err != nil {
					t.Fatalf("instrument: %v", err)
				}
				check(t, tr.Kernel, spec)
			})
		}
	}
}

// TestParallelLaunchWithRuntimeHooks drives the real profiler and FT
// runtimes (hrt) the way campaign workers do: concurrent environments
// profiling and running the FT binary of one program (under the hook
// counter, as MeasurePerf runs it) must each
// match a lone run in cycles, hook-call counts, and golden output.
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
		counting := gpu.NewCountingHooks(hrt.NewFT(hrt.NewControlBlock(tr.Detectors, prof.Store)))
		_, res, err := env.launch(spec, ds, tr.Kernel, counting, 0)
		if err != nil {
			return ftRun{err: err}
		}
		r.cycles, r.counts, r.output = res.Cycles, counting.Counts(), golden.Output
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
