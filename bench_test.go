// Package hauberk_test holds the module-wide developer benchmarks — the
// DESIGN.md ablations, the translator and the telemetry hook path — and
// the allocation check of a launch with the monitor off. The paper's
// tables and figures are regenerated by `hauberk-report -fig`, not here.
// Run the benchmarks with:
//
//	go test -run '^$' -bench=. -benchmem .
//
// They gate nothing: the one perf gate is the campaign benchmark run
// against the parent commit (`make bench-diff`, scripts/bench_pairs.sh).
// The simulator's own engine benchmark (BenchmarkBaselineKernels) lives
// with the engine and its test-only oracles in internal/gpu.
package hauberk_test

import (
	"testing"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/harness"
	"hauberk/internal/kir"
	"hauberk/internal/obs"
	"hauberk/internal/workloads"
)

func quickEnv() *harness.Env { return harness.NewEnv(harness.QuickScale()) }

// BenchmarkAblationNaiveDup compares Figure 8(b) naive duplication against
// Hauberk's checksum duplication (Figure 8(c)): the ablation DESIGN.md
// calls out. Naive duplication keeps every duplicate live until the
// original's last use, so on a kernel whose non-loop variables stay live
// across the main loop (the common "load once, reuse every iteration" GPU
// pattern, modelled by the wide-reuse kernel below) it roughly doubles the
// register pressure and pays the spill penalty; the checksum variant keeps
// duplicates alive for two statements only.
func BenchmarkAblationNaiveDup(b *testing.B) {
	run := func(b *testing.B, build func() *kir.Kernel, setup func(d *gpu.Device) ([]gpu.Arg, int, int), naive bool) {
		k := build()
		d0 := gpu.New(gpu.DefaultConfig())
		args0, grid, block := setup(d0)
		base, err := d0.Launch(k, gpu.LaunchSpec{Grid: grid, Block: block, Args: args0})
		if err != nil {
			b.Fatal(err)
		}
		opts := translate.NewOptions(translate.ModeFT)
		opts.Loop = false
		opts.NaiveDup = naive
		tr, err := translate.Instrument(build(), opts)
		if err != nil {
			b.Fatal(err)
		}
		maxLive := kir.Analyze(tr.Kernel).MaxLive
		for i := 0; i < b.N; i++ {
			d := gpu.New(gpu.DefaultConfig())
			args, grid, block := setup(d)
			res, err := d.Launch(tr.Kernel, gpu.LaunchSpec{Grid: grid, Block: block, Args: args})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric((res.Cycles/base.Cycles-1)*100, "overhead-%")
			b.ReportMetric(float64(maxLive), "max-live-regs")
		}
	}

	mriqSetup := func(d *gpu.Device) ([]gpu.Arg, int, int) {
		inst := workloads.MRIQ().Setup(d, workloads.Dataset{Index: 0})
		return inst.Args, inst.Grid, inst.Block
	}
	for _, naive := range []bool{false, true} {
		naive := naive
		name := "mriq-checksum"
		if naive {
			name = "mriq-naive"
		}
		b.Run(name, func(b *testing.B) { run(b, workloads.MRIQ().Build, mriqSetup, naive) })
	}
	for _, naive := range []bool{false, true} {
		naive := naive
		name := "widereuse-checksum"
		if naive {
			name = "widereuse-naive"
		}
		b.Run(name, func(b *testing.B) { run(b, buildWideReuse, setupWideReuse, naive) })
	}
}

// buildWideReuse defines 14 virtual variables up front and reuses all of
// them in every loop iteration — the register-pressure shape that
// motivates Figure 8(c)'s design.
func buildWideReuse() *kir.Kernel {
	const nvars = 14
	bld := kir.NewBuilder("widereuse")
	in := bld.PtrParam("in", kir.F32)
	out := bld.PtrParam("out", kir.F32)
	iters := bld.Param("iters", kir.I32)
	tid := bld.Def("tid", kir.GlobalID())
	vars := make([]*kir.Var, nvars)
	for i := 0; i < nvars; i++ {
		vars[i] = bld.Def("v", kir.XAdd(
			kir.Ld(in, kir.XAdd(kir.XMul(kir.V(tid), kir.I(nvars)), kir.I(int32(i)))),
			kir.F(float32(i)*0.25+0.5)))
	}
	acc := bld.Local("acc", kir.F(0))
	bld.For("k", kir.I(0), kir.V(iters), func(k *kir.Var) {
		term := kir.Expr(kir.ToF32(kir.V(k)))
		for i := 0; i < nvars; i++ {
			term = kir.XAdd(kir.XMul(term, kir.F(0.5)), kir.V(vars[i]))
		}
		t := bld.Def("t", term)
		bld.Accum(acc, kir.V(t))
	})
	bld.Store(out, kir.V(tid), kir.V(acc))
	return bld.Kernel()
}

func setupWideReuse(d *gpu.Device) ([]gpu.Arg, int, int) {
	const threads, per = 128, 14
	in := d.Alloc("in", kir.F32, threads*per)
	out := d.Alloc("out", kir.F32, threads)
	vals := make([]float32, threads*per)
	for i := range vals {
		vals[i] = float32(i%13)/13 + 0.1
	}
	d.WriteF32(in, 0, vals)
	return []gpu.Arg{gpu.BufArg(in), gpu.BufArg(out), gpu.I32Arg(48)}, threads / 32, 32
}

// BenchmarkAblationMaxVar sweeps the user-visible Maxvar knob (variables
// protected per loop) on SAD.
func BenchmarkAblationMaxVar(b *testing.B) {
	e := quickEnv()
	spec := workloads.SAD()
	base, err := e.Golden(spec, workloads.Dataset{Index: 0})
	if err != nil {
		b.Fatal(err)
	}
	for _, maxvar := range []int{1, 2, 4} {
		maxvar := maxvar
		b.Run(maxVarName(maxvar), func(b *testing.B) {
			opts := translate.NewOptions(translate.ModeFT)
			opts.MaxVar = maxvar
			tr, err := translate.Instrument(spec.Build(), opts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				d := gpu.New(gpu.DefaultConfig())
				inst := spec.Setup(d, workloads.Dataset{Index: 0})
				res, err := d.Launch(tr.Kernel, gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric((res.Cycles/base.Result.Cycles-1)*100, "overhead-%")
				b.ReportMetric(float64(tr.LoopProtected), "protected-vars")
			}
		})
	}
}

func maxVarName(n int) string {
	switch n {
	case 1:
		return "maxvar1"
	case 2:
		return "maxvar2"
	default:
		return "maxvar4"
	}
}

// BenchmarkTranslator measures raw translator throughput (statements per
// second) across all programs and modes.
func BenchmarkTranslator(b *testing.B) {
	specs := workloads.HPC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := translate.Instrument(spec.Build(), translate.NewOptions(translate.ModeFIFT)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// obsHookLaunch builds one fully instrumented CP launch (FT hooks driving
// the control block) and returns a closure launching it with the given
// telemetry — the measured unit of the observability overhead comparison.
func obsHookLaunch(tb testing.TB, tel *obs.Telemetry) func() {
	e := quickEnv()
	spec := workloads.CP()
	prof, err := e.Profile(spec, []workloads.Dataset{{Index: 0}})
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := translate.Instrument(spec.Build(), translate.NewOptions(translate.ModeFT))
	if err != nil {
		tb.Fatal(err)
	}
	d := gpu.New(gpu.DefaultConfig())
	inst := spec.Setup(d, workloads.Dataset{Index: 0})
	return func() {
		cb := hrt.NewControlBlock(tr.Detectors, prof.Store)
		rt := hrt.NewFT(cb)
		rt.Obs = tel
		_, err := d.Launch(tr.Kernel, gpu.LaunchSpec{
			Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt, Obs: tel,
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkObsHookPath compares the instrumented launch path with
// telemetry off (nop: the production default) and on (enabled registry,
// events discarded). Run with -benchmem: the nop variant must match the
// allocation profile of a launch with no telemetry wired at all (see
// TestNopTelemetryLaunchAllocationFree in internal/gpu).
func BenchmarkObsHookPath(b *testing.B) {
	for _, cfg := range []struct {
		name string
		tel  *obs.Telemetry
	}{
		{"nop", obs.Nop()},
		{"enabled", obs.New(nil)},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			launch := obsHookLaunch(b, cfg.tel)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				launch()
			}
		})
	}
}

// TestMonitorOffLaunchAllocationFree pins the `-http`-off contract: when
// no monitor address is configured, hauberk-run wires plain disabled
// telemetry — no broadcaster, tracker or HTTP server is constructed —
// and that path must keep the fully instrumented launch
// allocation-identical to a launch with no telemetry at all.
func TestMonitorOffLaunchAllocationFree(t *testing.T) {
	bare := obsHookLaunch(t, nil)
	off := obsHookLaunch(t, obs.Nop())
	bare()
	off()
	base := testing.AllocsPerRun(20, bare)
	monitorOff := testing.AllocsPerRun(20, off)
	if monitorOff != base {
		t.Fatalf("monitor-off telemetry changed allocations per launch: %v -> %v", base, monitorOff)
	}

	// The same contract one layer up: an injection through the harness
	// funnel (golden-trace resume, its exit and thread counters behind
	// Obs.Enabled) allocates the same with disabled telemetry as with none.
	if raceEnabled {
		return // pooled devices are dropped at random; see raceEnabled
	}
	bareInj := obsInjection(t, nil)
	offInj := obsInjection(t, obs.Nop())
	bareInj()
	offInj()
	base = testing.AllocsPerRun(50, bareInj)
	monitorOff = testing.AllocsPerRun(50, offInj)
	if monitorOff != base {
		t.Fatalf("monitor-off telemetry changed allocations per injection: %v -> %v", base, monitorOff)
	}
}

// obsInjection prepares a CP campaign in an environment with the given
// telemetry and returns a closure running its first planned injection.
func obsInjection(tb testing.TB, tel *obs.Telemetry) func() {
	e := quickEnv().WithObs(tel)
	pc, err := e.PrepareCampaign(workloads.CP(), workloads.Dataset{Index: 0})
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := e.RunInjection(pc.Spec, pc.Golden, pc.Prof.Store, pc.Mode, pc.Plan[0]); err != nil {
			tb.Fatal(err)
		}
	}
}
