// Package hauberk_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md for the
// experiment index). Run all of them with:
//
//	go test -bench=. -benchmem
//
// Figures are emitted through b.Log (visible with -v) and the headline
// numbers through b.ReportMetric, so CI trends catch regressions in the
// reproduced results, not just in wall-clock speed. The simulator's own
// engine benchmark (BenchmarkBaselineKernels, BENCH_perf.json) lives with
// the engine and its test-only oracles in internal/gpu.
package hauberk_test

import (
	"context"
	"encoding/json"
	"os"
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

// BenchmarkFig01_Sensitivity regenerates Figure 1.
func BenchmarkFig01_Sensitivity(b *testing.B) {
	e := quickEnv()
	for i := 0; i < b.N; i++ {
		tbl, err := harness.Fig01(e)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + tbl.Render())
	}
}

// BenchmarkFig02_MemoryFootprint regenerates Figure 2.
func BenchmarkFig02_MemoryFootprint(b *testing.B) {
	e := quickEnv()
	for i := 0; i < b.N; i++ {
		tbl, err := harness.Fig02(e)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + tbl.Render())
	}
}

// BenchmarkFig03_GraphicsFaults regenerates Figure 3.
func BenchmarkFig03_GraphicsFaults(b *testing.B) {
	e := quickEnv()
	for i := 0; i < b.N; i++ {
		tbl, err := harness.Fig03(e)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + tbl.Render())
	}
}

// BenchmarkFig04_LoopTimeFraction regenerates Figure 4 and reports the
// average loop share (paper: 87%).
func BenchmarkFig04_LoopTimeFraction(b *testing.B) {
	e := quickEnv()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for _, spec := range workloads.HPC() {
			g, err := e.Golden(spec, workloads.Dataset{Index: 0})
			if err != nil {
				b.Fatal(err)
			}
			sum += 100 * g.Result.LoopCycles / g.Result.Cycles
		}
		b.ReportMetric(sum/7, "avg-loop-%")
	}
}

// BenchmarkFig10_ValueDistributions regenerates Figure 10 on MRI-Q and
// reports the share of variables with a >50% single-decade peak.
func BenchmarkFig10_ValueDistributions(b *testing.B) {
	e := quickEnv()
	for i := 0; i < b.N; i++ {
		vt, err := e.TraceValues(workloads.MRIQ(), workloads.Dataset{Index: 0})
		if err != nil {
			b.Fatal(err)
		}
		peaked, counted := 0, 0
		for _, h := range vt.Hists {
			if h.Total == 0 {
				continue
			}
			counted++
			if h.Peak() > 0.5 {
				peaked++
			}
		}
		b.ReportMetric(100*float64(peaked)/float64(counted), "sharp-peak-vars-%")
	}
}

// BenchmarkFig13_PerfOverhead regenerates Figure 13 per program and
// reports each variant's overhead as a metric (paper: Hauberk avg 15.3%).
func BenchmarkFig13_PerfOverhead(b *testing.B) {
	e := quickEnv()
	for _, spec := range workloads.HPC() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			prof, err := e.Profile(spec, []workloads.Dataset{{Index: 0}})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				row, err := e.MeasurePerf(spec, workloads.Dataset{Index: 0}, prof.Store)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(row.Overheads[harness.Hauberk], "hauberk-overhead-%")
				b.ReportMetric(row.Overheads[harness.RNaive], "rnaive-overhead-%")
				b.ReportMetric(row.Overheads[harness.HauberkNL], "hauberk-nl-overhead-%")
				b.ReportMetric(row.Overheads[harness.HauberkL], "hauberk-l-overhead-%")
			}
		})
	}
}

// BenchmarkFig14_Coverage regenerates Figure 14 per program and reports
// detection coverage (paper: 86.8% average).
func BenchmarkFig14_Coverage(b *testing.B) {
	e := quickEnv()
	for _, spec := range workloads.HPC() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			pc, err := e.PrepareCampaign(spec, workloads.Dataset{Index: 0})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				cr, err := e.RunPrepared(context.Background(), pc, harness.CampaignOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*cr.All.Coverage(), "coverage-%")
				b.ReportMetric(100*cr.All.Frac(harness.OutcomeUndetected), "undetected-%")
				b.ReportMetric(float64(len(pc.Plan)), "injections")
			}
		})
	}
}

// BenchmarkFig15_BitFlipMagnitude regenerates Figure 15 and reports the
// fraction of >1e15 value changes for the highest bit count.
func BenchmarkFig15_BitFlipMagnitude(b *testing.B) {
	e := quickEnv()
	bits := e.Scale.BitCounts
	for i := 0; i < b.N; i++ {
		res := e.Fig15(bits)
		// Middle band (1e-3..1e3 originals), highest bit count, ">1e15"
		// bucket: the paper's headline trend.
		frac := res[2][len(bits)-1][8]
		b.ReportMetric(100*frac, "over-1e15-%")
	}
}

// BenchmarkFig16_FalsePositives regenerates Figure 16's alpha=1 curves and
// reports the final false-positive ratio per program.
func BenchmarkFig16_FalsePositives(b *testing.B) {
	e := quickEnv()
	for _, name := range []string{"CP", "MRI-FHD", "PNS", "TPACF"} {
		name := name
		b.Run(name, func(b *testing.B) {
			spec := workloads.ByName(name)
			for i := 0; i < b.N; i++ {
				c, err := e.FalsePositiveStudy(spec, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*c.Ratio[len(c.Ratio)-1], "final-fp-%")
				b.ReportMetric(100*c.Ratio[0], "initial-fp-%")
			}
		})
	}
}

// BenchmarkFig16_AlphaSweep regenerates the MRI-FHD alpha sweep of
// Figure 16 (right).
func BenchmarkFig16_AlphaSweep(b *testing.B) {
	e := quickEnv()
	for _, alpha := range []float64{1, 2, 10, 100} {
		alpha := alpha
		b.Run(alphaName(alpha), func(b *testing.B) {
			spec := workloads.ByName("MRI-FHD")
			for i := 0; i < b.N; i++ {
				c, err := e.FalsePositiveStudy(spec, alpha)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*c.Ratio[len(c.Ratio)-1], "final-fp-%")
			}
		})
	}
}

func alphaName(a float64) string {
	switch a {
	case 1:
		return "alpha1"
	case 2:
		return "alpha2"
	case 10:
		return "alpha10"
	default:
		return "alpha100"
	}
}

// BenchmarkAlphaCoverage regenerates the Section IX.C coverage-vs-alpha
// analysis on MRI-FHD.
func BenchmarkAlphaCoverage(b *testing.B) {
	e := quickEnv()
	for i := 0; i < b.N; i++ {
		rows, err := e.AlphaCoverage(workloads.ByName("MRI-FHD"), []float64{1, 1000, 10000, 100000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].Coverage, "coverage-alpha1-%")
		b.ReportMetric(100*rows[len(rows)-1].Coverage, "coverage-alpha1e5-%")
	}
}

// BenchmarkInstrumentationTime regenerates the Section IX.D measurement.
func BenchmarkInstrumentationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.MeasureInstrumentation(workloads.HPC())
		var total float64
		for _, it := range rows {
			total += it.Total.Seconds()
		}
		b.ReportMetric(total/float64(len(rows))*1000, "avg-instr-ms")
	}
}

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

// TestWriteObsBenchJSON measures the instrumented-vs-nop hook path and
// writes the comparison to the file named by BENCH_OBS_JSON (skipped when
// the variable is unset):
//
//	BENCH_OBS_JSON=BENCH_obs.json go test -run TestWriteObsBenchJSON .
func TestWriteObsBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_OBS_JSON")
	if path == "" {
		t.Skip("set BENCH_OBS_JSON=<path> to measure and record the telemetry overhead")
	}
	measure := func(tel *obs.Telemetry) testing.BenchmarkResult {
		launch := obsHookLaunch(t, tel)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				launch()
			}
		})
	}
	nop := measure(obs.Nop())
	enabled := measure(obs.New(nil))
	report := struct {
		Benchmark       string  `json:"benchmark"`
		NopNsPerOp      int64   `json:"nop_ns_per_op"`
		EnabledNsPerOp  int64   `json:"enabled_ns_per_op"`
		NopAllocsPerOp  int64   `json:"nop_allocs_per_op"`
		EnabledAllocsOp int64   `json:"enabled_allocs_per_op"`
		OverheadPercent float64 `json:"overhead_percent"`
	}{
		Benchmark:       "instrumented CP launch, nop vs enabled telemetry",
		NopNsPerOp:      nop.NsPerOp(),
		EnabledNsPerOp:  enabled.NsPerOp(),
		NopAllocsPerOp:  nop.AllocsPerOp(),
		EnabledAllocsOp: enabled.AllocsPerOp(),
		OverheadPercent: (float64(enabled.NsPerOp())/float64(nop.NsPerOp()) - 1) * 100,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: nop %d ns/op, enabled %d ns/op (%.1f%% overhead)",
		path, report.NopNsPerOp, report.EnabledNsPerOp, report.OverheadPercent)
}

// BenchmarkRecoveryCampaign drives injections through the full Figure 11
// guardian loop (detect -> re-execute -> diagnose -> recover) and reports
// how many faults the recovery engine fixed.
func BenchmarkRecoveryCampaign(b *testing.B) {
	e := quickEnv()
	e.Scale.MaxSites = 8
	e.Scale.MasksPerSite = 6
	spec := workloads.CP()
	ds := workloads.Dataset{Index: 0}
	golden, err := e.Golden(spec, ds)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := e.Profile(spec, []workloads.Dataset{ds})
	if err != nil {
		b.Fatal(err)
	}
	plan := e.PlanCampaign(spec, prof, []int{1, 6})
	for i := 0; i < b.N; i++ {
		stats, err := e.RunRecoveryCampaign(spec, golden, prof.Store, plan)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(stats.TransientFixed), "transient-recovered")
		b.ReportMetric(float64(stats.Reexecutions), "re-executions")
		b.ReportMetric(float64(stats.FinalCorrect), "final-correct")
	}
}
