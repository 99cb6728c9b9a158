package gpu_test

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"hauberk/internal/gpu"
	"hauberk/internal/harness"
	"hauberk/internal/workloads"
)

// baselineLaunch stages one workload on a fresh device and returns a
// closure that re-launches it on engine e, plus the (engine-independent)
// simulated cycle count. Device construction and input staging stay
// outside the measured region so the benchmark isolates interpreter
// throughput.
func baselineLaunch(tb testing.TB, spec *workloads.Spec, e gpu.Engine) (func(), float64) {
	d := gpu.New(gpu.DefaultConfig())
	k := spec.Build()
	inst := spec.Setup(d, workloads.Dataset{Index: 0})
	ls := gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args}
	// One warm-up launch: compiles the bytecode program (later launches
	// hit the program cache, the production steady state).
	res, err := d.LaunchOn(e, k, ls)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := d.LaunchOn(e, k, ls); err != nil {
			tb.Fatal(err)
		}
	}, res.Cycles
}

// BenchmarkBaselineKernels measures raw simulator throughput per program
// and per execution engine: the fused bytecode every production launch
// runs, the same engine without superinstruction fusion, and the
// tree-walking oracle. It is the substrate cost on which every other
// experiment stands. Compare engines with
//
//	go test -run '^$' -bench BenchmarkBaselineKernels -v ./internal/gpu
func BenchmarkBaselineKernels(b *testing.B) {
	for _, e := range gpu.Engines {
		b.Run(e.String(), func(b *testing.B) {
			for _, spec := range workloads.HPC() {
				b.Run(spec.Name, func(b *testing.B) {
					launch, cycles := baselineLaunch(b, spec, e)
					b.ReportMetric(cycles, "gpu-cycles")
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						launch()
					}
				})
			}
		})
	}
}

// TestWritePerfBenchJSON measures the execution engines on every HPC
// workload and writes the comparison to the file named by BENCH_PERF_JSON
// (skipped when the variable is unset; a relative path is relative to this
// package's directory):
//
//	BENCH_PERF_JSON=$PWD/BENCH_perf.json go test -run TestWritePerfBenchJSON ./internal/gpu
//
// For each workload it records wall-clock ns/op, simulated GPU cycles,
// and simulated-cycles-per-second of host time for the tree walker and the
// bytecode engine with and without fusion; the headline numbers are the
// geometric-mean speedups of the bytecode engine over the tree walker and
// of fused over unfused bytecode.
func TestWritePerfBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_PERF_JSON")
	if path == "" {
		t.Skip("set BENCH_PERF_JSON=<path> to measure and record the engine comparison")
	}
	// Each engine/workload pair is sampled several times and the fastest
	// sample wins: ns/op on a shared host is contaminated by one-sided
	// scheduling noise (other tenants can only ever slow a run down, never
	// speed it up), so min-of-N is the robust estimator and a single noisy
	// sample cannot fabricate a phantom regression in the committed
	// baseline.
	const perfSamples = 3
	measure := func(spec *workloads.Spec, e gpu.Engine) (testing.BenchmarkResult, float64) {
		launch, cycles := baselineLaunch(t, spec, e)
		var best testing.BenchmarkResult
		for i := 0; i < perfSamples; i++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					launch()
				}
			})
			if i == 0 || res.NsPerOp() < best.NsPerOp() {
				best = res
			}
		}
		return best, cycles
	}
	var rows []harness.BenchWorkload
	logSum, logSumFuse := 0.0, 0.0
	for _, spec := range workloads.HPC() {
		tree, cycles := measure(spec, gpu.EngineTree)
		bc, _ := measure(spec, gpu.EngineFused)
		unf, _ := measure(spec, gpu.EngineUnfused)
		engine := func(r testing.BenchmarkResult) harness.BenchEngineStats {
			return harness.BenchEngineStats{NsPerOp: r.NsPerOp(), CyclesPerSec: cycles * 1e9 / float64(r.NsPerOp())}
		}
		unfused := engine(unf)
		row := harness.BenchWorkload{
			Program:       spec.Name,
			Cycles:        cycles,
			Tree:          engine(tree),
			Bytecode:      engine(bc),
			Unfused:       &unfused,
			Speedup:       float64(tree.NsPerOp()) / float64(bc.NsPerOp()),
			FusionSpeedup: float64(unf.NsPerOp()) / float64(bc.NsPerOp()),
		}
		logSum += math.Log(row.Speedup)
		logSumFuse += math.Log(row.FusionSpeedup)
		rows = append(rows, row)
		t.Logf("%-8s tree %d ns/op, bytecode %d ns/op (%.2fx, fusion %.2fx)",
			spec.Name, row.Tree.NsPerOp, row.Bytecode.NsPerOp, row.Speedup, row.FusionSpeedup)
	}
	report := harness.BenchReport{
		Benchmark:            "BenchmarkBaselineKernels: tree walker vs bytecode engine (fused and unfused)",
		HostCores:            runtime.NumCPU(),
		Workloads:            rows,
		GeomeanSpeedup:       math.Exp(logSum / float64(len(rows))),
		GeomeanFusionSpeedup: math.Exp(logSumFuse / float64(len(rows))),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: geomean speedup %.2fx (tree->bytecode), %.2fx (unfused->fused)",
		path, report.GeomeanSpeedup, report.GeomeanFusionSpeedup)
}
