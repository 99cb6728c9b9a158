package gpu_test

import (
	"testing"

	"hauberk/internal/gpu"
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
