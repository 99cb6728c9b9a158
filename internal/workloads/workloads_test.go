package workloads

import (
	"slices"
	"testing"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
)

// runBaseline sets up and launches a program's baseline kernel.
func runBaseline(t *testing.T, spec *Spec, ds Dataset) (*gpu.Result, *Instance, []uint32) {
	t.Helper()
	d := gpu.New(gpu.DefaultConfig())
	inst := spec.Setup(d, ds)
	res, err := d.Launch(spec.Build(), gpu.LaunchSpec{
		Grid: inst.Grid, Block: inst.Block, Args: inst.Args,
	})
	if err != nil {
		t.Fatalf("%s baseline launch: %v", spec.Name, err)
	}
	return res, inst, inst.ReadOutput()
}

func TestAllProgramsValidateAndRun(t *testing.T) {
	all := append(append(HPC(), Graphics()...), CPURef())
	for _, spec := range all {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			k := spec.Build()
			if err := kir.Validate(k); err != nil {
				t.Fatalf("kernel invalid: %v", err)
			}
			res, _, out := runBaseline(t, spec, Dataset{Index: 0})
			if res.Cycles <= 0 {
				t.Fatalf("no cycles accounted")
			}
			if len(out) == 0 {
				t.Fatalf("empty output")
			}
			nonzero := 0
			for _, w := range out {
				if w != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Fatalf("output all zeros — kernel did no observable work")
			}
			// Determinism: same dataset, fresh device, identical output.
			_, _, out2 := runBaseline(t, spec, Dataset{Index: 0})
			for i := range out {
				if out[i] != out2[i] {
					t.Fatalf("nondeterministic output at %d: %#x vs %#x", i, out[i], out2[i])
				}
			}
			if !spec.Requirement.Check(out, out2) {
				t.Fatalf("golden output does not satisfy its own requirement")
			}
		})
	}
}

func TestFTInstrumentedMatchesBaselineAndRaisesNoAlarms(t *testing.T) {
	for _, spec := range HPC() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			_, _, golden := runBaseline(t, spec, Dataset{Index: 0})

			// Profile value ranges first, as the framework's flow demands.
			store := profileProgram(t, spec, []Dataset{{Index: 0}})

			ft, err := translate.Instrument(spec.Build(), translate.NewOptions(translate.ModeFT))
			if err != nil {
				t.Fatalf("instrument FT: %v", err)
			}
			d := gpu.New(gpu.DefaultConfig())
			inst := spec.Setup(d, Dataset{Index: 0})
			cb := hrt.NewControlBlock(ft.Detectors, store)
			rt := hrt.NewFT(cb)
			res, err := d.Launch(ft.Kernel, gpu.LaunchSpec{
				Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt,
			})
			if err != nil {
				t.Fatalf("FT launch: %v", err)
			}
			out := inst.ReadOutput()
			for i := range golden {
				if out[i] != golden[i] {
					t.Fatalf("FT instrumentation changed output at %d", i)
				}
			}
			if cb.SDC() {
				t.Fatalf("fault-free FT run raised alarms: %v", cb.Alarms())
			}
			if res.Cycles <= 0 {
				t.Fatalf("no cycles")
			}
		})
	}
}

// profileProgram runs the profiler binary over the given datasets and
// returns the learned range store.
func profileProgram(t *testing.T, spec *Spec, train []Dataset) *ranges.Store {
	t.Helper()
	prof, err := translate.Instrument(spec.Build(), translate.NewOptions(translate.ModeProfiler))
	if err != nil {
		t.Fatalf("instrument profiler: %v", err)
	}
	var acc *hrt.Runtime
	for _, ds := range train {
		d := gpu.New(gpu.DefaultConfig())
		inst := spec.Setup(d, ds)
		cb := hrt.NewControlBlock(prof.Detectors, nil)
		rt := hrt.NewProfiler(cb, len(prof.Sites))
		if _, err := d.Launch(prof.Kernel, gpu.LaunchSpec{
			Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt,
		}); err != nil {
			t.Fatalf("profiler launch: %v", err)
		}
		if acc == nil {
			acc = rt
		} else {
			rt.MergeProfiles(acc)
		}
	}
	store := ranges.NewStore()
	acc.FinishProfiling(store)
	return store
}

func TestLoopTimeFractions(t *testing.T) {
	// Observation 4: loops form >98% of GPU time in 5 of 7 programs and
	// ~87% on average; RPES is the outlier whose non-loop code dominates.
	fractions := map[string]float64{}
	total := 0.0
	for _, spec := range HPC() {
		res, _, _ := runBaseline(t, spec, Dataset{Index: 0})
		frac := res.LoopCycles / res.Cycles
		fractions[spec.Name] = frac
		total += frac
	}
	over98 := 0
	for name, f := range fractions {
		t.Logf("%-8s loop fraction %.1f%%", name, 100*f)
		if f > 0.98 {
			over98++
		}
		if name == "RPES" && f > 0.5 {
			t.Errorf("RPES loop fraction %.1f%%, want the minority of time", 100*f)
		}
	}
	if over98 < 4 {
		t.Errorf("only %d programs over 98%% loop time, want >= 4 (paper: 5)", over98)
	}
	if avg := total / 7; avg < 0.75 || avg > 0.95 {
		t.Errorf("average loop fraction %.1f%%, want near the paper's 87%%", 100*avg)
	}
}

// TestRequirementChecksAllocateNothing: a campaign checks every
// injection's output against the requirement in place, through
// OutputView, so neither the view nor any program's check may allocate.
func TestRequirementChecksAllocateNothing(t *testing.T) {
	for _, spec := range append(append(HPC(), Graphics()...), CPURef()) {
		_, inst, golden := runBaseline(t, spec, Dataset{Index: 0})
		if !slices.Equal(inst.OutputView(), golden) {
			t.Fatalf("%s: the output view differs from ReadOutput", spec.Name)
		}
		if !spec.Requirement.Check(golden, inst.OutputView()) {
			t.Errorf("%s: the golden output fails its own requirement", spec.Name)
		}
		if n := testing.AllocsPerRun(10, func() { spec.Requirement.Check(golden, inst.OutputView()) }); n != 0 {
			t.Errorf("%s: checking the output allocates %.0f times, want 0", spec.Name, n)
		}
	}
}
