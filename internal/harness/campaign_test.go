package harness

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hauberk/internal/core/translate"
	"hauberk/internal/kir"
	"hauberk/internal/workloads"
)

func TestFig14CoverageShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(QuickScale())
	var all Tally
	for _, spec := range workloads.HPC() {
		pc, err := e.PrepareCampaign(spec, workloads.Dataset{Index: 0})
		if err != nil {
			t.Fatalf("%s prepare: %v", spec.Name, err)
		}
		cr, err := e.RunPrepared(context.Background(), pc, CampaignOptions{})
		if err != nil {
			t.Fatalf("%s campaign: %v", spec.Name, err)
		}
		t.Logf("%-8s n=%4d failure=%4.1f%% masked=%4.1f%% det&mask=%4.1f%% detected=%4.1f%% undetected=%4.1f%% coverage=%4.1f%% hangs=%d",
			spec.Name, cr.All.Total(),
			100*cr.All.Frac(OutcomeFailure), 100*cr.All.Frac(OutcomeMasked),
			100*cr.All.Frac(OutcomeDetectedMasked), 100*cr.All.Frac(OutcomeDetected),
			100*cr.All.Frac(OutcomeUndetected), 100*cr.All.Coverage(), cr.Hangs)
		all.Merge(cr.All)
	}
	t.Logf("TOTAL    n=%4d failure=%4.1f%% masked=%4.1f%% det&mask=%4.1f%% detected=%4.1f%% undetected=%4.1f%% coverage=%4.1f%%",
		all.Total(), 100*all.Frac(OutcomeFailure), 100*all.Frac(OutcomeMasked),
		100*all.Frac(OutcomeDetectedMasked), 100*all.Frac(OutcomeDetected),
		100*all.Frac(OutcomeUndetected), 100*all.Coverage())
	if cov := all.Coverage(); cov < 0.75 {
		t.Errorf("aggregate coverage %.1f%%, want >= 75%% (paper: 86.8%%)", 100*cov)
	}
	if det := all.Frac(OutcomeDetected) + all.Frac(OutcomeDetectedMasked); det < 0.15 {
		t.Errorf("detected fraction %.1f%%, detectors appear inert", 100*det)
	}
}

func TestFig01SensitivityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(QuickScale())
	hpc, err := e.Sensitivity("GPU HPC", workloads.HPC(), false)
	if err != nil {
		t.Fatalf("hpc sensitivity: %v", err)
	}
	gfx, err := e.Sensitivity("GPU graphics", workloads.Graphics(), false)
	if err != nil {
		t.Fatalf("graphics sensitivity: %v", err)
	}
	cpu, err := e.Sensitivity("CPU", []*workloads.Spec{workloads.CPURef()}, true)
	if err != nil {
		t.Fatalf("cpu sensitivity: %v", err)
	}
	for _, c := range []kir.DataClass{kir.ClassPointer, kir.ClassInteger, kir.ClassFloat} {
		t.Logf("HPC %-8s sdc=%5.1f%% failure=%5.1f%%  | graphics sdc=%5.1f%% | cpu sdc=%5.1f%% failure=%5.1f%%",
			c, 100*hpc.SDCRatio(c), 100*hpc.FailureRatio(c),
			100*gfx.SDCRatio(c), 100*cpu.SDCRatio(c), 100*cpu.FailureRatio(c))
	}

	// Observation 1: SDC is substantial for HPC GPU programs in every
	// data class.
	if hpc.SDCRatio(kir.ClassFloat) < 0.10 {
		t.Errorf("HPC FP SDC ratio %.1f%%, want substantial (paper: 39%%)", 100*hpc.SDCRatio(kir.ClassFloat))
	}
	// Observation 2: FP faults rarely cause failures; pointer faults do.
	if hpc.FailureRatio(kir.ClassFloat) > hpc.FailureRatio(kir.ClassPointer) {
		t.Errorf("FP failure ratio above pointer failure ratio")
	}
	// CPU programs crash rather than silently corrupt.
	if cpu.SDCRatio(kir.ClassPointer) > hpc.SDCRatio(kir.ClassPointer) {
		t.Errorf("CPU pointer SDC %.1f%% should be below GPU HPC %.1f%%",
			100*cpu.SDCRatio(kir.ClassPointer), 100*hpc.SDCRatio(kir.ClassPointer))
	}
}

// TestSensitivityEqualsSerialLoop is Figure 1's parity bar: the study runs
// through the campaign runner (workers, store, watchdog), and every row —
// GPU and CPU — must equal, tally for tally, the plain serial loop of
// RunInjection calls it used to be, on an env set up the same way.
func TestSensitivityEqualsSerialLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(QuickScale())
	for _, g := range []struct {
		name  string
		specs []*workloads.Spec
		cpu   bool
	}{
		{"GPU HPC", workloads.HPC(), false},
		{"GPU graphics", workloads.Graphics(), false},
		{"CPU programs", []*workloads.Spec{workloads.CPURef()}, true},
	} {
		got, err := e.Sensitivity(g.name, g.specs, g.cpu)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}

		env := e.Clone()
		if g.cpu {
			env.Config = e.cpuConfig()
		}
		want := make(map[kir.DataClass]*Tally)
		runs := 0
		for _, spec := range g.specs {
			golden, err := env.Golden(spec, workloads.Dataset{Index: 0})
			if err != nil {
				t.Fatal(err)
			}
			prof, err := env.Profile(spec, []workloads.Dataset{{Index: 0}})
			if err != nil {
				t.Fatal(err)
			}
			for _, inj := range env.PlanCampaign(spec, prof, []int{1}) {
				r, err := env.RunInjection(spec, golden, nil, translate.ModeFI, inj)
				if err != nil {
					t.Fatal(err)
				}
				if want[inj.Class] == nil {
					want[inj.Class] = &Tally{}
				}
				want[inj.Class].Add(r.Outcome)
				runs++
			}
		}
		if got.Runs != runs || runs == 0 {
			t.Errorf("%s: Sensitivity ran %d injections, the serial loop %d", g.name, got.Runs, runs)
		}
		if !reflect.DeepEqual(got.ByClass, want) {
			t.Errorf("%s: tallies differ:\nSensitivity %v\nserial loop %v", g.name, tallies(got.ByClass), tallies(want))
		}
	}
}

// tallies renders a by-class tally map for a failure message.
func tallies(m map[kir.DataClass]*Tally) string {
	var sb strings.Builder
	for _, c := range []kir.DataClass{kir.ClassPointer, kir.ClassInteger, kir.ClassFloat} {
		if m[c] != nil {
			fmt.Fprintf(&sb, " %s=%v", c, *m[c])
		}
	}
	return sb.String()
}
