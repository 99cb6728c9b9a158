package harness

import (
	"hauberk/internal/core/translate"
	"hauberk/internal/kir"
	"hauberk/internal/workloads"
)

// SensitivityResult aggregates Figure 1: for one program group, the
// outcome split per corrupted data class under single-bit injections into
// the uninstrumented (FI-only) binary. In this baseline setting there are
// three observable outcomes: failure (crash/hang), silent data corruption
// (requirement violated, nothing detected it), and not manifested.
type SensitivityResult struct {
	Group   string
	ByClass map[kir.DataClass]*Tally
	// Runs counts the injections performed.
	Runs int
}

// SDCRatio returns the SDC fraction for a data class.
func (s *SensitivityResult) SDCRatio(c kir.DataClass) float64 {
	t := s.ByClass[c]
	if t == nil {
		return 0
	}
	return t.Frac(OutcomeUndetected)
}

// FailureRatio returns the crash/hang fraction for a data class.
func (s *SensitivityResult) FailureRatio(c kir.DataClass) float64 {
	t := s.ByClass[c]
	if t == nil {
		return 0
	}
	return t.Frac(OutcomeFailure)
}

// Sensitivity runs the Figure 1 study for a program group. cpuMode runs
// the programs on a page-protected scalar device, reproducing the
// CPU-program profile (low SDC, high crash) from the same injections.
func (e *Env) Sensitivity(group string, specs []*workloads.Spec, cpuMode bool) (*SensitivityResult, error) {
	out := &SensitivityResult{Group: group, ByClass: make(map[kir.DataClass]*Tally)}
	cfg := e.Config
	if cpuMode {
		cfg = e.cpuConfig()
	}
	for _, spec := range specs {
		golden, err := e.goldenOn(cfg, spec, workloads.Dataset{Index: 0})
		if err != nil {
			return nil, err
		}
		prof, err := e.Profile(spec, []workloads.Dataset{{Index: 0}})
		if err != nil {
			return nil, err
		}
		// Figure 1 uses single-bit errors only (SEU emulation).
		plan := e.PlanCampaign(spec, prof, []int{1})
		for _, inj := range plan {
			r, err := e.runInjectionOn(cfg, spec, golden, nil, translate.ModeFI, inj)
			if err != nil {
				return nil, err
			}
			t := out.ByClass[inj.Class]
			if t == nil {
				t = &Tally{}
				out.ByClass[inj.Class] = t
			}
			t.Add(r.Outcome)
			out.Runs++
		}
	}
	return out, nil
}
