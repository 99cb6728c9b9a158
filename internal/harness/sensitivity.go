package harness

import (
	"context"

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

// Sensitivity runs the Figure 1 study for a program group: one FI-mode
// campaign of single-bit errors (SEU emulation) per program, tallied per
// data class. cpuMode runs the programs on a page-protected scalar device,
// reproducing the CPU-program profile (low SDC, high crash) from the same
// injections.
func (e *Env) Sensitivity(group string, specs []*workloads.Spec, cpuMode bool) (*SensitivityResult, error) {
	out := &SensitivityResult{Group: group, ByClass: make(map[kir.DataClass]*Tally)}
	env := e.Clone()
	env.Scale.BitCounts = []int{1}
	if cpuMode {
		env.Config = e.cpuConfig()
	}
	for _, spec := range specs {
		pc, err := env.PrepareCampaign(spec, workloads.Dataset{Index: 0})
		if err != nil {
			return nil, err
		}
		pc.Mode = translate.ModeFI
		cr, err := env.RunPrepared(context.TODO(), pc, CampaignOptions{})
		if err != nil {
			return nil, err
		}
		for class, tal := range cr.ByClass {
			t := out.ByClass[class]
			if t == nil {
				t = &Tally{}
				out.ByClass[class] = t
			}
			t.Merge(*tal)
		}
		out.Runs += cr.All.Total()
	}
	return out, nil
}
