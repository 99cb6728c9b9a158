package harness

import (
	"context"
	"fmt"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/stats"
	"hauberk/internal/workloads"
)

// FPCurve is one line of Figure 16: the false-positive ratio of a
// program's loop detectors as a function of the number of training
// datasets, for one alpha.
type FPCurve struct {
	Program     string
	Alpha       float64
	Checkpoints []int
	Ratio       []float64 // false-positive ratio at each checkpoint
}

// FalsePositiveStudy reproduces Figure 16's methodology: of the program's
// datasets, all but two are candidate training sets and two are held out
// for evaluation; detectors trained on the first N sets are evaluated on
// the held-out pair, at each checkpoint N; the split is re-drawn
// Scale.Fig16Repeats times and ratios averaged.
func (e *Env) FalsePositiveStudy(spec *workloads.Spec, alpha float64) (*FPCurve, error) {
	checkpoints := e.Scale.Fig16Checkpoints
	curve := &FPCurve{
		Program:     spec.Name,
		Alpha:       alpha,
		Checkpoints: checkpoints,
		Ratio:       make([]float64, len(checkpoints)),
	}
	prof, err := e.Instrument(spec, translate.NewOptions(translate.ModeProfiler))
	if err != nil {
		return nil, err
	}
	ft, err := e.Instrument(spec, translate.NewOptions(translate.ModeFT))
	if err != nil {
		return nil, err
	}

	total := make([]int, len(checkpoints))
	alarms := make([]int, len(checkpoints))
	for rep := 0; rep < e.Scale.Fig16Repeats; rep++ {
		rng := stats.NewRng("fig16", spec.Name, alpha, rep)
		perm := rng.Perm(spec.NumDatasets)
		test := perm[len(perm)-2:]
		train := perm[:len(perm)-2]

		acc := hrt.NewProfiler(hrt.NewControlBlock(prof.Detectors, nil), len(prof.Sites))
		next := 0
		for ci, n := range checkpoints {
			if n > len(train) {
				n = len(train)
			}
			// Incrementally ingest training sets up to the checkpoint.
			for ; next < n; next++ {
				d := e.NewDevice()
				inst := spec.Setup(d, workloads.Dataset{Index: train[next]})
				rt := hrt.NewProfiler(hrt.NewControlBlock(prof.Detectors, nil), len(prof.Sites))
				if _, err := d.Launch(prof.Kernel, gpu.LaunchSpec{
					Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt,
				}); err != nil {
					return nil, fmt.Errorf("harness: fig16 profile %s/%d: %w", spec.Name, train[next], err)
				}
				rt.MergeProfiles(acc)
			}
			store := ranges.NewStore()
			acc.FinishProfiling(store)
			store.SetAlpha(alpha)

			for _, ti := range test {
				d := e.NewDevice()
				inst := spec.Setup(d, workloads.Dataset{Index: ti})
				cb := hrt.NewControlBlock(ft.Detectors, store)
				if _, err := d.Launch(ft.Kernel, gpu.LaunchSpec{
					Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: hrt.NewFT(cb),
				}); err != nil {
					return nil, fmt.Errorf("harness: fig16 eval %s/%d: %w", spec.Name, ti, err)
				}
				total[ci]++
				if cb.SDC() {
					alarms[ci]++
				}
			}
		}
	}
	for i := range checkpoints {
		if total[i] > 0 {
			curve.Ratio[i] = float64(alarms[i]) / float64(total[i])
		}
	}
	return curve, nil
}

// AlphaCoverageRow is one point of the Section IX.C alpha/coverage
// analysis: detection coverage of the injection campaign when the range
// bounds are widened by alpha.
type AlphaCoverageRow struct {
	Alpha    float64
	Coverage float64
	Tally    Tally
}

// AlphaCoverage sweeps alpha on one program's coverage campaign
// (single-bit faults, as in the paper's MRI-FHD analysis).
func (e *Env) AlphaCoverage(spec *workloads.Spec, alphas []float64) ([]AlphaCoverageRow, error) {
	env := e.Clone()
	env.Scale.BitCounts = []int{1}
	pc, err := env.PrepareCampaign(spec, workloads.Dataset{Index: 0})
	if err != nil {
		return nil, err
	}
	var out []AlphaCoverageRow
	for _, a := range alphas {
		// The same campaign against a copy of the range store widened by a.
		run, prof := *pc, *pc.Prof
		prof.Store = pc.Prof.Store.Clone()
		prof.Store.SetAlpha(a)
		run.Prof = &prof
		cr, err := env.RunPrepared(context.TODO(), &run, CampaignOptions{})
		if err != nil {
			return nil, err
		}
		out = append(out, AlphaCoverageRow{Alpha: a, Coverage: cr.All.Coverage(), Tally: cr.All})
	}
	return out, nil
}
