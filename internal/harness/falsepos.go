package harness

import (
	"context"
	"fmt"
	"slices"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
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

// FalsePositiveStudy reproduces Figure 16's methodology, one curve per
// alpha: of the program's datasets, all but two are candidate training
// sets and two are held out for evaluation; detectors trained on the
// first N sets are evaluated on the held-out pair, at each checkpoint N;
// the split is re-drawn Scale.Fig16Repeats times and ratios averaged.
//
// An evaluation is a clean FT launch, and with no injector its hooks
// return nothing but Probe's own input: the kernel computes the same
// values, and makes the same detector calls, whatever the range store.
// So the study profiles each dataset it trains on once, records the
// detector calls of each dataset it tests on once (collectFP), and
// replays a test dataset's calls into the FT runtime over each store it
// is evaluated against; the alphas share those launches.
func (e *Env) FalsePositiveStudy(spec *workloads.Spec, alphas ...float64) ([]*FPCurve, error) {
	perms := e.fpPerms(spec, alphas)
	data, err := e.collectFP(spec, perms)
	if err != nil {
		return nil, err
	}
	checkpoints := e.Scale.Fig16Checkpoints
	curves := make([]*FPCurve, len(alphas))
	for ai, alpha := range alphas {
		curves[ai] = &FPCurve{Program: spec.Name, Alpha: alpha, Checkpoints: checkpoints, Ratio: make([]float64, len(checkpoints))}
		for ci, n := range checkpoints {
			alarms := 0
			for _, perm := range perms[ai] {
				store := data.store(perm[:min(n, len(perm)-2)], alpha)
				for _, ti := range perm[len(perm)-2:] {
					cb := hrt.NewControlBlock(data.ft.Detectors, store)
					data.logs[ti].replay(hrt.NewFT(cb))
					if cb.SDC() {
						alarms++
					}
				}
			}
			// Each order holds out two datasets.
			curves[ai].Ratio[ci] = float64(alarms) / float64(max(1, 2*len(perms[ai])))
		}
	}
	return curves, nil
}

// fpPerms draws Scale.Fig16Repeats orders of the program's datasets per
// alpha: the last two of an order are held out, and the rest are the
// training sets in training order.
func (e *Env) fpPerms(spec *workloads.Spec, alphas []float64) [][][]int {
	out := make([][][]int, len(alphas))
	for ai, alpha := range alphas {
		for rep := 0; rep < e.Scale.Fig16Repeats; rep++ {
			out[ai] = append(out[ai], stats.NewRng("fig16", spec.Name, alpha, rep).Perm(spec.NumDatasets))
		}
	}
	return out
}

// fpData is what the study launches, once per dataset, indexed by dataset:
// the profiler run of each dataset an order trains on, and the clean FT
// detector calls of each dataset an order holds out. It lives for one
// study.
type fpData struct {
	prof, ft *translate.Result
	runs     []*hrt.Runtime
	logs     []*callLog
}

// collectFP runs the launches the orders need through the dispatcher.
func (e *Env) collectFP(spec *workloads.Spec, perms [][][]int) (*fpData, error) {
	prof, err := e.Instrument(spec, translate.NewOptions(translate.ModeProfiler))
	if err != nil {
		return nil, err
	}
	ft, err := e.Instrument(spec, translate.NewOptions(translate.ModeFT))
	if err != nil {
		return nil, err
	}
	data := &fpData{prof: prof, ft: ft, runs: make([]*hrt.Runtime, spec.NumDatasets), logs: make([]*callLog, spec.NumDatasets)}
	trained, tested := make([]bool, spec.NumDatasets), make([]bool, spec.NumDatasets)
	for _, perm := range slices.Concat(perms...) {
		for _, n := range e.Scale.Fig16Checkpoints {
			for _, i := range perm[:min(n, len(perm)-2)] {
				trained[i] = true
			}
		}
		for _, i := range perm[len(perm)-2:] {
			tested[i] = true
		}
	}
	return data, e.dispatch(context.Background(), spec.NumDatasets, 1, func(_ context.Context, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			ds := workloads.Dataset{Index: i}
			if trained[i] {
				rt, err := e.profileRun(spec, prof, ds)
				if err != nil {
					return err
				}
				data.runs[i] = rt
			}
			if tested[i] {
				data.logs[i] = &callLog{}
				if _, _, err := e.launch(spec, ds, ft.Kernel, data.logs[i], 0); err != nil {
					return fmt.Errorf("harness: fig16 eval %s/%d: %w", spec.Name, i, err)
				}
			}
		}
		return nil
	})
}

// store learns the range store of the given training datasets and widens
// it by alpha.
func (d *fpData) store(train []int, alpha float64) *ranges.Store {
	runs := make([]*hrt.Runtime, len(train))
	for i, ds := range train {
		runs[i] = d.runs[ds]
	}
	store := mergeProfiles(d.prof, runs).Store
	store.SetAlpha(alpha)
	return store
}

// callLog records the detector calls of one clean FT launch, in order,
// each as the alarm it raises when its check fails: a RangeCheck (Kind
// DetectRange), an EqualCheck (DetectIter) or a SetSDC (any other kind).
type callLog struct {
	gpu.NopHooks
	calls []hrt.Alarm
}

func (l *callLog) RangeCheck(_ gpu.ThreadCtx, det int, val float64) {
	l.calls = append(l.calls, hrt.Alarm{Detector: det, Kind: kir.DetectRange, Value: val})
}

func (l *callLog) EqualCheck(_ gpu.ThreadCtx, det int, count, expected int32) {
	l.calls = append(l.calls, hrt.Alarm{Detector: det, Kind: kir.DetectIter, Count: count, Expected: expected})
}

func (l *callLog) SetSDC(_ gpu.ThreadCtx, det int, kind kir.DetectKind) {
	l.calls = append(l.calls, hrt.Alarm{Detector: det, Kind: kind})
}

// replay makes the logged calls on rt, as the launch made them on its
// hooks.
func (l *callLog) replay(rt *hrt.Runtime) {
	var tc gpu.ThreadCtx
	for _, c := range l.calls {
		switch c.Kind {
		case kir.DetectRange:
			rt.RangeCheck(tc, c.Detector, c.Value)
		case kir.DetectIter:
			rt.EqualCheck(tc, c.Detector, c.Count, c.Expected)
		default:
			rt.SetSDC(tc, c.Detector, c.Kind)
		}
	}
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
