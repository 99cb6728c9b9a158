package harness

import (
	"fmt"
	"sync"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/workloads"
)

// GoldenRun holds a program's reference execution on one dataset.
type GoldenRun struct {
	Spec    *workloads.Spec
	Dataset workloads.Dataset
	Output  []uint32
	Result  *gpu.Result

	// traces caches the golden traces recorded against this run, one per
	// (translate mode, range store, device config); see goldenTrace.
	traceMu sync.Mutex
	traces  map[traceKey]*traceEntry
}

// Golden executes the baseline binary and records the golden output
// (Figure 7: the profiler binary's run provides the golden output; the
// baseline binary provides baseline performance — both execute the same
// computation, so one launch serves both).
func (e *Env) Golden(spec *workloads.Spec, ds workloads.Dataset) (*GoldenRun, error) {
	inst, res, err := e.launch(spec, ds, spec.Build(), nil, 0)
	if err != nil {
		return nil, fmt.Errorf("harness: golden run of %s failed: %w", spec.Name, err)
	}
	return &GoldenRun{Spec: spec, Dataset: ds, Output: inst.ReadOutput(), Result: res}, nil
}

// launch runs kernel k on a fresh device set up with the program's dataset
// ds, under the given hooks (nil: none) and per-thread step budget (0: the
// device's own). It is the one way the harness sets up and launches a
// program; launchRScatter alone adds shadow buffers in between.
func (e *Env) launch(spec *workloads.Spec, ds workloads.Dataset, k *kir.Kernel, hooks gpu.Hooks, stepBudget int) (*workloads.Instance, *gpu.Result, error) {
	d := e.NewDevice()
	inst := spec.Setup(d, ds)
	res, err := d.Launch(k, gpu.LaunchSpec{
		Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: hooks, StepBudget: stepBudget,
	})
	return inst, res, err
}

// ProfileResult carries a profiling campaign's artifacts: the learned
// range store and the per-site execution counts used to draw injection
// instances.
type ProfileResult struct {
	Store      *ranges.Store
	ExecCounts []int64
	Sites      []translate.Site
	Detectors  []hrt.DetectorMeta
}

// Profile runs the profiler binary over the training datasets and derives
// the range store (Figure 7's profiler outputs: fault injection targets,
// golden output, value ranges).
func (e *Env) Profile(spec *workloads.Spec, train []workloads.Dataset) (*ProfileResult, error) {
	prof, err := e.Instrument(spec, translate.NewOptions(translate.ModeProfiler))
	if err != nil {
		return nil, err
	}
	runs := make([]*hrt.Runtime, len(train))
	for i, ds := range train {
		if runs[i], err = e.profileRun(spec, prof, ds); err != nil {
			return nil, err
		}
	}
	return mergeProfiles(prof, runs), nil
}

// profileRun runs the profiler binary prof on one dataset and returns its
// runtime: that run's learner samples and per-site execution counts. It is
// only ever merged from (mergeProfiles), because deriving ranges sorts a
// runtime's samples in place.
func (e *Env) profileRun(spec *workloads.Spec, prof *translate.Result, ds workloads.Dataset) (*hrt.Runtime, error) {
	rt := hrt.NewProfiler(hrt.NewControlBlock(prof.Detectors, nil), len(prof.Sites))
	if _, _, err := e.launch(spec, ds, prof.Kernel, rt, 0); err != nil {
		return nil, fmt.Errorf("harness: profiler run of %s (dataset %d): %w", spec.Name, ds.Index, err)
	}
	return rt, nil
}

// mergeProfiles derives one profile from per-dataset profiler runs: the
// range store learned from all their samples, and their per-site
// execution counts averaged so they estimate one execution.
func mergeProfiles(prof *translate.Result, runs []*hrt.Runtime) *ProfileResult {
	acc := hrt.NewProfiler(hrt.NewControlBlock(prof.Detectors, nil), len(prof.Sites))
	for _, rt := range runs {
		rt.MergeProfiles(acc)
		for i, c := range rt.ExecCounts {
			acc.ExecCounts[i] += c
		}
	}
	store := ranges.NewStore()
	acc.FinishProfiling(store)
	for i := range acc.ExecCounts {
		acc.ExecCounts[i] /= int64(max(1, len(runs)))
	}
	return &ProfileResult{Store: store, ExecCounts: acc.ExecCounts, Sites: prof.Sites, Detectors: prof.Detectors}
}
