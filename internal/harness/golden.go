package harness

import (
	"fmt"
	"sync"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
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
	d := e.NewDevice()
	inst := spec.Setup(d, ds)
	res, err := d.Launch(spec.Build(), gpu.LaunchSpec{
		Grid: inst.Grid, Block: inst.Block, Args: inst.Args,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: golden run of %s failed: %w", spec.Name, err)
	}
	return &GoldenRun{Spec: spec, Dataset: ds, Output: inst.ReadOutput(), Result: res}, nil
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
	var acc *hrt.Runtime
	for _, ds := range train {
		d := e.NewDevice()
		inst := spec.Setup(d, ds)
		cb := hrt.NewControlBlock(prof.Detectors, nil)
		rt := hrt.NewProfiler(cb, len(prof.Sites))
		if _, err := d.Launch(prof.Kernel, gpu.LaunchSpec{
			Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt,
		}); err != nil {
			return nil, fmt.Errorf("harness: profiler run of %s (dataset %d): %w", spec.Name, ds.Index, err)
		}
		if acc == nil {
			acc = rt
		} else {
			rt.MergeProfiles(acc)
			for i, c := range rt.ExecCounts {
				acc.ExecCounts[i] += c
			}
		}
	}
	store := ranges.NewStore()
	acc.FinishProfiling(store)
	counts := append([]int64(nil), acc.ExecCounts...)
	if len(train) > 1 {
		// Average the per-site counts over training runs so they estimate
		// one execution.
		for i := range counts {
			counts[i] /= int64(len(train))
		}
	}
	return &ProfileResult{Store: store, ExecCounts: counts, Sites: prof.Sites, Detectors: prof.Detectors}, nil
}
