package harness

import (
	"fmt"
	"math"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/detect"
	"hauberk/internal/gpu"
	"hauberk/internal/workloads"
)

// PerfRow is one program's row of Figure 13: kernel-time overheads of each
// variant normalized to the baseline, in percent. Missing entries (NaN)
// mean the variant cannot run the program (R-Scatter on TPACF).
type PerfRow struct {
	Program   string
	Baseline  float64 // absolute modelled cycles
	Overheads map[Variant]float64
	// HookCounts breaks the instrumented variants' overhead down by
	// intrinsic-hook activity (how many times each FT-library callback
	// fired during the measured launch), gathered with gpu.CountingHooks.
	HookCounts map[Variant]gpu.HookCounts
}

// Overhead formats one entry.
func (r *PerfRow) Overhead(v Variant) string {
	o, ok := r.Overheads[v]
	if !ok || math.IsNaN(o) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", o)
}

// MeasurePerf measures all variants of one program on dataset ds
// (Figure 13's methodology: GPU kernel time only, synchronous mode).
func (e *Env) MeasurePerf(spec *workloads.Spec, ds workloads.Dataset, store *ranges.Store) (*PerfRow, error) {
	row := &PerfRow{
		Program:    spec.Name,
		Overheads:  make(map[Variant]float64),
		HookCounts: make(map[Variant]gpu.HookCounts),
	}

	_, base, err := e.launch(spec, ds, spec.Build(), nil, 0)
	if err != nil {
		return nil, fmt.Errorf("harness: %s baseline: %w", spec.Name, err)
	}
	row.Baseline = base.Cycles

	// R-Naive: the same kernel executes twice on two copies of the data;
	// kernel time doubles (the CPU-side output compare is not GPU time).
	// Launches are deterministic, so the second run is the first again.
	row.Overheads[RNaive] = pct(2*base.Cycles, base.Cycles)

	// R-Scatter: duplicated computation inside the kernel over shadow
	// memory; refuses programs whose resources cannot double.
	if rs, err := detect.RScatter(spec.Build(), spec.SharedMemBytes); err != nil {
		row.Overheads[RScatter] = math.NaN()
	} else {
		cycles, err := e.launchRScatter(rs, spec, ds)
		if err != nil {
			return nil, fmt.Errorf("harness: %s r-scatter: %w", spec.Name, err)
		}
		row.Overheads[RScatter] = pct(cycles, base.Cycles)
	}

	// Hauberk variants.
	for _, v := range []Variant{HauberkNL, HauberkL, Hauberk} {
		opts, err := v.Options(translate.ModeFT)
		if err != nil {
			return nil, err
		}
		tr, err := e.Instrument(spec, opts)
		if err != nil {
			return nil, err
		}
		// The hook counts attribute the overhead to intrinsic activity;
		// they go to e.Obs's metrics registry when telemetry is on.
		counting := gpu.NewCountingHooks(hrt.NewFT(hrt.NewControlBlock(tr.Detectors, store)))
		_, res, err := e.launch(spec, ds, tr.Kernel, counting, 0)
		if err != nil {
			return nil, fmt.Errorf("harness: %s %s: %w", spec.Name, v, err)
		}
		counting.Publish(e.Obs, tr.Kernel.Name)
		row.Overheads[v] = pct(res.Cycles, base.Cycles)
		row.HookCounts[v] = counting.Counts()
	}
	return row, nil
}

func pct(cycles, base float64) float64 { return (cycles/base - 1) * 100 }

// launchRScatter allocates shadow copies of every pointer argument (the
// doubled memory R-Scatter needs) and launches the duplicated kernel.
func (e *Env) launchRScatter(rs *detect.RScatterResult, spec *workloads.Spec, ds workloads.Dataset) (float64, error) {
	d := e.NewDevice()
	inst := spec.Setup(d, ds)
	args := append([]gpu.Arg(nil), inst.Args...)
	for _, origIdx := range rs.ShadowOf {
		orig := inst.Args[origIdx].Buf
		if orig == nil {
			return 0, fmt.Errorf("harness: r-scatter shadow of non-buffer arg %d", origIdx)
		}
		shadow := d.Alloc(orig.Name+"_sh", orig.Elem, orig.Len)
		d.WriteWords(shadow, d.ReadWords(orig))
		args = append(args, gpu.BufArg(shadow))
	}
	res, err := d.Launch(rs.Kernel, gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: args})
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}
