package harness

import (
	"fmt"
	"math"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/detect"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
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

	base, err := e.launchPlain(spec.Build(), spec, ds)
	if err != nil {
		return nil, fmt.Errorf("harness: %s baseline: %w", spec.Name, err)
	}
	row.Baseline = base.Cycles

	// R-Naive: the same kernel executes twice on two copies of the data;
	// kernel time doubles (the CPU-side output compare is not GPU time).
	second, err := e.launchPlain(spec.Build(), spec, ds)
	if err != nil {
		return nil, fmt.Errorf("harness: %s r-naive second run: %w", spec.Name, err)
	}
	row.Overheads[RNaive] = pct(base.Cycles+second.Cycles, base.Cycles)

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
		cycles, counts, err := e.launchFT(tr, spec, ds, store)
		if err != nil {
			return nil, fmt.Errorf("harness: %s %s: %w", spec.Name, v, err)
		}
		row.Overheads[v] = pct(cycles, base.Cycles)
		row.HookCounts[v] = counts
	}
	return row, nil
}

func pct(cycles, base float64) float64 { return (cycles/base - 1) * 100 }

func (e *Env) launchPlain(k *kir.Kernel, spec *workloads.Spec, ds workloads.Dataset) (*gpu.Result, error) {
	d := e.NewDevice()
	inst := spec.Setup(d, ds)
	return d.Launch(k, gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args})
}

// launchFT runs one instrumented launch with the hook-counting wrapper,
// so the overhead figures can attribute cost to intrinsic activity. The
// counts are published to e.Obs's metrics registry when telemetry is on.
func (e *Env) launchFT(tr *translate.Result, spec *workloads.Spec, ds workloads.Dataset, store *ranges.Store) (float64, gpu.HookCounts, error) {
	d := e.NewDevice()
	inst := spec.Setup(d, ds)
	cb := hrt.NewControlBlock(tr.Detectors, store)
	counting := gpu.NewCountingHooks(hrt.NewFT(cb))
	res, err := d.Launch(tr.Kernel, gpu.LaunchSpec{
		Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: counting,
	})
	if err != nil {
		return 0, gpu.HookCounts{}, err
	}
	counting.Publish(e.Obs, tr.Kernel.Name)
	return res.Cycles, counting.Counts(), nil
}

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
