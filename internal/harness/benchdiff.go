package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// This file implements the benchmark regression gate: it loads two
// BENCH_perf.json reports (the committed baseline and a fresh run) and
// compares them engine by engine, so CI can fail a change that slows the
// execution engines down. Two comparison modes exist because the two
// reports do not always come from the same machine: the default wall-clock
// mode compares ns/op directly (same host, e.g. a CI runner diffing against
// its own previous run), while ratios-only mode compares only the
// machine-independent speedup ratios (tree→bytecode, unfused→fused), which
// is the honest comparison when the baseline was recorded on different
// hardware.

// BenchEngineStats is one engine's measurement for one workload, mirroring
// the per-engine objects of BENCH_perf.json.
type BenchEngineStats struct {
	NsPerOp      int64   `json:"ns_per_op"`
	CyclesPerSec float64 `json:"simulated_cycles_per_second"`
}

// BenchWorkload is one workload row of BENCH_perf.json. Unfused is a
// pointer because reports written before the fusion pass existed lack it.
type BenchWorkload struct {
	Program       string            `json:"program"`
	Cycles        float64           `json:"gpu_cycles"`
	Tree          BenchEngineStats  `json:"tree"`
	Bytecode      BenchEngineStats  `json:"bytecode"`
	Unfused       *BenchEngineStats `json:"unfused,omitempty"`
	Speedup       float64           `json:"speedup"`
	FusionSpeedup float64           `json:"fusion_speedup,omitempty"`
}

// BenchReport is the full BENCH_perf.json document.
type BenchReport struct {
	Benchmark            string          `json:"benchmark"`
	HostCores            int             `json:"host_cores"`
	Workloads            []BenchWorkload `json:"workloads"`
	GeomeanSpeedup       float64         `json:"geomean_speedup"`
	GeomeanFusionSpeedup float64         `json:"geomean_fusion_speedup,omitempty"`
}

// LoadBenchReport reads and validates one BENCH_perf.json document.
func LoadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench-diff: %w", err)
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench-diff: %s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("bench-diff: %s: report has no workloads", path)
	}
	return &r, nil
}

// BenchDiffOptions configures the regression judgment.
type BenchDiffOptions struct {
	// ThresholdPct is the allowed slowdown before the diff counts as a
	// regression: wall-clock geomean ns/op growth (default mode) or
	// speedup-ratio shrinkage (ratios-only mode), in percent.
	ThresholdPct float64
	// RatiosOnly compares only machine-independent speedup ratios,
	// ignoring absolute ns/op. Use when old and new ran on different
	// hardware.
	RatiosOnly bool
}

// BenchEngineDelta is one engine's wall-clock movement on one workload.
type BenchEngineDelta struct {
	Engine   string
	OldNs    int64
	NewNs    int64
	DeltaPct float64 // positive = slower
}

// BenchWorkloadDelta groups one workload's engine deltas.
type BenchWorkloadDelta struct {
	Program string
	Engines []BenchEngineDelta
}

// BenchRatioDelta is the movement of one machine-independent speedup
// geomean between the two reports.
type BenchRatioDelta struct {
	Name     string
	Old, New float64
	DeltaPct float64 // positive = speedup improved
}

// BenchDiff is the full comparison of two reports.
type BenchDiff struct {
	OldCores, NewCores int
	// Workloads holds per-workload wall-clock deltas for workloads
	// present in both reports (empty in ratios-only mode).
	Workloads []BenchWorkloadDelta
	// GeomeanDeltaPct is the per-engine geomean ns/op movement across
	// common workloads, positive = slower (empty in ratios-only mode).
	GeomeanDeltaPct map[string]float64
	// Ratios compares the machine-independent speedup geomeans.
	Ratios []BenchRatioDelta
	// Regressions lists every threshold violation; empty means the gate
	// passes.
	Regressions []string
}

// Regressed reports whether any engine moved past the threshold.
func (d *BenchDiff) Regressed() bool { return len(d.Regressions) > 0 }

// engineStats returns the named engine's stats for w, or nil when the
// report predates that engine.
func engineStats(w *BenchWorkload, engine string) *BenchEngineStats {
	switch engine {
	case "tree":
		return &w.Tree
	case "bytecode":
		return &w.Bytecode
	case "unfused":
		return w.Unfused
	}
	return nil
}

var benchEngineOrder = []string{"tree", "bytecode", "unfused"}

// DiffBenchReports compares two benchmark reports under opts. It returns an
// error only for structural problems (no common workloads); performance
// regressions are reported via BenchDiff.Regressions so the caller can
// render the full table either way.
func DiffBenchReports(oldR, newR *BenchReport, opts BenchDiffOptions) (*BenchDiff, error) {
	oldByName := make(map[string]*BenchWorkload, len(oldR.Workloads))
	for i := range oldR.Workloads {
		oldByName[oldR.Workloads[i].Program] = &oldR.Workloads[i]
	}

	d := &BenchDiff{
		OldCores:        oldR.HostCores,
		NewCores:        newR.HostCores,
		GeomeanDeltaPct: make(map[string]float64),
	}

	common := 0
	logSum := make(map[string]float64)
	logN := make(map[string]int)
	for i := range newR.Workloads {
		nw := &newR.Workloads[i]
		ow, ok := oldByName[nw.Program]
		if !ok {
			continue
		}
		common++
		if opts.RatiosOnly {
			continue
		}
		wd := BenchWorkloadDelta{Program: nw.Program}
		for _, eng := range benchEngineOrder {
			so, sn := engineStats(ow, eng), engineStats(nw, eng)
			if so == nil || sn == nil || so.NsPerOp <= 0 || sn.NsPerOp <= 0 {
				continue
			}
			ratio := float64(sn.NsPerOp) / float64(so.NsPerOp)
			wd.Engines = append(wd.Engines, BenchEngineDelta{
				Engine:   eng,
				OldNs:    so.NsPerOp,
				NewNs:    sn.NsPerOp,
				DeltaPct: (ratio - 1) * 100,
			})
			logSum[eng] += math.Log(ratio)
			logN[eng]++
		}
		d.Workloads = append(d.Workloads, wd)
	}
	if common == 0 {
		return nil, fmt.Errorf("bench-diff: the two reports share no workloads")
	}

	for _, eng := range benchEngineOrder {
		if n := logN[eng]; n > 0 {
			pct := (math.Exp(logSum[eng]/float64(n)) - 1) * 100
			d.GeomeanDeltaPct[eng] = pct
			if pct > opts.ThresholdPct {
				d.Regressions = append(d.Regressions,
					fmt.Sprintf("%s engine geomean %.1f%% slower (threshold %.1f%%)", eng, pct, opts.ThresholdPct))
			}
		}
	}

	ratios := []struct {
		name     string
		old, new float64
	}{
		{"tree->bytecode", oldR.GeomeanSpeedup, newR.GeomeanSpeedup},
		{"unfused->fused", oldR.GeomeanFusionSpeedup, newR.GeomeanFusionSpeedup},
	}
	for _, r := range ratios {
		if r.old <= 0 || r.new <= 0 {
			continue // the older schema lacks this ratio
		}
		pct := (r.new/r.old - 1) * 100
		d.Ratios = append(d.Ratios, BenchRatioDelta{Name: r.name, Old: r.old, New: r.new, DeltaPct: pct})
		if opts.RatiosOnly && -pct > opts.ThresholdPct {
			d.Regressions = append(d.Regressions,
				fmt.Sprintf("%s geomean speedup fell %.1f%%: %.2fx -> %.2fx (threshold %.1f%%)",
					r.name, -pct, r.old, r.new, opts.ThresholdPct))
		}
	}

	return d, nil
}

// Render formats the diff as a text report.
func (d *BenchDiff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark diff (old: %d cores, new: %d cores)\n", d.OldCores, d.NewCores)
	if len(d.Workloads) > 0 {
		fmt.Fprintf(&b, "\n%-10s %-9s %14s %14s %9s\n", "program", "engine", "old ns/op", "new ns/op", "delta")
		for _, w := range d.Workloads {
			for _, e := range w.Engines {
				fmt.Fprintf(&b, "%-10s %-9s %14d %14d %+8.1f%%\n", w.Program, e.Engine, e.OldNs, e.NewNs, e.DeltaPct)
			}
		}
		fmt.Fprintf(&b, "\ngeomean wall-clock movement (positive = slower):\n")
		for _, eng := range benchEngineOrder {
			if pct, ok := d.GeomeanDeltaPct[eng]; ok {
				fmt.Fprintf(&b, "  %-9s %+6.1f%%\n", eng, pct)
			}
		}
	}
	if len(d.Ratios) > 0 {
		fmt.Fprintf(&b, "\nmachine-independent speedup geomeans:\n")
		for _, r := range d.Ratios {
			fmt.Fprintf(&b, "  %-17s %.2fx -> %.2fx (%+.1f%%)\n", r.Name, r.Old, r.New, r.DeltaPct)
		}
	}
	if d.Regressed() {
		fmt.Fprintf(&b, "\nREGRESSIONS:\n")
		for _, r := range d.Regressions {
			fmt.Fprintf(&b, "  - %s\n", r)
		}
	} else {
		fmt.Fprintf(&b, "\nno regressions past threshold\n")
	}
	return b.String()
}
