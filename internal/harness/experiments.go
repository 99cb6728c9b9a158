package harness

import (
	"context"
	"fmt"
	"strings"

	"hauberk/internal/core/translate"
	"hauberk/internal/kir"
	"hauberk/internal/workloads"
)

// This file assembles one Table per figure/table of the paper's
// evaluation; cmd/hauberk-report and the root benchmarks drive these.

// Fig01 reproduces Figure 1: error sensitivity by program type and data
// class under single-bit injections.
func Fig01(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Figure 1: error sensitivity (single-bit faults)",
		Header: []string{"program type", "data class", "crash/hang %", "SDC %", "not manifested %", "runs"},
		Notes: []string{
			"paper: HPC GPU SDC 18% (ptr) / 45% (int) / 39% (FP); CPU programs SDC <2.3%; graphics SDC ~0",
		},
	}
	groups := []struct {
		name  string
		specs []*workloads.Spec
		cpu   bool
	}{
		{"GPU HPC", workloads.HPC(), false},
		{"GPU graphics", workloads.Graphics(), false},
		{"CPU programs", []*workloads.Spec{workloads.CPURef()}, true},
	}
	for _, g := range groups {
		res, err := e.Sensitivity(g.name, g.specs, g.cpu)
		if err != nil {
			return nil, err
		}
		for _, c := range []kir.DataClass{kir.ClassPointer, kir.ClassInteger, kir.ClassFloat} {
			tal := res.ByClass[c]
			if tal == nil || tal.Total() == 0 {
				continue
			}
			t.AddRow(g.name, c.String(),
				100*tal.Frac(OutcomeFailure),
				100*tal.Frac(OutcomeUndetected),
				100*(tal.Frac(OutcomeMasked)+tal.Frac(OutcomeDetectedMasked)),
				tal.Total())
		}
	}
	return t, nil
}

// Fig02 reproduces Figure 2: memory size by data type per program class.
func Fig02(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Figure 2: data type vs memory size",
		Header: []string{"program class", "FP bytes", "integer bytes", "pointer bytes", "FP/(int+ptr)"},
		Notes:  []string{"paper: FP data occupies 3-6 orders of magnitude more space than integer+pointer in HPC FP programs"},
	}
	agg := map[workloads.Class]*MemoryAudit{}
	order := []workloads.Class{workloads.ClassFP, workloads.ClassInt, workloads.ClassGraphics}
	for _, spec := range append(workloads.HPC(), workloads.Graphics()...) {
		a := e.AuditMemory(spec)
		g := agg[spec.Class]
		if g == nil {
			g = &MemoryAudit{Class: spec.Class}
			agg[spec.Class] = g
		}
		g.FPBytes += a.FPBytes
		g.IntBytes += a.IntBytes
		g.PtrBytes += a.PtrBytes
	}
	for _, c := range order {
		g := agg[c]
		if g == nil {
			continue
		}
		ratio := float64(g.FPBytes) / float64(g.IntBytes+g.PtrBytes+1)
		t.AddRow(c.String(), fmt.Sprintf("%d", g.FPBytes), fmt.Sprintf("%d", g.IntBytes),
			fmt.Sprintf("%d", g.PtrBytes), fmt.Sprintf("%.2g", ratio))
	}
	return t, nil
}

// Fig03 reproduces Figure 3: transient vs intermittent faults in the
// ocean-flow graphics program.
func Fig03(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Figure 3: fault impact on a 3D graphics frame (ocean-flow)",
		Header: []string{"injected value errors", "corrupt pixels", "user noticeable", "kernel failed"},
		Notes: []string{
			"paper: 1 value error -> an invisible spike in one frame; 10,000 value errors (intermittent fault) -> a prominent stripe",
		},
	}
	cases, err := e.GraphicsFaultStudy(workloads.OceanFlow(), []int{1, 10000})
	if err != nil {
		return nil, err
	}
	for _, c := range cases {
		t.AddRow(fmt.Sprintf("%d", c.Errors), fmt.Sprintf("%d", c.CorruptPixels),
			fmt.Sprintf("%v", c.UserNoticeable), fmt.Sprintf("%v", c.Failed))
	}
	return t, nil
}

// Fig04 reproduces Figure 4: percent of GPU execution time spent in loops.
func Fig04(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Figure 4: GPU execution time spent on loops",
		Header: []string{"program", "loop time %"},
		Notes:  []string{"paper: >98% in 5 of 7 programs, 87% on average; RPES is the sequential outlier"},
	}
	sum := 0.0
	for _, spec := range workloads.HPC() {
		g, err := e.Golden(spec, workloads.Dataset{Index: 0})
		if err != nil {
			return nil, err
		}
		frac := 100 * g.Result.LoopCycles / g.Result.Cycles
		sum += frac
		t.AddRow(spec.Name, frac)
	}
	t.AddRow("AVG", sum/float64(len(workloads.HPC())))
	return t, nil
}

// Fig10 reproduces Figure 10: value distributions of MRI-Q variables.
func Fig10(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Figure 10: value range distributions of MRI-Q variables",
		Header: []string{"variable", "class", "peak decade prob", "magnitude 2-decade prob", "correlation points"},
		Notes: []string{
			"paper: values computed for one variable concentrate in one or two adjacent power-of-ten decades (peaks >0.5); FP variables show up to three correlation points (negative / near-zero / positive)",
		},
	}
	vt, err := e.TraceValues(workloads.MRIQ(), workloads.Dataset{Index: 0})
	if err != nil {
		return nil, err
	}
	peaksOver50 := 0
	counted := 0
	for i, s := range vt.Sites {
		h := vt.Hists[i]
		if h.Total == 0 {
			continue
		}
		counted++
		if h.MagPeak2() > 0.5 {
			peaksOver50++
		}
		t.AddRow(s.VarName, s.Class.String(), h.Peak(), h.MagPeak2(), h.CorrelationPoints(0.05))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured: %d of %d variables concentrate >50%% of values within two adjacent magnitude decades", peaksOver50, counted))
	return t, nil
}

// Fig13 reproduces Figure 13: performance overhead of all variants.
func Fig13(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Figure 13: kernel performance overhead (normalized to baseline)",
		Header: []string{"program", "R-Naive %", "R-Scatter %", "Hauberk-NL %", "Hauberk-L %", "Hauberk %"},
		Notes: []string{
			"paper: R-Naive ~100%, R-Scatter ~89% (TPACF not compilable), Hauberk avg 15.3% (8.9% excluding RPES)",
		},
	}
	sums := map[Variant]float64{}
	counts := map[Variant]int{}
	var hauberkNoRPES float64
	for _, spec := range workloads.HPC() {
		prof, err := e.Profile(spec, []workloads.Dataset{{Index: 0}})
		if err != nil {
			return nil, err
		}
		row, err := e.MeasurePerf(spec, workloads.Dataset{Index: 0}, prof.Store)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.Program, row.Overhead(RNaive), row.Overhead(RScatter),
			row.Overhead(HauberkNL), row.Overhead(HauberkL), row.Overhead(Hauberk))
		for _, v := range Variants {
			if o, ok := row.Overheads[v]; ok && o == o { // skip NaN
				sums[v] += o
				counts[v]++
			}
		}
		if spec.Name != "RPES" {
			hauberkNoRPES += row.Overheads[Hauberk]
		}
	}
	avg := func(v Variant) string {
		if counts[v] == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f", sums[v]/float64(counts[v]))
	}
	t.AddRow("AVG", avg(RNaive), avg(RScatter), avg(HauberkNL), avg(HauberkL), avg(Hauberk))
	t.Notes = append(t.Notes, fmt.Sprintf("Hauberk average excluding RPES: %.1f%%", hauberkNoRPES/6))
	return t, nil
}

// Fig14 reproduces Figure 14: detection coverage per program and error-bit
// count.
func Fig14(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Figure 14: Hauberk error detection outcomes",
		Header: []string{"program", "bits", "failure %", "masked %", "det&masked %", "detected %", "undetected %", "coverage %"},
		Notes: []string{
			"paper single-bit averages: 35.6% masked, 11.0% failure, 21.4% detected, 22.2% detected&masked, 9.8% undetected; coverage 86.8%",
		},
	}
	var total Tally
	var singleBit Tally
	for _, spec := range workloads.HPC() {
		pc, err := e.PrepareCampaign(spec, workloads.Dataset{Index: 0})
		if err != nil {
			return nil, err
		}
		cr, err := e.RunPrepared(context.TODO(), pc, CampaignOptions{})
		if err != nil {
			return nil, err
		}
		for _, b := range cr.BitCounts() {
			t.AddOutcomeRow(cr.ByBits[b], spec.Name, b)
		}
		total.Merge(cr.All)
		if tal := cr.ByBits[1]; tal != nil {
			singleBit.Merge(*tal)
		}
	}
	t.AddOutcomeRow(&total, "AVG(all)", "*")
	t.AddOutcomeRow(&singleBit, "AVG(1-bit)", "1")
	return t, nil
}

// Fig15 reproduces Figure 15: FP value magnitude change vs error bits.
func Fig15Table(e *Env) *Table {
	t := &Table{
		Title:  "Figure 15: value change magnitude after bit corruption (random FP samples)",
		Header: []string{"original range", "bits", ">1E+15 %", "1E+3..1E+15 %", "1E-3..1E+3 %", "<1E-3 %"},
		Notes: []string{
			"paper: as corrupted-bit count rises, the share of >1e15 value changes grows regardless of original magnitude",
		},
	}
	bits := e.Scale.BitCounts
	res := e.Fig15(bits)
	bandNames := []string{"1E-38~1E-15", "1E-15~1E-3", "1E-3~1E+3", "1E+3~1E+15", "1E+15~1E+45"}
	for band := range res {
		for bi, b := range bits {
			frac := res[band][bi]
			over15 := frac[8]
			mid := frac[5] + frac[6] + frac[7]
			small := frac[4]
			tiny := frac[0] + frac[1] + frac[2] + frac[3]
			t.AddRow(bandNames[band], fmt.Sprintf("%d", b), 100*over15, 100*mid, 100*small, 100*tiny)
		}
	}
	return t
}

// Fig16 reproduces Figure 16: false positive ratio vs number of training
// sets, with the alpha sweep on MRI-FHD.
func Fig16(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Figure 16: false positive ratio vs training sets",
		Header: append([]string{"program", "alpha"}, checkpointHeaders(e.Scale.Fig16Checkpoints)...),
		Notes: []string{
			"paper: PNS converges near zero after ~7 training sets; MRI-FHD stays ~30% at alpha=1 and reaches zero with alpha=100 after ~7 sets",
		},
	}
	for _, name := range []string{"CP", "MRI-FHD", "PNS", "TPACF"} {
		spec := workloads.ByName(name)
		c, err := e.FalsePositiveStudy(spec, 1)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, fpRow(c))
	}
	for _, alpha := range []float64{2, 10, 100} {
		c, err := e.FalsePositiveStudy(workloads.ByName("MRI-FHD"), alpha)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, fpRow(c))
	}
	return t, nil
}

func checkpointHeaders(cps []int) []string {
	out := make([]string, len(cps))
	for i, c := range cps {
		out[i] = fmt.Sprintf("n=%d", c)
	}
	return out
}

func fpRow(c *FPCurve) []string {
	row := []string{c.Program, fmt.Sprintf("%g", c.Alpha)}
	for _, r := range c.Ratio {
		row = append(row, fmt.Sprintf("%.0f%%", 100*r))
	}
	return row
}

// AlphaCoverageTable reproduces the Section IX.C alpha/coverage analysis
// on MRI-FHD.
func AlphaCoverageTable(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Section IX.C: MRI-FHD detection coverage vs alpha",
		Header: []string{"alpha", "coverage %", "undetected %"},
		Notes: []string{
			"paper: coverage 95% at alpha=1 and alpha=1000; drops to 82.8% at alpha=10000 and 81.6% at alpha=100000",
		},
	}
	rows, err := e.AlphaCoverage(workloads.ByName("MRI-FHD"), []float64{1, 1000, 10000, 100000})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%g", r.Alpha), 100*r.Coverage, 100*r.Tally.Frac(OutcomeUndetected))
	}
	return t, nil
}

// InstrumentationTable reproduces Section IX.D's instrumentation-time
// measurement.
func InstrumentationTable() *Table {
	t := &Table{
		Title:  "Section IX.D: Hauberk instrumentation time",
		Header: []string{"program", "profiler", "ft", "fi", "fi+ft", "total"},
		Notes: []string{
			"paper: 0.7s average for the transformer passes alone (81s including C preprocessing/compilation, which have no analogue here)",
		},
	}
	var total float64
	rows := MeasureInstrumentation(workloads.HPC())
	for _, it := range rows {
		t.AddRow(it.Program,
			it.PerMode[translate.ModeProfiler].String(), it.PerMode[translate.ModeFT].String(),
			it.PerMode[translate.ModeFI].String(), it.PerMode[translate.ModeFIFT].String(),
			it.Total.String())
		total += it.Total.Seconds()
	}
	t.Notes = append(t.Notes, fmt.Sprintf("average per program: %.4fs", total/float64(len(rows))))
	return t
}

// AllFigures runs every experiment at the environment's scale and returns
// the tables in paper order.
func AllFigures(e *Env) ([]*Table, error) {
	var out []*Table
	steps := []func() (*Table, error){
		func() (*Table, error) { return Fig01(e) },
		func() (*Table, error) { return Fig02(e) },
		func() (*Table, error) { return Fig03(e) },
		func() (*Table, error) { return Fig04(e) },
		func() (*Table, error) { return Fig10(e) },
		func() (*Table, error) { return Fig13(e) },
		func() (*Table, error) { return Fig14(e) },
		func() (*Table, error) { return Fig15Table(e), nil },
		func() (*Table, error) { return Fig16(e) },
		func() (*Table, error) { return AlphaCoverageTable(e) },
		func() (*Table, error) { return InstrumentationTable(), nil },
	}
	for _, step := range steps {
		tbl, err := step()
		if err != nil {
			return out, err
		}
		out = append(out, tbl)
	}
	return out, nil
}

// RenderAll renders all tables as one text report.
func RenderAll(tables []*Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.Render())
		sb.WriteString("\n")
	}
	return sb.String()
}
