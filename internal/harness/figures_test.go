package harness

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/kir"
	"hauberk/internal/workloads"
)

func TestFig02MemoryAudit(t *testing.T) {
	e := NewEnv(QuickScale())
	// Observation: FP data dominates in FP programs, integer data in the
	// integer programs (Figure 2's ordering).
	fp := e.AuditMemory(workloads.MRIQ())
	if fp.FPBytes <= fp.IntBytes+fp.PtrBytes {
		t.Errorf("MRI-Q should be FP-dominated: %+v", fp)
	}
	intProg := e.AuditMemory(workloads.SAD())
	if intProg.IntBytes <= intProg.FPBytes {
		t.Errorf("SAD should be integer-dominated: %+v", intProg)
	}
	if a := e.AuditMemory(workloads.TPACF()); a.IntBytes > 100*1024 {
		t.Errorf("TPACF audit must exclude the emulation scratch: %+v", a)
	}
}

func TestFig03GraphicsFaultStudy(t *testing.T) {
	e := NewEnv(QuickScale())
	cases, err := e.GraphicsFaultStudy(workloads.OceanFlow(), []int{1, 10000})
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 2 {
		t.Fatalf("cases = %d", len(cases))
	}
	if cases[0].UserNoticeable {
		t.Errorf("a single transient value error must not be noticeable (Observation: high frame rate masks it)")
	}
	if !cases[1].UserNoticeable {
		t.Errorf("10,000 value errors must form a noticeable stripe (Observation 3)")
	}
	if cases[1].CorruptPixels <= cases[0].CorruptPixels {
		t.Errorf("intermittent fault must corrupt more pixels: %+v", cases)
	}
}

func TestFig10ValueTrace(t *testing.T) {
	e := NewEnv(QuickScale())
	vt, err := e.TraceValues(workloads.MRIQ(), workloads.Dataset{Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	peaked, counted := 0, 0
	maxPoints := 0
	for _, h := range vt.Hists {
		if h.Total == 0 {
			continue
		}
		counted++
		if h.MagPeak2() > 0.5 {
			peaked++
		}
		if p := h.CorrelationPoints(0.05); p > maxPoints {
			maxPoints = p
		}
	}
	if counted < 10 {
		t.Fatalf("only %d variables traced", counted)
	}
	// The paper's finding: values concentrate sharply.
	if float64(peaked)/float64(counted) < 0.6 {
		t.Errorf("only %d/%d variables have sharp (two-decade >50%%) peaks", peaked, counted)
	}
	if maxPoints < 2 || maxPoints > 3 {
		t.Errorf("correlation points out of the paper's 1..3 structure: max %d", maxPoints)
	}
}

func TestFig15Shape(t *testing.T) {
	e := NewEnv(QuickScale())
	res := e.Fig15([]int{1, 15})
	// In every original band, the >1e15 share grows with bit count.
	for band := range res {
		if res[band][1][8] <= res[band][0][8] {
			t.Errorf("band %d: >1e15 share must grow with bit count", band)
		}
	}
}

func TestFig16AlphaMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("training study is slow")
	}
	e := NewEnv(QuickScale())
	cs, err := e.FalsePositiveStudy(workloads.ByName("MRI-FHD"), 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	c1, c100 := cs[0], cs[1]
	// alpha=100 must never have more false positives than alpha=1 at the
	// same checkpoint (Section VI(iii)).
	for i := range c1.Ratio {
		if c100.Ratio[i] > c1.Ratio[i]+1e-9 {
			t.Errorf("checkpoint %d: alpha=100 fp %.2f above alpha=1 fp %.2f",
				c1.Checkpoints[i], c100.Ratio[i], c1.Ratio[i])
		}
	}
	// Training reduces false positives at alpha=1.
	if c1.Ratio[len(c1.Ratio)-1] > c1.Ratio[0] {
		t.Errorf("false positives should not grow with training: %v", c1.Ratio)
	}
}

// TestFig16ReplayEqualsLaunch pins what makes Figure 16's replay exact: for
// every (program, test dataset, range store) the quick-scale study
// evaluates, replaying the dataset's logged clean FT calls raises the
// alarms, in order, that a real FT launch against that store raises.
func TestFig16ReplayEqualsLaunch(t *testing.T) {
	e := NewEnv(QuickScale())
	type eval struct {
		spec  *workloads.Spec
		data  *fpData
		store *ranges.Store
		ds    int
	}
	var evals []eval
	for name, alphas := range map[string][]float64{"CP": {1}, "MRI-FHD": {1, 2, 10, 100}, "PNS": {1}, "TPACF": {1}} {
		spec := workloads.ByName(name)
		perms := e.fpPerms(spec, alphas)
		data, err := e.collectFP(spec, perms)
		if err != nil {
			t.Fatal(err)
		}
		for ai, alpha := range alphas {
			for _, perm := range perms[ai] {
				for _, n := range e.Scale.Fig16Checkpoints {
					store := data.store(perm[:min(n, len(perm)-2)], alpha)
					for _, ds := range perm[len(perm)-2:] {
						evals = append(evals, eval{spec, data, store, ds})
					}
				}
			}
		}
	}
	var sdc atomic.Int64
	err := e.dispatch(context.Background(), len(evals), 1, func(_ context.Context, _, lo, hi int) error {
		for _, ev := range evals[lo:hi] {
			replayed := hrt.NewControlBlock(ev.data.ft.Detectors, ev.store)
			ev.data.logs[ev.ds].replay(hrt.NewFT(replayed))
			launched := hrt.NewControlBlock(ev.data.ft.Detectors, ev.store)
			if _, _, err := e.launch(ev.spec, workloads.Dataset{Index: ev.ds}, ev.data.ft.Kernel, hrt.NewFT(launched), 0); err != nil {
				return err
			}
			if replayed.SDC() != launched.SDC() || !reflect.DeepEqual(replayed.Alarms(), launched.Alarms()) {
				return fmt.Errorf("%s dataset %d: replay alarms %v, launch alarms %v",
					ev.spec.Name, ev.ds, replayed.Alarms(), launched.Alarms())
			}
			if launched.SDC() {
				sdc.Add(1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both answers occur, so the comparison is not vacuous.
	if n := int(sdc.Load()); n == 0 || n == len(evals) {
		t.Fatalf("%d of %d evaluations alarm; want some of each", n, len(evals))
	}
}

func TestAlphaCoverageMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(QuickScale())
	rows, err := e.AlphaCoverage(workloads.ByName("MRI-FHD"), []float64{1, 10000})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Coverage > rows[0].Coverage+1e-9 {
		t.Errorf("coverage must not grow with alpha: %v", rows)
	}
}

func TestInstrumentationTiming(t *testing.T) {
	rows := MeasureInstrumentation(workloads.HPC())
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, it := range rows {
		if it.Total <= 0 {
			t.Errorf("%s: no time measured", it.Program)
		}
		if len(it.PerMode) != 4 {
			t.Errorf("%s: modes = %d, want 4", it.Program, len(it.PerMode))
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Notes:  []string{"n"},
	}
	tbl.AddRow("x", 1.25)
	tbl.AddRow("long-cell", "v")
	text := tbl.Render()
	for _, want := range []string{"T\n=\n", "a          bb", "1.2", "long-cell", "note: n"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q:\n%s", want, text)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### T", "| a | bb |", "| x | 1.2 |", "*n*"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
}

// TestObservation1And2 asserts the paper's first two measurement
// observations on the quick campaign.
func TestObservation1And2(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(QuickScale())
	res, err := e.Sensitivity("GPU HPC", workloads.HPC(), false)
	if err != nil {
		t.Fatal(err)
	}
	// Observation 1: SEUs in every data class cause substantial SDC.
	for _, c := range []kir.DataClass{kir.ClassPointer, kir.ClassInteger, kir.ClassFloat} {
		if res.SDCRatio(c) < 0.10 {
			t.Errorf("Observation 1: %s SDC ratio %.1f%% too low", c, 100*res.SDCRatio(c))
		}
	}
	// Observation 2: FP faults rarely cause failures; pointer/integer
	// faults are the failure-prone classes.
	if res.FailureRatio(kir.ClassFloat) > 0.05 {
		t.Errorf("Observation 2: FP failure ratio %.1f%% should be near zero",
			100*res.FailureRatio(kir.ClassFloat))
	}
	if res.FailureRatio(kir.ClassPointer) < 2*res.FailureRatio(kir.ClassFloat) {
		t.Errorf("Observation 2: pointer faults should fail far more often than FP faults")
	}
}

// TestObservation4 asserts the loop-time observation through the harness.
func TestObservation4(t *testing.T) {
	e := NewEnv(QuickScale())
	tbl, err := Fig04(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 { // 7 programs + AVG
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}
