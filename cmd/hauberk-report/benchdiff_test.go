package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testDecl is BENCHMARK.json's shape with its end-to-end bounds.
const testDecl = `{
  "workloads": [
    {"name": "inproc_hpc", "why": "-"},
    {"name": "isolated_light", "why": "-"},
    {"name": "daemon_tiny", "why": "-"},
    {"name": "fleet_full", "why": "-"}
  ],
  "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "injections_per_s", "unit": "1/s", "better": "higher", "bound": 0.22},
    {"name": "cpu_ms_per_injection", "unit": "ms", "better": "lower", "bound": 0.22},
    {"name": "rss_mb", "unit": "MB", "better": "lower", "bound": 0.18}
  ]
}`

var (
	testWorkloads = []string{"inproc_hpc", "isolated_light", "daemon_tiny", "fleet_full"}
	testMetrics   = []string{"setup_s", "injections_per_s", "cpu_ms_per_injection", "rss_mb"}
)

// pairsFixture is a pairs file under construction: values[side][workload]
// [metric] holds the five runs of one cell. It starts as a quiet A/A run,
// every value within 2 % of 100 and the two sides taking turns ahead.
type pairsFixture struct {
	values map[string]map[string]map[string][]float64
	failed map[string]map[string]int // side -> workload -> failed ops per run
	wrong  map[string]bool           // change workloads whose runs say correct false
}

func newPairsFixture() *pairsFixture {
	f := &pairsFixture{
		values: map[string]map[string]map[string][]float64{},
		failed: map[string]map[string]int{"parent": {}, "change": {}},
		wrong:  map[string]bool{},
	}
	for s, side := range []string{"parent", "change"} {
		f.values[side] = map[string]map[string][]float64{}
		for _, wl := range testWorkloads {
			f.values[side][wl] = map[string][]float64{}
			for _, m := range testMetrics {
				for i := 0; i < 5; i++ {
					jitter := float64((i+s)%2*2-1) * float64(i%3)
					f.values[side][wl][m] = append(f.values[side][wl][m], 100+jitter)
				}
			}
		}
	}
	return f
}

func (f *pairsFixture) text(skip string) string {
	var b strings.Builder
	for i := 0; i < 5; i++ {
		for _, wl := range testWorkloads {
			if wl == skip {
				continue
			}
			for _, side := range []string{"parent", "change"} {
				var ms []string
				for _, m := range testMetrics {
					ms = append(ms, fmt.Sprintf("%q:{\"value\":%g,\"unit\":\"-\"}", m, f.values[side][wl][m][i]))
				}
				correct := !(side == "change" && f.wrong[wl])
				fmt.Fprintf(&b, "%s %s {\"correct\":%t,\"attempted\":1000,\"failed\":%d,\"metrics\":{%s}}\n",
					side, wl, correct, f.failed[side][wl], strings.Join(ms, ","))
			}
		}
	}
	return b.String()
}

// runBenchDiff writes the declaration and the pairs text to files and runs
// the comparator on them.
func runBenchDiff(t *testing.T, pairs string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	decl, file := filepath.Join(dir, "BENCHMARK.json"), filepath.Join(dir, "pairs.txt")
	if err := os.WriteFile(decl, []byte(testDecl), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, []byte(pairs), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := benchDiffCmd([]string{decl, file}, &out)
	t.Logf("exit %d:\n%s", code, out.String())
	return code, out.String()
}

// row returns the table row of one (workload, metric) cell.
func row(t *testing.T, out, wl, metric string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == wl && f[1] == metric {
			return line
		}
	}
	t.Fatalf("no row for %s %s", wl, metric)
	return ""
}

// TestBenchDiffAAUnresolvedCell is an A/A run with one cell whose median
// reads past its bound: inproc_hpc setup_s at +25.2 % against 25 %, with
// 4 of 5 pairs lost. The parent's own IQR (27 %) is wider than the bound,
// so the cell is unresolved and the gate passes.
func TestBenchDiffAAUnresolvedCell(t *testing.T) {
	f := newPairsFixture()
	f.values["parent"]["inproc_hpc"]["setup_s"] = []float64{0.41, 0.45, 0.50, 0.55, 0.58}
	f.values["change"]["inproc_hpc"]["setup_s"] = []float64{0.40, 0.60, 0.626, 0.66, 0.70}
	code, out := runBenchDiff(t, f.text(""))
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	r := row(t, out, "inproc_hpc", "setup_s")
	for _, want := range []string{"+25.2%", "25%", "27.0%", "4/5", "unresolved"} {
		if !strings.Contains(r, want) {
			t.Errorf("row %q lacks %q", r, want)
		}
	}
	if !strings.Contains(out, "bench-diff: pass (1 unresolved)") {
		t.Error("no pass verdict naming the one unresolved cell")
	}
	if n := strings.Count(out, " ok\n"); n != 4*len(testMetrics)+4-1 {
		t.Errorf("%d ok rows, want %d", n, 4*len(testMetrics)+4-1)
	}
}

// TestBenchDiffFailsWhenEveryPairIsLost is the shape of a change that
// undoes a real daemon speed-up: daemon_tiny's CPU cost +38 % and its
// throughput down by a fifth, each losing 5 of 5 pairs. The parent's IQR
// is far wider than the bounds, but losing every pair still fails.
func TestBenchDiffFailsWhenEveryPairIsLost(t *testing.T) {
	f := newPairsFixture()
	f.values["parent"]["daemon_tiny"]["cpu_ms_per_injection"] = []float64{0.5, 0.6, 0.8, 1.2, 1.5}
	f.values["change"]["daemon_tiny"]["cpu_ms_per_injection"] = []float64{0.6, 0.7, 1.105, 1.3, 1.6}
	f.values["parent"]["daemon_tiny"]["injections_per_s"] = []float64{900, 1500, 2000, 2200, 2300}
	f.values["change"]["daemon_tiny"]["injections_per_s"] = []float64{800, 1200, 1550, 1700, 2000}
	code, out := runBenchDiff(t, f.text(""))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	cpu := row(t, out, "daemon_tiny", "cpu_ms_per_injection")
	for _, want := range []string{"+38.1%", "100.0%", "5/5", "FAIL"} {
		if !strings.Contains(cpu, want) {
			t.Errorf("row %q lacks %q", cpu, want)
		}
	}
	if ips := row(t, out, "daemon_tiny", "injections_per_s"); !strings.Contains(ips, "+22.5%") || !strings.HasSuffix(ips, "FAIL") {
		t.Errorf("throughput row %q: want +22.5%% and FAIL", ips)
	}
	if !strings.Contains(out, "bench-diff: FAIL (2 failing rows, 0 unresolved)") {
		t.Error("no FAIL verdict counting the two cells")
	}
}

// TestBenchDiffFailsOnTightParent: a move past the bound fails even with
// pairs won when the parent's runs agree within the bound.
func TestBenchDiffFailsOnTightParent(t *testing.T) {
	f := newPairsFixture()
	f.values["change"]["fleet_full"]["rss_mb"] = []float64{97, 120, 121, 122, 123}
	code, out := runBenchDiff(t, f.text(""))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if r := row(t, out, "fleet_full", "rss_mb"); !strings.Contains(r, "4/5") || !strings.HasSuffix(r, "FAIL") {
		t.Errorf("row %q: want 4/5 lost and FAIL", r)
	}
}

func TestBenchDiffFailsOnFailedOps(t *testing.T) {
	f := newPairsFixture()
	f.failed["change"]["isolated_light"] = 1
	code, out := runBenchDiff(t, f.text(""))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if r := row(t, out, "isolated_light", "failed/attempted"); !strings.Contains(r, "5/5000") || !strings.Contains(r, "FAIL: a larger failed share") {
		t.Errorf("row %q: want 5/5000 and a failed-share FAIL", r)
	}

	// The same share on both sides is not a regression.
	f.failed["parent"]["isolated_light"] = 1
	if code, _ := runBenchDiff(t, f.text("")); code != 0 {
		t.Errorf("equal failed shares: exit %d, want 0", code)
	}
}

func TestBenchDiffFailsOnIncorrectRun(t *testing.T) {
	f := newPairsFixture()
	f.wrong["daemon_tiny"] = true
	code, out := runBenchDiff(t, f.text(""))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if r := row(t, out, "daemon_tiny", "failed/attempted"); !strings.Contains(r, "5 of 5 change runs not correct") {
		t.Errorf("row %q does not name the incorrect runs", r)
	}
}

func TestBenchDiffFailsOnMissingWorkload(t *testing.T) {
	code, out := runBenchDiff(t, newPairsFixture().text("fleet_full"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "fleet_full      FAIL: missing from the pairs file (0 parent, 0 change runs)") {
		t.Error("the missing workload is not named")
	}
}

func TestBenchDiffRejectsMalformedInput(t *testing.T) {
	good := newPairsFixture().text("")
	firstLine := strings.SplitN(good, "\n", 2)[0]
	doc := strings.SplitN(firstLine, " ", 3)[2]
	for name, pairs := range map[string]string{
		"two fields":        "parent inproc_hpc\n" + good,
		"unknown side":      "sibling inproc_hpc " + doc + "\n" + good,
		"unknown workload":  "parent gpu_farm " + doc + "\n" + good,
		"bad json":          "parent inproc_hpc {\"correct\":tru\n" + good,
		"missing metric":    "parent inproc_hpc {\"correct\":true,\"metrics\":{}}\n" + good,
		"unequal run count": "parent inproc_hpc " + doc + "\n" + good,
	} {
		t.Run(name, func(t *testing.T) {
			if code, _ := runBenchDiff(t, pairs); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
		})
	}
	if code := benchDiffCmd([]string{"BENCHMARK.json"}, &bytes.Buffer{}); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
}
