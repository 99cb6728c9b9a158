package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// This file is the perf gate's comparator, `hauberk-report -bench-diff
// BENCHMARK.json pairs.txt`. scripts/bench_pairs.sh runs the campaign
// benchmark (`go run ./bench`) for a parent and a change commit in
// alternating pairs and writes one line per run: the side, the workload,
// and the run's last-line JSON result,
//
//	parent inproc_hpc {"correct":true,"attempted":61234,"failed":0,"metrics":{...}}
//
// The i-th parent run of a workload pairs with its i-th change run. Every
// (workload, end-to-end metric) cell is judged against the bound
// BENCHMARK.json declares for the metric:
//
//   - the change's median is worse than the parent's by more than the
//     bound, and either the parent's own spread (IQR over median) is within
//     the bound or the change lost every pair: FAIL;
//   - worse than the bound otherwise: unresolved, which does not fail, since
//     the parent's runs alone spread wider than the move;
//   - else ok.
//
// A change run with correct false, a larger failed-operation share than
// the parent's, or a declared workload with no runs also fails. Exit
// codes: 0 pass, 1 regression, 2 usage error or malformed input.

// benchDecl is the part of BENCHMARK.json the gate reads.
type benchDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// benchRun is one run's result line from `go run ./bench`.
type benchRun struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// benchRuns holds one side's runs per workload, in file order.
type benchRuns map[string][]benchRun

func benchDiffCmd(paths []string, w io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: hauberk-report -bench-diff BENCHMARK.json pairs.txt")
		return 2
	}
	decl, err := loadBenchDecl(paths[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: bench-diff: %v\n", err)
		return 2
	}
	f, err := os.Open(paths[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: bench-diff: %v\n", err)
		return 2
	}
	defer f.Close()
	parent, change, err := readBenchPairs(f, decl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: bench-diff: %s: %v\n", paths[1], err)
		return 2
	}
	if judgeBench(w, decl, parent, change) {
		return 1
	}
	return 0
}

func loadBenchDecl(path string) (*benchDecl, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDecl
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Workloads) == 0 || len(d.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no workloads or no end_to_end metrics", path)
	}
	for _, m := range d.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || !(m.Bound > 0) {
			return nil, fmt.Errorf("%s: metric %q: want better lower|higher and a positive bound", path, m.Name)
		}
	}
	return &d, nil
}

// readBenchPairs parses a pairs file. Every line must name a side and a
// declared workload and carry every declared end-to-end metric, and a
// workload run on both sides must have as many runs on each.
func readBenchPairs(r io.Reader, decl *benchDecl) (parent, change benchRuns, err error) {
	declared := make(map[string]bool, len(decl.Workloads))
	for _, wl := range decl.Workloads {
		declared[wl.Name] = true
	}
	parent, change = benchRuns{}, benchRuns{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		f := strings.SplitN(line, " ", 3)
		if len(f) != 3 {
			return nil, nil, fmt.Errorf("line %d: want \"side workload {json}\"", n)
		}
		side := map[string]benchRuns{"parent": parent, "change": change}[f[0]]
		if side == nil {
			return nil, nil, fmt.Errorf("line %d: side %q is neither parent nor change", n, f[0])
		}
		if !declared[f[1]] {
			return nil, nil, fmt.Errorf("line %d: workload %q is not in BENCHMARK.json", n, f[1])
		}
		var run benchRun
		if err := json.Unmarshal([]byte(f[2]), &run); err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", n, err)
		}
		for _, m := range decl.EndToEnd {
			if _, ok := run.Metrics[m.Name]; !ok {
				return nil, nil, fmt.Errorf("line %d: no metric %q", n, m.Name)
			}
		}
		side[f[1]] = append(side[f[1]], run)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	for wl, p := range parent {
		if c := change[wl]; len(c) > 0 && len(c) != len(p) {
			return nil, nil, fmt.Errorf("workload %s: %d parent runs but %d change runs", wl, len(p), len(c))
		}
	}
	return parent, change, nil
}

// judgeBench prints one row per (workload, metric) cell and one row per
// workload for its failed operations, then a verdict line. It reports
// whether the gate fails.
func judgeBench(w io.Writer, decl *benchDecl, parent, change benchRuns) (fail bool) {
	failures, unresolved := 0, 0
	verdict := func(bad bool, why string) string {
		if bad {
			failures++
			return "FAIL" + why
		}
		return "ok"
	}
	fmt.Fprintf(w, "%-15s %-21s %10s %10s %8s %6s %7s %5s  %s\n",
		"workload", "metric", "parent", "change", "worse", "bound", "p.IQR", "lost", "verdict")
	for _, wl := range decl.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(w, "%-15s %s\n", wl.Name, verdict(true, fmt.Sprintf(
				": missing from the pairs file (%d parent, %d change runs)", len(p), len(c))))
			continue
		}
		for _, m := range decl.EndToEnd {
			pv, cv := metricValues(p, m.Name), metricValues(c, m.Name)
			pMed, cMed := median(pv), median(cv)
			by := worse(m.Better, pMed, cMed)
			q1, q3 := quartiles(pv)
			iqr := spread(q3-q1, pMed)
			lost := 0
			for i := range pv {
				if worse(m.Better, pv[i], cv[i]) > 0 {
					lost++
				}
			}
			v := "ok"
			switch {
			case by > m.Bound && (iqr <= m.Bound || lost == len(pv)):
				v = verdict(true, "")
			case by > m.Bound:
				unresolved++
				v = "unresolved"
			}
			fmt.Fprintf(w, "%-15s %-21s %10s %10s %+7.1f%% %5.0f%% %6.1f%% %2d/%-2d  %s\n",
				wl.Name, m.Name, num(pMed), num(cMed), 100*by, 100*m.Bound, 100*iqr, lost, len(pv), v)
		}
		pf, pa := failedOps(p)
		cf, ca := failedOps(c)
		incorrect := 0
		for _, r := range c {
			if !r.Correct {
				incorrect++
			}
		}
		why := ""
		if incorrect > 0 {
			why = fmt.Sprintf(": %d of %d change runs not correct", incorrect, len(c))
		} else if spread(float64(cf), float64(ca)) > spread(float64(pf), float64(pa)) {
			why = ": a larger failed share than the parent's"
		}
		fmt.Fprintf(w, "%-15s %-21s %10s %10s  %s\n", wl.Name, "failed/attempted",
			fmt.Sprintf("%d/%d", pf, pa), fmt.Sprintf("%d/%d", cf, ca), verdict(why != "", why))
	}
	if failures > 0 {
		fmt.Fprintf(w, "bench-diff: FAIL (%d failing rows, %d unresolved)\n", failures, unresolved)
		return true
	}
	fmt.Fprintf(w, "bench-diff: pass (%d unresolved)\n", unresolved)
	return false
}

func metricValues(runs []benchRun, name string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Metrics[name].Value
	}
	return v
}

func failedOps(runs []benchRun) (failed, attempted int) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// worse returns by how much the change value c is worse than the parent
// value p, as a fraction of p; negative when c is better.
func worse(better string, p, c float64) float64 {
	if c == p {
		return 0
	}
	d := (c - p) / math.Abs(p)
	if better == "higher" {
		d = -d
	}
	return d
}

// num prints a median with four significant digits, and none after the
// point from 1000 up.
func num(v float64) string {
	if math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// spread returns x/of, with 0/0 = 0.
func spread(x, of float64) float64 {
	if x == 0 {
		return 0
	}
	return x / math.Abs(of)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), as
// bench/stats.go computes them.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // the i-th of 3 cut points, 1-based
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}
