package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the contract file the A/A verdict reads its bounds
// from, relative to the working directory (the repo root).
const benchmarkFile = "BENCHMARK.json"

// metricDecl is one metric declaration of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkDecl is BENCHMARK.json.
type benchmarkDecl struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadBenchmarkDecl(path string) (*benchmarkDecl, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchmarkDecl
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &d, nil
}

// runAA is the A/A self-check: SETS interleaved sets of RUNS runs of this
// same binary per workload, run i of every set on seed i, so two sets
// differ only by when they ran. For each end-to-end metric it reports each
// set's median and quartiles, the spread (q3-q1)/median the driver will
// compute, and the set-to-set move of the median against the metric's
// bound. The report goes to bench/AA.md.
func runAA(ctx context.Context, spec string, cfg config, w io.Writer) error {
	parts := strings.SplitN(spec, "x", 2)
	if len(parts) != 2 {
		return fmt.Errorf("bench: -aa %q: want SETSxRUNS", spec)
	}
	sets, err1 := strconv.Atoi(parts[0])
	runs, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || sets < 2 || runs < 2 {
		return fmt.Errorf("bench: -aa %q: want SETSxRUNS with both at least 2", spec)
	}
	decl, err := loadBenchmarkDecl(benchmarkFile)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	seconds := cfg.seconds
	if seconds <= 0 {
		seconds = float64(decl.RunSeconds)
	}

	// values[workload][metric][set] = one value per run.
	values := make(map[string]map[string][][]float64)
	failed := 0
	for _, wl := range decl.Workloads {
		values[wl.Name] = make(map[string][][]float64)
		for _, m := range decl.EndToEnd {
			values[wl.Name][m.Name] = make([][]float64, sets)
		}
	}
	for run := 0; run < runs; run++ {
		for set := 0; set < sets; set++ {
			for _, wl := range decl.Workloads {
				if err := ctx.Err(); err != nil {
					return err
				}
				args := []string{"--workload", wl.Name, "--seed", strconv.Itoa(cfg.seed + run),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
				if cfg.smoke {
					args = append(args, "-smoke")
				}
				res, err := execRun(ctx, exe, args)
				if err != nil {
					return fmt.Errorf("bench: A/A run %s set %d run %d: %w", wl.Name, set, run, err)
				}
				failed += res.Failed
				fmt.Fprintf(w, "aa %s set %d run %d:", wl.Name, set, run)
				for _, m := range decl.EndToEnd {
					v := res.Metrics[m.Name].Value
					values[wl.Name][m.Name][set] = append(values[wl.Name][m.Name][set], v)
					fmt.Fprintf(w, " %s=%.5g", m.Name, v)
				}
				fmt.Fprintln(w)
			}
		}
	}

	var md bytes.Buffer
	ok := writeAAReport(&md, decl, values, sets, runs, seconds, failed)
	if err := os.WriteFile(filepath.Join("bench", "AA.md"), md.Bytes(), 0o644); err != nil {
		return err
	}
	io.Copy(w, &md) //nolint:errcheck // the report is already on disk
	if !ok {
		return fmt.Errorf("bench: A/A: at least one metric exceeded its bound (see bench/AA.md)")
	}
	return nil
}

// execRun runs one benchmark invocation as a child process and decodes
// the JSON document on the last line of its standard output.
func execRun(ctx context.Context, exe string, args []string) (*result, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last output line is not the result document: %w", err)
	}
	return &res, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// writeAAReport renders the A/A tables and returns whether every metric
// stayed inside its bound: each set's spread within the bound (setup_s is
// exempt from the spread rule, as it is in the driver), and no later set's
// median worse than the first's by more than the bound.
func writeAAReport(w io.Writer, decl *benchmarkDecl, values map[string]map[string][][]float64, sets, runs int, seconds float64, failed int) bool {
	ok := failed == 0
	fmt.Fprintf(w, "# A/A: %d interleaved sets of %d runs, one binary\n\n", sets, runs)
	st := newStamp(".")
	fmt.Fprintf(w, "Recorded %s by `go run ./bench -aa %dx%d` with %g s windows; run i of every set uses seed i.\n",
		time.Now().UTC().Format("2006-01-02"), sets, runs, seconds)
	fmt.Fprintf(w, "Host: %d cores, GOMAXPROCS %d, %s, commit %s, degraded_host %v. Failed operations across all runs: %d.\n\n",
		st.HostCores, st.GOMAXPROCS, st.GoVersion, st.Commit, st.DegradedHost, failed)
	fmt.Fprintf(w, "`spread` is (q3 − q1) ÷ median with Python's `statistics.quantiles(v, n=4)` quartiles — the figure the\n")
	fmt.Fprintf(w, "driver holds against the bound (a third of the bound is the target). `move` is how much worse the\n")
	fmt.Fprintf(w, "later set's median is than the first set's (negative: better). A bound must be at least twice the\n")
	fmt.Fprintf(w, "observed |move|.\n\n")
	for _, wl := range decl.Workloads {
		fmt.Fprintf(w, "## %s\n\n", wl.Name)
		fmt.Fprintf(w, "| metric | unit | bound | set | median | q1 | q3 | spread | move vs set 0 | verdict |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range decl.EndToEnd {
			var base float64
			for set := 0; set < sets; set++ {
				v := values[wl.Name][m.Name][set]
				med := median(v)
				q1, q3 := quartiles(v)
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / med
				}
				move := 0.0
				if set == 0 {
					base = med
				} else {
					move = worsening(m.Better, base, med)
				}
				verdict := "ok"
				switch {
				case m.Name != "setup_s" && spread > m.Bound:
					verdict, ok = "SPREAD > BOUND", false
				case move > m.Bound:
					verdict, ok = "MOVE > BOUND", false
				case 2*math.Abs(move) > m.Bound:
					verdict = "ok (bound < 2x move)"
				case m.Name != "setup_s" && 3*spread > m.Bound:
					verdict = "ok (spread > bound/3)"
				}
				fmt.Fprintf(w, "| %s | %s | %.0f%% | %d | %.5g | %.5g | %.5g | %.2f%% | %+.2f%% | %s |\n",
					m.Name, m.Unit, 100*m.Bound, set, med, q1, q3, 100*spread, 100*move, verdict)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "## Every run\n\n| workload | set | seed |")
	for _, m := range decl.EndToEnd {
		fmt.Fprintf(w, " %s |", m.Name)
	}
	fmt.Fprintf(w, "\n|---|---|---|%s\n", strings.Repeat("---|", len(decl.EndToEnd)))
	for _, wl := range decl.Workloads {
		for run := 0; run < runs; run++ {
			for set := 0; set < sets; set++ {
				fmt.Fprintf(w, "| %s | %d | %d |", wl.Name, set, run)
				for _, m := range decl.EndToEnd {
					fmt.Fprintf(w, " %.5g |", values[wl.Name][m.Name][set][run])
				}
				fmt.Fprintln(w)
			}
		}
	}
	fmt.Fprintln(w)
	if ok {
		fmt.Fprintf(w, "Verdict: every end-to-end metric stayed inside its bound on every workload.\n")
	} else {
		fmt.Fprintf(w, "Verdict: FAILED — at least one metric left its bound, or an operation failed.\n")
	}
	return ok
}
