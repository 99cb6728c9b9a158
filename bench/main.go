// Command bench is the campaign benchmark: it measures injections
// classified per second for one campaign plan through the four deployment
// shapes the repo ships — hauberk-run in-process, hauberk-run -isolation
// process, hauberkd, and a 3-node hauberk-fleet — all built in this one
// process from the packages' public API. README.md in this directory is
// the metric catalogue; BENCHMARK.json at the repo root is the contract.
//
//	go run ./bench --workload inproc_hpc --seed 0 --seconds 25 --trace 0
//	go run ./bench --workload daemon_tiny --seed 3 --seconds 25 --trace 1
//	go run ./bench -aa 2x5
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"hauberk/internal/guardian/procexec"
	"hauberk/internal/harness"
)

// config is one invocation's knobs — the driver's four plus -smoke.
type config struct {
	workload string
	seed     int
	seconds  float64
	trace    bool
	// smoke shrinks every workload to tiny scale, one cold set-up and one
	// pass: enough to exercise every code path and print every metric, not
	// to measure anything.
	smoke bool
}

// result is the last-line JSON document.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	serveIfWorker()
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// serveIfWorker turns the process into a worker, never to return, when it
// was re-executed as one (by the isolation executor or the procexec
// probe). It runs first: a worker speaks the procexec frame protocol on
// stdout, so nothing else may print.
func serveIfWorker() {
	if len(os.Args) < 2 {
		return
	}
	switch os.Args[1] {
	case "-worker":
		exitOn(harness.WorkerMain(os.Stdin, os.Stdout))
	case "-echo-worker":
		exitOn(procexec.Serve(os.Stdin, os.Stdout, echoHandler, procexec.ServeOptions{}))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: inproc_hpc, isolated_light, daemon_tiny, fleet_full")
	fs.IntVar(&cfg.seed, "seed", 0, "input seed: dataset index and program order")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny scale, one pass: exercise every path, measure nothing")
	aa := fs.String("aa", "", "A/A mode SETSxRUNS (e.g. 2x5): interleaved sets of runs of this binary, report to bench/AA.md")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Whatever happens below, leave no worker process and no scratch
	// behind.
	defer procexec.KillAllWorkers()

	if *aa != "" {
		if err := runAA(ctx, *aa, cfg, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	def, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, err := runOnce(ctx, def, cfg, scratchBase, stdout)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runOnce executes one run (traced or not) inside a private scratch
// directory under base, prints the human-readable report, and returns the
// result document.
func runOnce(ctx context.Context, def workloadDef, cfg config, base string, w io.Writer) (*result, error) {
	scratch, err := scratchRoot(base)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	st := newStamp(scratch)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v smoke %v\n", def.name, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke)
	fmt.Fprintf(w, "host_cores %d gomaxprocs %d go_version %s commit %s degraded_host %v scratch_fs %s\n",
		st.HostCores, st.GOMAXPROCS, st.GoVersion, st.Commit, st.DegradedHost, st.ScratchFS)

	if cfg.trace {
		tr, err := runTraced(ctx, def, cfg, scratch)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "ops_attempted %d ops_failed %d injections %d digest_fnv %s\n", tr.attempted, tr.failed, tr.injections, tr.digestFNV)
		for _, e := range tr.errs {
			fmt.Fprintf(w, "error: %v\n", e)
		}
		for _, n := range tr.notes {
			fmt.Fprintln(w, n)
		}
		printMetrics(w, tr.metrics)
		return &result{Correct: tr.failed == 0, Attempted: tr.attempted, Failed: tr.failed, Metrics: tr.metrics}, nil
	}

	r, err := runWorkload(ctx, def, cfg, scratch)
	if err != nil {
		return nil, err
	}
	metrics := r.endToEnd()
	fmt.Fprintf(w, "ops_attempted %d ops_failed %d injections %d digest_fnv %s\n", len(r.ops), r.failed, r.injections, r.digestFNV)
	fmt.Fprintf(w, "window_s %.3f slices %d setups_s %.3f\n", r.window.Seconds(), len(r.slices), r.setups)
	fmt.Fprint(w, "slice injections/s:")
	for _, sl := range r.slices {
		fmt.Fprintf(w, " %.1f", float64(sl.injections)/sl.wall.Seconds())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "whole-window means: %.2f injections/s, %.4f cpu ms/injection; rss %d samples, peak %.1f MB\n",
		float64(r.injections)/r.window.Seconds(), ms(r.cpu)/float64(max(r.injections, 1)), len(r.rssMB), peakRSSMB())
	for _, d := range r.programs() {
		lat := r.latencies(d)
		line := fmt.Sprintf("campaign latency %-9s n=%-6d p50 %.3f ms", d, len(lat), nearestRank(lat, 0.5))
		if hp := highestPercentile(len(lat)); hp > 0 {
			line += fmt.Sprintf("  p%g %.3f ms", 100*hp, nearestRank(lat, hp))
		}
		fmt.Fprintln(w, line)
	}
	if r.firstErr != nil {
		fmt.Fprintf(w, "error: %v\n", r.firstErr)
	}
	printMetrics(w, metrics)
	return &result{Correct: r.failed == 0 && len(r.ops) > 0, Attempted: len(r.ops), Failed: r.failed, Metrics: metrics}, nil
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-44s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
