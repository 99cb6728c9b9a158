// Command hauberk-report regenerates the paper's evaluation tables and
// figures. Each figure of the paper maps to one table here; see DESIGN.md
// for the per-experiment index. It also renders telemetry event journals
// (written by `hauberk-run -trace`) as human-readable timelines, and acts
// as the client for the live monitor embedded by `hauberk-run -http`:
// -live polls /campaign and renders progress until the campaign
// completes, -scrape health-checks the monitor and strict-parses a live
// /metrics exposition, -tail streams the /events journal verifying
// sequence order, and -promlint strict-parses an exposition file.
//
// Usage:
//
//	hauberk-report -fig all -scale quick
//	hauberk-report -fig 13 -scale full
//	hauberk-report -fig all -scale full -md > EXPERIMENTS-data.md
//	hauberk-report -trace /tmp/t.jsonl
//	hauberk-report -live 127.0.0.1:8344
//	hauberk-report -scrape 127.0.0.1:8344
//	hauberk-report -tail 127.0.0.1:8344 -tail-n 25
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hauberk/internal/harness"
	"hauberk/internal/obs"
	"hauberk/internal/version"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 1,2,3,4,10,13,14,15,16,alpha,instr,all")
		scale    = flag.String("scale", "quick", "experiment scale: quick or full (plus tiny for -campaigns -submit)")
		md       = flag.Bool("md", false, "emit markdown instead of text tables")
		trace    = flag.String("trace", "", "render this JSONL event journal as a detect/diagnose/recover timeline instead of regenerating figures")
		campaign = flag.String("campaign", "", "merge the shard logs of this campaign store directory (written by `hauberk-run -campaign-dir`) and report the aggregate figures")

		live     = flag.String("live", "", "poll this monitor base URL's /campaign endpoint (from `hauberk-run -http`) and render live progress until the campaign completes")
		poll     = flag.Duration("poll", 500*time.Millisecond, "poll interval for -live")
		scrape   = flag.String("scrape", "", "GET /healthz, /readyz and /metrics from this monitor base URL and strict-parse the exposition")
		tail     = flag.String("tail", "", "stream events from this monitor base URL's /events endpoint and verify sequence order")
		tailN    = flag.Int("tail-n", 10, "number of events -tail waits for")
		tailWait = flag.Duration("tail-wait", 30*time.Second, "how long -tail waits for its events before giving up")
		promlint = flag.String("promlint", "", "strict-parse this Prometheus text exposition file (\"-\" = stdin)")

		campaigns   = flag.String("campaigns", "", "hauberkd base URL: list campaigns, or act on one with -submit/-id/-cancel/-wait/-events/-digest")
		submit      = flag.String("submit", "", "-campaigns: submit a campaign of this program (scale from -scale, dataset from -dataset)")
		dataset     = flag.Int("dataset", 0, "-campaigns -submit: dataset index")
		tenant      = flag.String("tenant", "default", "-campaigns -submit: tenant name")
		id          = flag.String("id", "", "-campaigns: target campaign id")
		cancelFlag  = flag.Bool("cancel", false, "-campaigns: cancel the target campaign")
		wait        = flag.Bool("wait", false, "-campaigns: poll the target campaign to a terminal state; non-zero exit unless done")
		eventsN     = flag.Int("events", 0, "-campaigns: stream this many events from the target campaign's feed")
		digestOnly  = flag.Bool("digest", false, "-campaigns: print only the campaign's figure digest bytes")
		waitTimeout = flag.Duration("wait-timeout", 5*time.Minute, "-campaigns: deadline for -wait and 429 retries")

		benchDiff   = flag.Bool("bench-diff", false, "compare two BENCH_perf.json reports (old new, as positional args) and exit non-zero on regression")
		benchThresh = flag.Float64("bench-threshold", 5, "allowed slowdown in percent before -bench-diff fails")
		benchRatios = flag.Bool("bench-ratios-only", false, "-bench-diff compares only machine-independent speedup ratios (use across different hosts)")
		verFlag     = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *verFlag {
		fmt.Printf("hauberk-report %s (%s)\n", version.Version, version.GoVersion())
		return
	}
	if *benchDiff {
		os.Exit(benchDiffCmd(flag.Args(), harness.BenchDiffOptions{
			ThresholdPct: *benchThresh,
			RatiosOnly:   *benchRatios,
		}))
	}
	if *live != "" {
		os.Exit(liveCampaign(*live, *poll))
	}
	if *scrape != "" {
		os.Exit(scrapeMonitor(*scrape))
	}
	if *tail != "" {
		os.Exit(tailEvents(*tail, *tailN, *tailWait))
	}
	if *promlint != "" {
		os.Exit(promlintPath(*promlint))
	}
	if *campaigns != "" {
		os.Exit(campaignsCmd(campaignsOpts{
			base:    *campaigns,
			submit:  *submit,
			scale:   *scale,
			dataset: *dataset,
			tenant:  *tenant,
			id:      *id,
			cancel:  *cancelFlag,
			wait:    *wait,
			events:  *eventsN,
			digest:  *digestOnly,
			poll:    *poll,
			timeout: *waitTimeout,
		}))
	}

	if *trace != "" {
		events, err := obs.LoadJournal(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
		obs.WriteTimeline(os.Stdout, events)
		return
	}

	if *campaign != "" {
		man, cr, err := harness.LoadCampaignDir(*campaign)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
		t := harness.CampaignTable(man, cr)
		if *md {
			fmt.Print(t.Markdown())
		} else {
			fmt.Print(t.Render())
		}
		fmt.Printf("figure digest:\n%s", cr.FigureDigest())
		return
	}

	var sc harness.Scale
	switch *scale {
	case "quick":
		sc = harness.QuickScale()
	case "full":
		sc = harness.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	env := harness.NewEnv(sc)

	var tables []*harness.Table
	var err error
	switch *fig {
	case "all":
		tables, err = harness.AllFigures(env)
	case "1":
		tables, err = one(harness.Fig01(env))
	case "2":
		tables, err = one(harness.Fig02(env))
	case "3":
		tables, err = one(harness.Fig03(env))
	case "4":
		tables, err = one(harness.Fig04(env))
	case "10":
		tables, err = one(harness.Fig10(env))
	case "13":
		tables, err = one(harness.Fig13(env))
	case "14":
		tables, err = one(harness.Fig14(env))
	case "15":
		tables = []*harness.Table{harness.Fig15Table(env)}
	case "16":
		tables, err = one(harness.Fig16(env))
	case "alpha":
		tables, err = one(harness.AlphaCoverageTable(env))
	case "instr":
		tables = []*harness.Table{harness.InstrumentationTable()}
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
	for _, t := range tables {
		if *md {
			fmt.Print(t.Markdown())
		} else {
			fmt.Print(t.Render())
			fmt.Println()
		}
	}
}

func one(t *harness.Table, err error) ([]*harness.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*harness.Table{t}, nil
}
