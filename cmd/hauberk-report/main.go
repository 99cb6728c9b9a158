// Command hauberk-report regenerates the paper's evaluation tables and
// figures. Each figure of the paper maps to one table here; see DESIGN.md
// for the per-experiment index. It also renders telemetry event journals
// (written by `hauberk-run -trace`) as human-readable timelines, and is
// the client of the one campaign read API that hauberkd and
// `hauberk-run -http` both serve: -campaigns lists campaigns, follows one
// by -id (-wait to its terminal state, -events N of its event feed in
// sequence order, -digest), and against hauberkd also submits and
// cancels; -scrape health-checks either binary and strict-parses its live
// /metrics exposition; -bench-diff is the perf gate's comparator.
//
// Usage:
//
//	hauberk-report -fig all -scale quick
//	hauberk-report -fig 13 -scale full
//	hauberk-report -fig all -scale full -md > EXPERIMENTS-data.md
//	hauberk-report -trace /tmp/t.jsonl
//	hauberk-report -campaign /tmp/hauberkd-store -id c000003
//	hauberk-report -campaigns 127.0.0.1:8344 -id r012345 -wait
//	hauberk-report -campaigns 127.0.0.1:8344 -id r012345 -events 25
//	hauberk-report -scrape 127.0.0.1:8344
//	hauberk-report -bench-diff BENCHMARK.json bench_pairs.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hauberk/internal/harness"
	cstore "hauberk/internal/harness/store"
	"hauberk/internal/obs"
	"hauberk/internal/service"
	"hauberk/internal/version"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 1,2,3,4,10,13,14,15,16,alpha,instr,all")
		scale    = flag.String("scale", "quick", "experiment scale: quick or full (plus tiny for -campaigns -submit)")
		md       = flag.Bool("md", false, "emit markdown instead of text tables")
		trace    = flag.String("trace", "", "render this JSONL event journal as a detect/diagnose/recover timeline instead of regenerating figures")
		campaign = flag.String("campaign", "", "merge the shards in this campaign store directory's journal.jsonl (written by `hauberk-run -campaign-dir` or `hauberk-fleet -merge-dir`) and report the aggregate figures; with -id, read that campaign from this hauberkd store root's journal instead")

		poll   = flag.Duration("poll", 500*time.Millisecond, "-campaigns -wait: the longest one status request parks on the server")
		scrape = flag.String("scrape", "", "GET /healthz, /readyz and /metrics from this hauberkd or `hauberk-run -http` base URL and strict-parse the exposition")

		campaigns   = flag.String("campaigns", "", "hauberkd or `hauberk-run -http` base URL: list campaigns, or act on one with -submit/-id/-cancel/-wait/-events/-digest")
		submit      = flag.String("submit", "", "-campaigns: submit a campaign of this program (scale from -scale, dataset from -dataset)")
		dataset     = flag.Int("dataset", 0, "-campaigns -submit: dataset index")
		tenant      = flag.String("tenant", "default", "-campaigns -submit: tenant name")
		id          = flag.String("id", "", "-campaigns: target campaign id; -campaign: the campaign to read from a hauberkd store root")
		cancelFlag  = flag.Bool("cancel", false, "-campaigns: cancel the target campaign")
		wait        = flag.Bool("wait", false, "-campaigns: long-poll the target campaign to a terminal state; non-zero exit unless done")
		eventsN     = flag.Int("events", 0, "-campaigns: stream this many events from the target campaign's feed")
		digestOnly  = flag.Bool("digest", false, "-campaigns: print only the campaign's figure digest bytes")
		waitTimeout = flag.Duration("wait-timeout", 5*time.Minute, "-campaigns: deadline for -wait and 429 retries")

		benchDiff = flag.Bool("bench-diff", false, "judge a paired campaign benchmark run (BENCHMARK.json pairs.txt, as positional args; see scripts/bench_pairs.sh) against BENCHMARK.json's bounds; exit 1 on a regression")
		verFlag   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *verFlag {
		fmt.Printf("hauberk-report %s (%s)\n", version.Version, version.GoVersion())
		return
	}
	if *benchDiff {
		os.Exit(benchDiffCmd(flag.Args(), os.Stdout))
	}
	if *scrape != "" {
		os.Exit(scrapeMonitor(*scrape))
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
		load := harness.LoadCampaignDir
		if *id != "" {
			load = func(root string) (cstore.Manifest, *harness.CampaignResult, error) {
				return service.LoadCampaign(root, *id)
			}
		}
		man, cr, err := load(*campaign)
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
