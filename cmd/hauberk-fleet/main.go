// Command hauberk-fleet farms one SWIFI campaign over a roster of
// hauberkd nodes: the plan is split into shards (the store's
// shard-IofN tags), each shard is dispatched to a node over the
// daemon HTTP API, node health is folded into verdicts (degraded nodes
// deprioritized, quarantined nodes drained and skipped), and a shard
// whose node dies, drains or hangs mid-run fails over to another node.
// Fetched shards are appended to the merge directory's log and merge
// through the store's read side, and the printed figure digest is
// byte-identical to a single `hauberk-run -campaign-dir` of the same
// plan — including under chaos (HAUBERK_CHAOS netdrop/netstall entries
// fault the coordinator's own RPCs).
//
// Usage:
//
//	hauberk-fleet -nodes 127.0.0.1:8345,127.0.0.1:8346 -program cp \
//	              -merge-dir /tmp/fleet-merge [-shards 4] [-scale tiny]
//	              [-dataset 0] [-tenant fleet] [-isolation off|process]
//	              [-poll 150ms] [-rpc-timeout 10s] [-max-attempts 4]
//	              [-timeout 10m]
//
// Logs go to stderr; the campaign table and digest go to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"hauberk/internal/fleet"
	"hauberk/internal/guardian/procexec/chaos"
	"hauberk/internal/harness"
	"hauberk/internal/service"
	"hauberk/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	nodes := flag.String("nodes", "", "comma-separated hauberkd base URLs or host:port addresses (required)")
	program := flag.String("program", "", "workload to campaign (required)")
	scale := flag.String("scale", "tiny", "campaign scale: tiny, quick or full")
	dataset := flag.Int("dataset", 0, "input dataset index")
	shards := flag.Int("shards", 0, "plan split width (0 = one shard per node)")
	mergeDir := flag.String("merge-dir", "", "store directory whose journal.jsonl receives the fetched shards (required)")
	tenant := flag.String("tenant", "fleet", "tenant name for the shard submissions")
	isolation := flag.String("isolation", "", "worker isolation on the nodes: off or process (empty = node default)")
	poll := flag.Duration("poll", 150*time.Millisecond, "retry cadence: dispatch retries while a shard waits for a node, and the least gap between status requests to one node (completion itself is long-polled)")
	rpcTimeout := flag.Duration("rpc-timeout", 10*time.Second, "per-RPC deadline")
	maxAttempts := flag.Int("max-attempts", 4, "attempts per RPC before the node counts as failed")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall campaign deadline")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("hauberk-fleet %s (%s)\n", version.Version, version.GoVersion())
		return 0
	}
	if *nodes == "" || *program == "" || *mergeDir == "" {
		fmt.Fprintln(os.Stderr, "hauberk-fleet: -nodes, -program and -merge-dir are required")
		flag.Usage()
		return 2
	}
	var roster []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			roster = append(roster, n)
		}
	}

	// The coordinator's RPCs honor the same HAUBERK_CHAOS variable the
	// workers do — the net family (netdrop@i, netstall@i) indexes its
	// process-wide attempt sequence.
	plan, err := chaos.FromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hauberk-fleet:", err)
		return 2
	}
	tr := fleet.NewTransport(*rpcTimeout)
	tr.MaxAttempts = *maxAttempts
	tr.Chaos = plan

	logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmsgprefix)
	co, err := fleet.New(fleet.Config{
		Nodes:     roster,
		Transport: tr,
		Submission: service.Submission{
			Tenant:    *tenant,
			Program:   *program,
			Scale:     *scale,
			Dataset:   *dataset,
			Isolation: *isolation,
		},
		Shards:   *shards,
		MergeDir: *mergeDir,
		Poll:     *poll,
		Logf:     logger.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := co.Run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if res.Failovers > 0 {
		logger.Printf("fleet: completed with %d failover(s)", res.Failovers)
	}

	// Identical output contract to `hauberk-run -campaign-dir`: the
	// table, then the digest bytes — so the smoke scripts can diff the
	// two paths directly.
	fmt.Print(harness.CampaignTable(res.Manifest, res.Merged).Render())
	fmt.Printf("figure digest:\n%s", res.Digest)
	return 0
}
