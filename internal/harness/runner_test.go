package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"hauberk/internal/core/translate"
	"hauberk/internal/workloads"
)

// tinyScale keeps the differential campaigns fast: a handful of sites and
// masks is enough to exercise every store/watchdog/shard path.
func tinyScale() Scale {
	return Scale{
		MaxSites:     6,
		MasksPerSite: 4,
		BitCounts:    []int{1, 6},
		Fig15Samples: 100,
	}
}

// planTiny prepares a small campaign of CP.
func planTiny(t *testing.T, e *Env) *PreparedCampaign {
	t.Helper()
	pc, err := e.PrepareCampaign(workloads.ByName("CP"), workloads.Dataset{Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Plan) < 8 {
		t.Fatalf("tiny plan has only %d injections", len(pc.Plan))
	}
	return pc
}

// TestPreparedCampaignBacksTwoRuns pins the contract the daemon rests on:
// one shared preparation backs any number of runs, each with its own
// store, with byte-identical figure digests.
func TestPreparedCampaignBacksTwoRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	pc := planTiny(t, e)
	if pc.Mode != translate.ModeFIFT {
		t.Fatalf("prepared mode = %v, want ModeFIFT", pc.Mode)
	}
	var ref string
	for i := 0; i < 2; i++ {
		got, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = got.FigureDigest()
		} else if got.FigureDigest() != ref {
			t.Fatalf("second run's digest differs from the first's:\n%s\nvs\n%s", got.FigureDigest(), ref)
		}
	}
}

// TestRunPreparedRejectsBadOptions: options that cannot mean anything fail
// before any injection runs.
func TestRunPreparedRejectsBadOptions(t *testing.T) {
	e := NewEnv(tinyScale())
	pc := planTiny(t, e)
	for want, opts := range map[string]CampaignOptions{
		"needs its store dir": {Resume: true},
		"invalid shard":       {Shard: 2, Shards: 2},
	} {
		if _, err := e.RunPrepared(context.Background(), pc, opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: got %v, want an error saying %q", opts, err, want)
		}
	}
}

// TestCampaignResumeDifferential is the kill-and-resume guarantee: a
// campaign interrupted at ~50% and resumed yields figure aggregates
// byte-identical to the same campaign run uninterrupted, and to the same
// campaign run with no store directory at all.
func TestCampaignResumeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	e.Scale.Workers = 1 // serial dispatch makes the interrupt point exact
	pc := planTiny(t, e)

	// Reference 1: the store kept in memory.
	mem, err := e.RunPrepared(context.Background(), pc, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Reference 2: an uninterrupted durable run.
	full, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := full.FigureDigest(), mem.FigureDigest(); got != want {
		t.Fatalf("durable digest differs from the in-memory store's:\n%s\nvs\n%s", got, want)
	}

	// Interrupt at ~50%: cancel once half the shard is durably recorded.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	half := len(pc.Plan) / 2
	_, err = e.RunPrepared(ctx, pc, CampaignOptions{Dir: dir, OnResult: func(done, total int) {
		if done >= half {
			cancel()
		}
	}})
	if !errors.Is(err, ErrCampaignInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want ErrCampaignInterrupted", err)
	}

	// Resume from the kill: without Resume the store must refuse…
	if _, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: dir}); err == nil {
		t.Fatal("re-launch without Resume accepted a non-empty store")
	}
	// …and with Resume it completes only the remainder.
	resumed, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.FigureDigest(), full.FigureDigest(); got != want {
		t.Fatalf("resumed digest differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	// The merged-directory loader sees the same aggregates.
	_, loaded, err := LoadCampaignDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.FigureDigest(), full.FigureDigest(); got != want {
		t.Fatalf("loaded digest differs:\n%s\nvs\n%s", got, want)
	}
	if !reflect.DeepEqual(loaded.Results, resumed.Results) {
		t.Fatal("loaded results differ from the resumed run's results")
	}
	if !reflect.DeepEqual(loaded.Results, mem.Results) {
		t.Fatal("loaded results differ from the in-memory run's results")
	}
}

// TestCampaignShardDifferential proves -shard 0/2 + -shard 1/2 merged
// equals the unsharded run.
func TestCampaignShardDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	pc := planTiny(t, e)

	whole, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var shardTotal int
	for shard := 0; shard < 2; shard++ {
		part, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: dir, Shard: shard, Shards: 2})
		if err != nil {
			t.Fatalf("shard %d/2: %v", shard, err)
		}
		shardTotal += part.All.Total()
	}
	if shardTotal != len(pc.Plan) {
		t.Fatalf("shards cover %d injections, want %d", shardTotal, len(pc.Plan))
	}
	// Loading before both shards finish must fail loudly — simulated by a
	// directory holding only shard 0.
	_, merged, err := LoadCampaignDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.FigureDigest(), whole.FigureDigest(); got != want {
		t.Fatalf("merged shard digest differs from unsharded run:\n%s\nvs\n%s", got, want)
	}
}

// TestCampaignWatchdogClassifiesHang: with a vanishing timeout every
// injection is watchdog-killed and durably classified as a hang failure.
func TestCampaignWatchdogClassifiesHang(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	pc := planTiny(t, e)
	pc.Plan = pc.Plan[:4]
	cr, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: t.TempDir(), timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Hangs != len(pc.Plan) {
		t.Fatalf("watchdog classified %d hangs, want %d", cr.Hangs, len(pc.Plan))
	}
	for i, r := range cr.Results {
		if !r.TimedOut || r.Outcome != OutcomeFailure || !r.Hang {
			t.Fatalf("result %d = %+v, want a timed-out hang failure", i, r)
		}
	}
}
