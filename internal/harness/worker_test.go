package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hauberk/internal/core/translate"
	"hauberk/internal/guardian"
	"hauberk/internal/guardian/procexec"
	"hauberk/internal/guardian/procexec/chaos"
	cstore "hauberk/internal/harness/store"
	"hauberk/internal/obs"
	"hauberk/internal/swifi"
)

// isoWorkerEnv re-execs the test binary as an injection worker, the same
// trick `hauberk-run -worker` plays on the real binary.
const isoWorkerEnv = "HAUBERK_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(isoWorkerEnv) == "1" {
		if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// isoOpts builds CampaignOptions that run workers as re-execs of this test
// binary, optionally with a worker-side chaos spec armed via the
// environment (the same channel the real binary inherits HAUBERK_CHAOS
// through).
func isoOpts(t *testing.T, dir, chaosSpec string) CampaignOptions {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	env := []string{isoWorkerEnv + "=1"}
	if chaosSpec != "" {
		env = append(env, chaos.EnvVar+"="+chaosSpec)
	}
	return CampaignOptions{
		Dir:        dir,
		Isolation:  IsolationProcess,
		WorkerArgv: []string{exe},
		WorkerEnv:  env,
		backoff:    guardian.BackoffPolicy{Init: 1, Factor: 2, Max: 10},
	}
}

// TestIsolatedCampaignDigestIdentical is the acceptance bar for process
// isolation: the same campaign run in-process and behind the subprocess
// boundary must produce byte-identical figure aggregates.
func TestIsolatedCampaignDigestIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	e.Scale.Workers = 2
	pc := planTiny(t, e)

	ref, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	sink := &obs.MemSink{}
	e.WithObs(obs.New(sink))
	iso, err := e.RunPrepared(context.Background(), pc, isoOpts(t, t.TempDir(), ""))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := iso.FigureDigest(), ref.FigureDigest(); got != want {
		t.Fatalf("isolated digest differs from in-process run:\n%s\nvs\n%s", got, want)
	}
	// The same boundary with the store kept in memory, on the workers the
	// first campaign left in the Env's pool.
	spawned := e.Obs.Metrics().Counter("hauberk_worker_spawns_total").Value()
	if spawned < 1 {
		t.Errorf("hauberk_worker_spawns_total = %d; the isolated run spawned no workers", spawned)
	}
	isoMem, err := e.RunPrepared(context.Background(), pc, isoOpts(t, "", ""))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := isoMem.FigureDigest(), ref.FigureDigest(); got != want {
		t.Fatalf("isolated in-memory digest differs from in-process run:\n%s\nvs\n%s", got, want)
	}
	if n := e.Obs.Metrics().Counter("hauberk_worker_spawns_total").Value(); n != spawned {
		t.Errorf("the second isolated campaign on one Env spawned %d workers; it should check out the pooled ones", n-spawned)
	}
	if n := e.Obs.Metrics().Counter("hauberk_worker_crashes_total").Value(); n != 0 {
		t.Errorf("hauberk_worker_crashes_total = %d on clean runs", n)
	}
}

// TestIsolatedCampaignChaosKillAndResume is the hard differential: workers
// are SIGKILLed mid-campaign (chaos kill@2 — the third request of every
// worker process dies with the whole group), the campaign itself is
// interrupted at ~50% and resumed, and the final aggregates must still be
// byte-identical to the clean in-process run, with no lost or duplicated
// store records.
func TestIsolatedCampaignChaosKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	e.Scale.Workers = 1 // serial dispatch makes the interrupt point exact
	pc := planTiny(t, e)

	ref, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted run under worker-kill chaos: every crash is transient
	// (the retry lands on a fresh worker's first request), so the digest
	// must not move.
	sink := &obs.MemSink{}
	e.WithObs(obs.New(sink))
	full, err := e.RunPrepared(context.Background(), pc, isoOpts(t, t.TempDir(), "kill@2"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := full.FigureDigest(), ref.FigureDigest(); got != want {
		t.Fatalf("chaos-kill digest differs from clean run:\n%s\nvs\n%s", got, want)
	}
	if n := e.Obs.Metrics().Counter("hauberk_worker_crashes_total").Value(); n < 1 {
		t.Errorf("kill@2 campaign recorded no worker crashes")
	}
	if n := e.Obs.Metrics().Counter("hauberk_worker_restarts_total").Value(); n < 1 {
		t.Errorf("kill@2 campaign recorded no worker restarts")
	}

	// Now interrupt the chaos campaign at ~50% and resume it.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	half := len(pc.Plan) / 2
	opts := isoOpts(t, dir, "kill@2")
	opts.OnResult = func(done, total int) {
		if done >= half {
			cancel()
		}
	}
	_, err = e.RunPrepared(ctx, pc, opts)
	if !errors.Is(err, ErrCampaignInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want ErrCampaignInterrupted", err)
	}

	ropts := isoOpts(t, dir, "kill@2")
	ropts.Resume = true
	resumed, err := e.RunPrepared(context.Background(), pc, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.FigureDigest(), ref.FigureDigest(); got != want {
		t.Fatalf("resumed chaos digest differs from clean run:\n%s\nvs\n%s", got, want)
	}
	_, loaded, err := LoadCampaignDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Results) != len(pc.Plan) {
		t.Fatalf("store holds %d records for a %d-injection plan (lost or duplicated work)",
			len(loaded.Results), len(pc.Plan))
	}
	if got, want := loaded.FigureDigest(), ref.FigureDigest(); got != want {
		t.Fatalf("loaded digest differs:\n%s\nvs\n%s", got, want)
	}
}

// TestIsolatedCampaignChaosInsideRuns: with the plan handed out in
// pipelined runs, a chaos kill or corrupt entry lands in the middle of a
// run, with later requests of the run already written to the dying
// worker. The digest must equal the in-process one, and the store's log
// must hold every plan index exactly once: the request that died is
// retried, the ones queued behind it re-sent, none recorded twice.
func TestIsolatedCampaignChaosInsideRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	forceBudget(t, 1)
	e := NewEnv(tinyScale())
	e.Scale.Workers = 2
	pc := planTiny(t, e)
	if first := len(pc.Plan) / 4; first <= 5 {
		t.Fatalf("a %d-injection plan's first runs (%d) are too short for kill@5 to land inside one", len(pc.Plan), first)
	}
	ref, err := e.RunPrepared(context.Background(), pc, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// One mode per campaign: a fresh worker counts from 0 again, so of two
	// entries only the lower index would ever fire.
	for _, spec := range []string{"kill@5", "corrupt@5"} {
		e.WithObs(obs.New(&obs.MemSink{}))
		dir := t.TempDir()
		iso, err := e.RunPrepared(context.Background(), pc, isoOpts(t, dir, spec))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := iso.FigureDigest(), ref.FigureDigest(); got != want {
			t.Fatalf("%s digest differs from the in-process run:\n%s\nvs\n%s", spec, got, want)
		}
		if n := e.Obs.Metrics().Counter("hauberk_worker_crashes_total").Value(); n < 1 {
			t.Errorf("%s: no worker crashed", spec)
		}
		journal, err := os.ReadFile(filepath.Join(dir, cstore.JournalFile))
		if err != nil {
			t.Fatal(err)
		}
		l, err := cstore.ReadLog(dir, journal, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, raw, err := l.Snapshot(cstore.ShardTag(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, len(pc.Plan))
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var rec cstore.Record
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: store line %q: %v", spec, line, err)
			}
			seen[rec.Idx]++
		}
		for idx, n := range seen {
			if n != 1 {
				t.Errorf("%s: plan index %d has %d records in the store, want 1", spec, idx, n)
			}
		}
	}
}

// TestIsolatedCampaignSpawnFallback starves every supervisor's first spawn
// (chaos spawnfail@0): those injections must degrade gracefully to the
// in-process path — counted, and with the digest unmoved.
func TestIsolatedCampaignSpawnFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	e.Scale.Workers = 2
	pc := planTiny(t, e)

	ref, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	sink := &obs.MemSink{}
	e.WithObs(obs.New(sink))
	opts := isoOpts(t, t.TempDir(), "")
	opts.Chaos, err = chaos.Parse("spawnfail@0")
	if err != nil {
		t.Fatal(err)
	}
	iso, err := e.RunPrepared(context.Background(), pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := iso.FigureDigest(), ref.FigureDigest(); got != want {
		t.Fatalf("spawn-fallback digest differs from clean run:\n%s\nvs\n%s", got, want)
	}
	if n := e.Obs.Metrics().Counter("hauberk_worker_spawn_fallbacks_total").Value(); n < 1 {
		t.Errorf("spawnfail@0 campaign recorded no in-process fallbacks")
	}
}

// TestIsolatedCampaignPersistentFaultsClassified arms persistent chaos
// (every fresh worker fails its first request) and requires the campaign
// to finish anyway with every injection classified — crashes for panic@0,
// deadline hangs for stall@0 — instead of wedging or dying.
func TestIsolatedCampaignPersistentFaultsClassified(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	e.Scale.Workers = 4
	pc := planTiny(t, e)

	for _, tc := range []struct {
		name, spec string
		wantHang   bool
	}{
		{"panic-crash", "panic@0", false},
		{"stall-hang", "stall@0", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := isoOpts(t, t.TempDir(), tc.spec)
			opts.maxRestarts = -1                 // no worker restarts: fail fast
			opts.timeout = 400 * time.Millisecond // stall is caught by this deadline
			opts.warmupGrace = 5 * time.Millisecond
			out, err := e.RunPrepared(context.Background(), pc, opts)
			if err != nil {
				t.Fatalf("campaign under %s did not complete: %v", tc.spec, err)
			}
			if got := out.All[OutcomeFailure]; got != len(pc.Plan) {
				t.Fatalf("%d/%d injections classified as failure under %s",
					got, len(pc.Plan), tc.spec)
			}
			for _, r := range out.Results {
				if r.Hang != tc.wantHang {
					t.Fatalf("injection %s: Hang = %v, want %v under %s",
						r.Injection.Cmd.Key(), r.Hang, tc.wantHang, tc.spec)
				}
			}
		})
	}
}

// TestIsolatedCampaignUnknownMode rejects typoed isolation modes up front.
func TestIsolatedCampaignUnknownMode(t *testing.T) {
	e := NewEnv(tinyScale())
	_, err := e.RunPrepared(context.Background(), planTiny(t, e), CampaignOptions{Dir: t.TempDir(), Isolation: "container"})
	if err == nil || !strings.Contains(err.Error(), "unknown isolation mode") {
		t.Fatalf("unknown isolation mode: got %v, want rejection", err)
	}
}

// idleWorkers counts the supervisors e's worker pool holds idle.
func idleWorkers(e *Env) int {
	p := &e.shared.workers
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ws := range p.idle {
		n += len(ws)
	}
	return n
}

// TestWorkerPoolOutlivesCampaigns: back-to-back isolated campaigns on one
// Env and its clones spawn one worker per granted slot in all, not one per
// slot per campaign, with the digest unmoved; a fresh Env spawns its own.
func TestWorkerPoolOutlivesCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	e.Scale.Workers = 2
	pc := planTiny(t, e)
	ref, err := e.RunPrepared(context.Background(), pc, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(&obs.MemSink{})
	e.WithObs(tel)
	spawns := func() int64 { return tel.Metrics().Counter("hauberk_worker_spawns_total").Value() }
	for k, env := range []*Env{e, e.Clone(), e, e.Clone()} {
		iso, err := env.RunPrepared(context.Background(), pc, isoOpts(t, "", ""))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := iso.FigureDigest(), ref.FigureDigest(); got != want {
			t.Fatalf("campaign %d: isolated digest differs from in-process run:\n%s\nvs\n%s", k, got, want)
		}
	}
	if n, idle := spawns(), idleWorkers(e); n < 1 || n != int64(idle) || idle > e.campaignWorkers() {
		t.Fatalf("4 campaigns spawned %d workers and pooled %d; want one per granted slot (at most %d)", n, idle, e.campaignWorkers())
	}

	before := spawns()
	fresh := NewEnv(tinyScale()).WithObs(tel)
	fresh.Scale.Workers = 1
	if _, err := fresh.RunPrepared(context.Background(), pc, isoOpts(t, "", "")); err != nil {
		t.Fatal(err)
	}
	if spawns() != before+1 {
		t.Errorf("a fresh Env spawned %d workers, want its own one", spawns()-before)
	}
}

// TestWorkerPoolKeysByConfiguration: campaigns whose worker environment,
// chaos plan or test overrides differ never share a worker; the same
// configuration does.
func TestWorkerPoolKeysByConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	e.Scale.Workers = 1
	tel := obs.New(&obs.MemSink{})
	e.WithObs(tel)
	pc := planTiny(t, e)
	clean := isoOpts(t, "", "")
	otherEnv := isoOpts(t, "", "")
	otherEnv.WorkerEnv = append(otherEnv.WorkerEnv, "HAUBERK_TEST_POOL=1")
	withChaos := isoOpts(t, "", "")
	var err error
	if withChaos.Chaos, err = chaos.Parse("spawnfail@99"); err != nil {
		t.Fatal(err)
	}
	// isoOpts overrides the restart back-off; this one keeps procexec's.
	defaultBackoff := isoOpts(t, "", "")
	defaultBackoff.backoff = guardian.BackoffPolicy{}
	// Each campaign checks out right after the last one returned its
	// worker, well inside workerIdleTimeout.
	for i, step := range []struct {
		opts   CampaignOptions
		spawns int64
	}{{clean, 1}, {clean, 1}, {otherEnv, 2}, {withChaos, 3}, {defaultBackoff, 4}} {
		if _, err := e.RunPrepared(context.Background(), pc, step.opts); err != nil {
			t.Fatal(err)
		}
		if n, want := tel.Metrics().Counter("hauberk_worker_spawns_total").Value(), step.spawns; n != want {
			t.Fatalf("after campaign %d: %d spawns, want %d (one per distinct worker configuration)", i, n, want)
		}
	}
}

// TestWorkerPoolInterruptedCampaignRespawns: an interrupted campaign leaves
// no worker behind, and the next campaign's slot spawns afresh.
func TestWorkerPoolInterruptedCampaignRespawns(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	e.Scale.Workers = 1
	tel := obs.New(&obs.MemSink{})
	e.WithObs(tel)
	pc := planTiny(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := isoOpts(t, t.TempDir(), "")
	opts.OnResult = func(done, _ int) {
		if done >= 2 {
			cancel()
		}
	}
	if _, err := e.RunPrepared(ctx, pc, opts); !errors.Is(err, ErrCampaignInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want ErrCampaignInterrupted", err)
	}
	if n := idleWorkers(e); n != 0 {
		t.Fatalf("the interrupted campaign pooled %d supervisors, want its workers closed", n)
	}
	if _, err := e.RunPrepared(context.Background(), pc, isoOpts(t, "", "")); err != nil {
		t.Fatal(err)
	}
	if n := tel.Metrics().Counter("hauberk_worker_spawns_total").Value(); n != 2 {
		t.Fatalf("%d spawns, want 2: the campaign after the interrupt spawns its own worker", n)
	}
}

// TestWorkerPoolReapsIdleWorkers: a worker idle for workerIdleTimeout is
// closed, so a dropped Env leaves no process behind.
func TestWorkerPoolReapsIdleWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	e.Scale.Workers = 1
	if _, err := e.RunPrepared(context.Background(), planTiny(t, e), isoOpts(t, "", "")); err != nil {
		t.Fatal(err)
	}
	if n := idleWorkers(e); n != 1 {
		t.Fatalf("%d pooled supervisors after the campaign, want 1", n)
	}
	time.Sleep(2 * workerIdleTimeout)
	if n := idleWorkers(e); n != 0 {
		t.Fatalf("%d supervisors still pooled after %v idle", n, 2*workerIdleTimeout)
	}
	if n := procexec.KillAllWorkers(); n != 0 {
		t.Fatalf("KillAllWorkers found %d live workers after the idle interval", n)
	}
}

// TestWorkerTelemetryFollowsHolder: a pooled supervisor reports to the
// campaign holding it. The worker's chaos kill lands on its first request
// of the second campaign, so that campaign's journal — and only it —
// records the crash and the restart.
func TestWorkerTelemetryFollowsHolder(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	base := NewEnv(tinyScale())
	base.Scale.Workers = 1
	pc := planTiny(t, base)
	opts := isoOpts(t, "", fmt.Sprintf("kill@%d", len(pc.Plan)))
	var sinks [2]*obs.MemSink
	for i := range sinks {
		sinks[i] = &obs.MemSink{}
		if _, err := base.Clone().WithObs(obs.New(sinks[i])).RunPrepared(context.Background(), pc, opts); err != nil {
			t.Fatal(err)
		}
	}
	count := func(s *obs.MemSink, typ string) int {
		n := 0
		for _, ev := range s.Events() {
			if ev.Type == typ {
				n++
			}
		}
		return n
	}
	for i, want := range []map[string]int{
		{obs.EvWorkerSpawn: 1, obs.EvWorkerCrash: 0, obs.EvWorkerRestart: 0},
		{obs.EvWorkerSpawn: 1, obs.EvWorkerCrash: 1, obs.EvWorkerRestart: 1},
	} {
		for typ, n := range want {
			if got := count(sinks[i], typ); got != n {
				t.Errorf("campaign %d journal: %d %s events, want %d", i+1, got, typ, n)
			}
		}
	}
}

// TestIsolatedCampaignRefusesEditedStaging: a campaign whose range store
// was widened after preparation is not the experiment a worker stages, so
// the isolated run fails loudly instead of running the unedited one; the
// unedited campaign still runs on the same workers.
func TestIsolatedCampaignRefusesEditedStaging(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	e := NewEnv(tinyScale())
	e.Scale.Workers = 1
	pc := planTiny(t, e)
	widened := *pc
	prof := *pc.Prof
	prof.Store = pc.Prof.Store.Clone()
	prof.Store.SetAlpha(2)
	widened.Prof = &prof
	if _, err := e.RunPrepared(context.Background(), &widened, CampaignOptions{}); err != nil {
		t.Fatalf("the widened campaign in-process: %v", err)
	}
	_, err := e.RunPrepared(context.Background(), &widened, isoOpts(t, "", ""))
	if err == nil || !strings.Contains(err.Error(), "campaign prepared") {
		t.Fatalf("widened-store isolated campaign returned %v, want a staging mismatch", err)
	}
	ref, err := e.RunPrepared(context.Background(), pc, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	iso, err := e.RunPrepared(context.Background(), pc, isoOpts(t, "", ""))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := iso.FigureDigest(), ref.FigureDigest(); got != want {
		t.Fatalf("unedited isolated digest differs from in-process run:\n%s\nvs\n%s", got, want)
	}
}

// TestWorkerStagingLRU pins the worker's staging cache: a hit moves the
// entry to the front, a miss beyond capacity evicts the least recently
// used, and an evicted experiment re-staged gives the same outcome.
func TestWorkerStagingLRU(t *testing.T) {
	e := NewEnv(tinyScale())
	pc := planTiny(t, e)
	req := isoRequest{
		Program: pc.Spec.Name,
		Dataset: pc.Golden.Dataset.Index,
		Mode:    pc.Mode,
		Staging: stagingHash(pc.Spec, pc.Golden, pc.Prof.Store, pc.Mode, e.Config),
		Cmd:     pc.Plan[0].Cmd,
	}
	want, err := e.RunInjection(pc.Spec, pc.Golden, pc.Prof.Store, pc.Mode, pc.Plan[0])
	if err != nil {
		t.Fatal(err)
	}
	w := newWorkerState(2)
	keys := func() []string {
		var out []string
		for _, st := range w.lru {
			out = append(out, st.key)
		}
		return out
	}
	first, err := w.run(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		dataset int
		want    string
	}{
		{1, "CP|1 CP|0"},
		{0, "CP|0 CP|1"}, // a hit moves to the front
		{2, "CP|2 CP|0"}, // a miss evicts the least recently used
		{1, "CP|1 CP|2"},
	} {
		if _, err := w.stage("CP", step.dataset); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(keys(), " "); got != step.want {
			t.Fatalf("after staging CP|%d: LRU %q, want %q", step.dataset, got, step.want)
		}
	}
	again, err := w.run(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(keys(), " "); got != "CP|0 CP|1" {
		t.Fatalf("after re-staging CP|0: LRU %q", got)
	}
	if *first != *again || first.Outcome != want.Outcome || first.Hang != want.Hang || first.Activated != want.Activated {
		t.Fatalf("re-staged outcome %+v, first %+v, in-process %+v", *again, *first, *want)
	}
}

// TestIsoPayloadRoundTrip: a request with extreme command values, and
// every outcome with every flag combination, decode to what was encoded.
func TestIsoPayloadRoundTrip(t *testing.T) {
	for _, req := range []isoRequest{
		{Program: "MRI-FHD", Dataset: 51, Mode: translate.ModeFIFT, Staging: math.MaxUint64,
			Cmd: swifi.Command{Site: 123, Instance: -3, Mask: math.MaxUint32, Count: 10000, Persistent: true}},
		{Program: "", Dataset: -1, Mode: math.MaxUint8, Staging: 0,
			Cmd: swifi.Command{Site: math.MinInt, Instance: math.MinInt64, Mask: 0, Count: math.MaxInt64}},
		{Program: "CP", Cmd: swifi.Command{Site: math.MaxInt, Instance: math.MaxInt64, Mask: 1, Count: -1}},
	} {
		got, err := decodeIsoRequest(appendIsoRequest(nil, &req))
		if err != nil || got != req {
			t.Errorf("request %+v decodes to %+v, %v", req, got, err)
		}
	}
	inj := Injection{Cmd: swifi.Command{Site: 7, Instance: 3, Mask: 0x80}, Bits: 1}
	for o := OutcomeFailure; o <= OutcomeUndetected; o++ {
		for flags := 0; flags < 4; flags++ {
			want := InjectionResult{Injection: inj, Outcome: o, Hang: flags&1 != 0, Activated: flags&2 != 0}
			got, err := decodeIsoResult(appendIsoResult(nil, &want), inj)
			if err != nil || *got != want {
				t.Errorf("result %+v decodes to %+v, %v", want, got, err)
			}
		}
	}
}

// TestIsoPayloadMalformed: a request or result payload cut short or with
// bytes left over does not decode, and a worker handed such a request
// answers with an error frame without running an injection.
func TestIsoPayloadMalformed(t *testing.T) {
	req := appendIsoRequest(nil, &isoRequest{Program: "CP", Mode: translate.ModeFI, Staging: 1,
		Cmd: swifi.Command{Site: 1, Instance: 2, Mask: 4, Persistent: true}})
	res := appendIsoResult(nil, &InjectionResult{Outcome: OutcomeDetected, Hang: true})
	var bad [][]byte
	for n := range req {
		bad = append(bad, req[:n])
	}
	bad = append(bad, append(slices.Clone(req), 0))
	for _, p := range bad {
		if r, err := decodeIsoRequest(p); err == nil {
			t.Errorf("request payload % x decodes to %+v", p, r)
		}
	}
	for _, p := range [][]byte{nil, res[:1], append(slices.Clone(res), 0), {res[0], 4}, {0x7f, 0}} {
		if r, err := decodeIsoResult(p, Injection{}); err == nil {
			t.Errorf("result payload % x decodes to %+v", p, r)
		}
	}

	var in, out bytes.Buffer
	for i, p := range bad {
		if err := procexec.WriteFrame(&in, &procexec.Frame{Type: procexec.FrameRun, ID: fmt.Sprint(i), Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	w := newWorkerState(workerStagings)
	if err := procexec.Serve(&in, &out, w.serve, procexec.ServeOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := range bad {
		f, err := procexec.ReadFrame(&out)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != procexec.FrameError || f.ID != fmt.Sprint(i) || !strings.Contains(f.Error, "worker request") {
			t.Errorf("request %d (% x) answered with %+v, want an error frame", i, bad[i], f)
		}
	}
	if len(w.lru) != 0 {
		t.Errorf("malformed requests staged %d experiments, want none", len(w.lru))
	}
}
