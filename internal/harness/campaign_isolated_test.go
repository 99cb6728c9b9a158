package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"hauberk/internal/guardian"
	"hauberk/internal/guardian/procexec/chaos"
	"hauberk/internal/obs"
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
		Backoff:    guardian.BackoffPolicy{Init: 1, Factor: 2, Max: 10},
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
	// The same boundary with the store kept in memory.
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
	if n := e.Obs.Metrics().Counter("hauberk_worker_spawns_total").Value(); n <= spawned {
		t.Errorf("the isolated in-memory run spawned no workers")
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
// watchdog hangs for spin@0 — instead of wedging or dying.
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
		{"spin-hang", "spin@0", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := isoOpts(t, t.TempDir(), tc.spec)
			opts.Retries = -1                     // no worker restarts: fail fast
			opts.Timeout = 400 * time.Millisecond // spin is caught by this deadline
			opts.WorkerWarmupGrace = 5 * time.Millisecond
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

// TestGuardRunContainsPanic covers the in-process containment layer: a
// panic escaping the launch-level recover (setup, classification) becomes
// a classified crash failure, never a dead campaign goroutine.
func TestGuardRunContainsPanic(t *testing.T) {
	g := guard{timeout: time.Second}
	inj := Injection{Bits: 3}
	r, err := g.run(context.Background(), inj, func() (*InjectionResult, error) {
		panic("deliberate injection panic")
	})
	if err != nil {
		t.Fatalf("guard.run returned error %v for a panicking run", err)
	}
	if r.Outcome != OutcomeFailure || r.Hang {
		t.Fatalf("panicking run classified as %+v, want non-hang failure", r)
	}
}
