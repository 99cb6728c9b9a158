package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hauberk/internal/guardian/procexec/chaos"
	"hauberk/internal/harness"
	"hauberk/internal/service"
	"hauberk/internal/workloads"
)

// startNode builds and starts one real in-process hauberkd.
func startNode(t *testing.T, drainTimeout time.Duration) *service.Daemon {
	t.Helper()
	d, err := service.NewDaemon(service.Config{
		Addr:         "127.0.0.1:0",
		StoreRoot:    t.TempDir(),
		Slots:        1,
		DrainTimeout: drainTimeout,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Shutdown(ctx) //nolint:errcheck // best-effort cleanup
	})
	return d
}

// referenceDigest runs the same plan through the harness directly — the
// hauberk-run code path — and returns its figure digest.
func referenceDigest(t *testing.T, program, scaleName string, dataset int) string {
	t.Helper()
	scale, ok := harness.ScaleByName(scaleName)
	if !ok {
		t.Fatalf("unknown scale %q", scaleName)
	}
	env := harness.NewEnv(scale)
	pc, err := env.PrepareCampaign(workloads.ByName(program), workloads.Dataset{Index: dataset})
	if err != nil {
		t.Fatalf("prepare reference: %v", err)
	}
	dir := t.TempDir()
	if _, err := env.RunPrepared(context.Background(), pc, harness.CampaignOptions{Dir: dir}); err != nil {
		t.Fatalf("run reference: %v", err)
	}
	_, merged, err := harness.LoadCampaignDir(dir)
	if err != nil {
		t.Fatalf("load reference: %v", err)
	}
	return merged.FigureDigest()
}

// TestFleetDigestMatchesSingleNode is the fleet's correctness contract:
// a campaign farmed over three daemons merges to a figure digest
// byte-identical to one uninterrupted single-process run of the plan.
func TestFleetDigestMatchesSingleNode(t *testing.T) {
	nodes := []string{
		startNode(t, 30*time.Second).Addr(),
		startNode(t, 30*time.Second).Addr(),
		startNode(t, 30*time.Second).Addr(),
	}
	co, err := New(Config{
		Nodes:      nodes,
		Submission: service.Submission{Tenant: "fleet", Program: "CP", Scale: "tiny"},
		Shards:     3,
		MergeDir:   t.TempDir(),
		Poll:       20 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failovers != 0 {
		t.Errorf("clean fleet reported %d failovers", res.Failovers)
	}
	if want := referenceDigest(t, "CP", "tiny", 0); res.Digest != want {
		t.Fatalf("fleet digest diverged from single-node run:\nfleet:\n%s\nsingle:\n%s", res.Digest, want)
	}
}

// TestFleetFailsFastOnRejectedSubmission: a submission the daemons refuse
// (here a dataset index CP does not define) aborts the run at the first
// dispatch with the daemon's 400, instead of cycling through the roster.
func TestFleetFailsFastOnRejectedSubmission(t *testing.T) {
	co, err := New(Config{
		Nodes:      []string{startNode(t, 30*time.Second).Addr(), startNode(t, 30*time.Second).Addr()},
		Submission: service.Submission{Tenant: "fleet", Program: "CP", Scale: "tiny", Dataset: 52},
		Shards:     2,
		MergeDir:   t.TempDir(),
		Poll:       20 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err = co.Run(ctx)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("Run with an out-of-range dataset: %v, want the daemon's 400", err)
	}
}

// TestFleetDigestUnderNetChaos re-runs the differential with planned
// netdrop/netstall faults on the coordinator's own RPC stream: the
// bounded retry envelope absorbs them and the digest must not move.
func TestFleetDigestUnderNetChaos(t *testing.T) {
	nodes := []string{
		startNode(t, 30*time.Second).Addr(),
		startNode(t, 30*time.Second).Addr(),
	}
	plan, err := chaos.Parse("netdrop@1,netstall@4,netdrop@9")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(time.Second)
	tr.Chaos = plan
	tr.Sleep = func(time.Duration) {} // stalls and backoffs resolve instantly
	tr.Jitter = func() float64 { return 0 }
	co, err := New(Config{
		Nodes:      nodes,
		Transport:  tr,
		Submission: service.Submission{Tenant: "fleet", Program: "CP", Scale: "tiny"},
		Shards:     2,
		MergeDir:   t.TempDir(),
		Poll:       20 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("Run under net chaos: %v", err)
	}
	if tr.Retries() == 0 {
		t.Error("chaos plan armed but no RPC attempt was ever retried")
	}
	if want := referenceDigest(t, "CP", "tiny", 0); res.Digest != want {
		t.Fatalf("digest moved under net chaos:\nfleet:\n%s\nsingle:\n%s", res.Digest, want)
	}
}

// TestFleetFailoverOnNodeDeath kills a daemon mid-shard (drain with the
// shard pinned in flight, so the executor checkpoints and the HTTP
// plane goes away) and requires: the victim's campaign lands in
// interrupted (resumable), never failed; the coordinator fails the
// shard over; and the merged digest is byte-identical to an undisturbed
// single-node run.
func TestFleetFailoverOnNodeDeath(t *testing.T) {
	victim := startNode(t, time.Second) // short drain: Shutdown returns with the shard still pinned
	healthy := startNode(t, 30*time.Second)

	pinned := make(chan struct{})
	release := make(chan struct{})
	var pinInstalled, pinFired atomic.Bool
	var once sync.Once
	service.SetTestOptsHook(func(c *service.Campaign, opts *harness.CampaignOptions) {
		// Pin only the FIRST shard-0 execution (the victim's); the
		// failover re-run must proceed unimpeded.
		if opts.Shard != 0 || !pinInstalled.CompareAndSwap(false, true) {
			return
		}
		opts.OnResult = func(done, total int) {
			if done >= 1 {
				pinFired.Store(true)
				once.Do(func() { close(pinned) })
				<-release
			}
		}
	})
	defer service.SetTestOptsHook(nil)

	cfg := Config{
		Nodes:      []string{victim.Addr(), healthy.Addr()},
		Submission: service.Submission{Tenant: "fleet", Program: "CP", Scale: "quick"},
		Shards:     2,
		MergeDir:   t.TempDir(),
		Poll:       20 * time.Millisecond,
		Logf:       t.Logf,
	}
	tr := NewTransport(time.Second)
	tr.MaxAttempts = 2
	tr.Backoff.Init, tr.Backoff.Max = 10, 50
	cfg.Transport = tr
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	go func() {
		res, err := co.Run(ctx)
		done <- outcome{res, err}
	}()

	select {
	case <-pinned:
	case <-time.After(2 * time.Minute):
		t.Fatal("shard 0 never started producing results on the victim")
	}
	// Drain the victim with the shard pinned mid-run: the short drain
	// window expires, the HTTP plane closes, and only then is the pin
	// released so the executor observes the cancellation and checkpoints.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := victim.Shutdown(sctx); err != nil {
		t.Fatalf("victim shutdown: %v", err)
	}
	scancel()
	close(release)

	out := <-done
	if out.err != nil {
		t.Fatalf("fleet run with node death: %v", out.err)
	}
	if out.res.Failovers < 1 {
		t.Errorf("Failovers = %d, want at least 1", out.res.Failovers)
	}
	if !pinFired.Load() {
		t.Error("pin never engaged; the test proved nothing about mid-shard death")
	}
	// The victim checkpointed its shard as resumable — interrupted, not
	// failed — which is what made the failover safe to merge.
	var sawInterrupted bool
	for _, st := range victim.List() {
		if st.State == service.StateFailed {
			t.Errorf("victim classified %s as failed (%s); a drained shard must be interrupted", st.ID, st.Error)
		}
		if st.State == service.StateInterrupted {
			sawInterrupted = true
		}
	}
	if !sawInterrupted {
		t.Error("victim has no interrupted campaign; drain did not checkpoint the in-flight shard")
	}
	if want := referenceDigest(t, "CP", "quick", 0); out.res.Digest != want {
		t.Fatalf("failover digest diverged from single-node run:\nfleet:\n%s\nsingle:\n%s", out.res.Digest, want)
	}
}

// TestFleetPushesShardCompletion: with the retry cadence set far beyond
// the campaign's length, the coordinator still finishes promptly, because
// each node answers a status long-poll the moment its shard settles. The
// nodes count those answers as settled waits.
func TestFleetPushesShardCompletion(t *testing.T) {
	daemons := []*service.Daemon{startNode(t, 30*time.Second), startNode(t, 30*time.Second)}
	co, err := New(Config{
		Nodes:      []string{daemons[0].Addr(), daemons[1].Addr()},
		Submission: service.Submission{Tenant: "fleet", Program: "CP", Scale: "tiny"},
		Shards:     2,
		MergeDir:   t.TempDir(),
		Poll:       time.Hour,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t0 := time.Now()
	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("Run with an hour-long poll: %v", err)
	}
	t.Logf("fleet campaign took %s", time.Since(t0))
	if want := referenceDigest(t, "CP", "tiny", 0); res.Digest != want {
		t.Fatalf("fleet digest diverged from single-node run:\nfleet:\n%s\nsingle:\n%s", res.Digest, want)
	}
	for _, d := range daemons {
		resp, err := http.Get("http://" + d.Addr() + "/metrics")
		if err != nil {
			t.Fatalf("GET metrics: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if !strings.Contains(string(raw), `hauberkd_status_waits_total{result="settled"} 1`) {
			t.Errorf("node %s did not answer exactly one settled status wait:\n%s", d.Addr(), raw)
		}
	}
}
