package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hauberk/internal/harness"
	cstore "hauberk/internal/harness/store"
	"hauberk/internal/service"
)

// testManifest is the synthetic campaign identity the fake nodes agree
// on: 4 injections split two ways.
func testManifest() cstore.Manifest {
	return cstore.Manifest{Program: "CP", Mode: 3, Injections: 4, PlanHash: "feedfacefeedface", Scale: "sites=2 masks=2 bits=[1 6]"}
}

// Canonical shard logs for the synthetic plan.
const (
	shard0Log = `{"idx":0,"id":"a","outcome":1,"bits":1}` + "\n" + `{"idx":2,"id":"c","outcome":4,"bits":6,"class":2}` + "\n"
	shard1Log = `{"idx":1,"id":"b","outcome":2,"bits":1}` + "\n" + `{"idx":3,"id":"d","outcome":3,"bits":6,"hang":true}` + "\n"
)

func fullSnapshot(shard int) service.StoreSnapshot {
	log, name := shard0Log, cstore.ShardFile(0, 2)
	if shard == 1 {
		log, name = shard1Log, cstore.ShardFile(1, 2)
	}
	return service.StoreSnapshot{
		State:    service.StateDone,
		Manifest: testManifest(),
		Files:    map[string]string{name: log},
	}
}

// fakeCampaign scripts one submission's lifecycle on a fake node: each
// status poll consumes the next state (the last one sticks), and the
// store endpoint serves the scripted snapshot.
type fakeCampaign struct {
	id     string
	sub    service.Submission
	states []service.State
	snap   service.StoreSnapshot
}

// fakeNode is an httptest server speaking just enough of the hauberkd
// API for the coordinator: submit, status, store, cancel, readyz.
type fakeNode struct {
	srv *httptest.Server

	mu        sync.Mutex
	campaigns map[string]*fakeCampaign
	canceled  []string
	subs      []service.Submission
	nextID    int
	// script decides a new submission's fate.
	script func(sub service.Submission) ([]service.State, service.StoreSnapshot)
}

func newFakeNode(t *testing.T, script func(sub service.Submission) ([]service.State, service.StoreSnapshot)) *fakeNode {
	t.Helper()
	n := &fakeNode{campaigns: make(map[string]*fakeCampaign), nextID: 1, script: script}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var sub service.Submission
		if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n.mu.Lock()
		id := fmt.Sprintf("c%06d", n.nextID)
		n.nextID++
		states, snap := n.script(sub)
		n.campaigns[id] = &fakeCampaign{id: id, sub: sub, states: states, snap: snap}
		n.subs = append(n.subs, sub)
		n.mu.Unlock()
		writeTestJSON(w, http.StatusCreated, service.Status{ID: id, State: service.StateQueued})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		c := n.campaigns[r.PathValue("id")]
		var st service.Status
		if c != nil {
			st = service.Status{ID: c.id, State: c.states[0]}
			if len(c.states) > 1 {
				c.states = c.states[1:]
			}
		}
		n.mu.Unlock()
		if st.ID == "" {
			http.Error(w, `{"error":"no such campaign"}`, http.StatusNotFound)
			return
		}
		writeTestJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/store", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		c := n.campaigns[r.PathValue("id")]
		n.mu.Unlock()
		if c == nil || c.snap.Manifest.Injections == 0 {
			http.Error(w, `{"error":"no store yet"}`, http.StatusNotFound)
			return
		}
		writeTestJSON(w, http.StatusOK, c.snap)
	})
	mux.HandleFunc("DELETE /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.canceled = append(n.canceled, r.PathValue("id"))
		n.mu.Unlock()
		writeTestJSON(w, http.StatusOK, service.Status{ID: r.PathValue("id"), State: service.StateCanceled})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

func writeTestJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func (n *fakeNode) submissions() []service.Submission {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]service.Submission(nil), n.subs...)
}

func (n *fakeNode) cancels() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.canceled...)
}

// completeImmediately scripts a node that finishes any shard at once.
func completeImmediately(sub service.Submission) ([]service.State, service.StoreSnapshot) {
	return []service.State{service.StateDone}, fullSnapshot(sub.Shard)
}

// fastConfig builds a coordinator config tuned for tests: tight poll,
// instant retry sleeps, deterministic jitter.
func fastConfig(t *testing.T, nodes ...string) Config {
	t.Helper()
	tr := NewTransport(2 * time.Second)
	tr.Sleep = func(time.Duration) {}
	tr.Jitter = func() float64 { return 0 }
	tr.MaxAttempts = 2
	return Config{
		Nodes:     nodes,
		Transport: tr,
		Submission: service.Submission{
			Tenant:  "fleet",
			Program: "CP",
			Scale:   "tiny",
		},
		Shards:   2,
		MergeDir: t.TempDir(),
		Poll:     5 * time.Millisecond,
		Logf:     t.Logf,
	}
}

// expectedDigest folds the canonical synthetic logs directly.
func expectedDigest(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	raw, err := json.Marshal(testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, log := range map[string]string{cstore.ShardFile(0, 2): shard0Log, cstore.ShardFile(1, 2): shard1Log} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(log), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, merged, err := harness.LoadCampaignDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return merged.FigureDigest()
}

func TestCoordinatorMergesAcrossNodes(t *testing.T) {
	a := newFakeNode(t, completeImmediately)
	b := newFakeNode(t, completeImmediately)
	co, err := New(fastConfig(t, a.srv.URL, b.srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failovers != 0 {
		t.Errorf("clean run reported %d failovers", res.Failovers)
	}
	if res.Merged.All.Total() != 4 {
		t.Errorf("merged %d records, want 4", res.Merged.All.Total())
	}
	if got, want := res.Digest, expectedDigest(t); got != want {
		t.Errorf("fleet digest diverged:\nfleet:\n%s\nexpected:\n%s", got, want)
	}
	// One shard each, in roster order.
	if sa, sb := a.submissions(), b.submissions(); len(sa) != 1 || len(sb) != 1 ||
		sa[0].Shard != 0 || sb[0].Shard != 1 || sa[0].Shards != 2 {
		t.Errorf("dispatch split: node a %+v, node b %+v", a.submissions(), b.submissions())
	}
}

// TestCoordinatorFailoverOnInterrupted is the drain-mid-shard contract:
// a node answering "interrupted" (SIGTERM drain, checkpointed store) is
// failover-eligible — its partial log is salvaged, the shard re-runs
// elsewhere, and the merge dedupes the byte-equal overlap. The digest
// is identical to a never-interrupted fleet.
func TestCoordinatorFailoverOnInterrupted(t *testing.T) {
	// Node a runs shard 0, checkpoints one record (plus a torn tail from
	// the kill), then reports interrupted.
	partial := service.StoreSnapshot{
		State:    service.StateInterrupted,
		Manifest: testManifest(),
		Files: map[string]string{
			cstore.ShardFile(0, 2): `{"idx":0,"id":"a","outcome":1,"bits":1}` + "\n" + `{"idx":2,"id":"c","outc`,
		},
	}
	a := newFakeNode(t, func(sub service.Submission) ([]service.State, service.StoreSnapshot) {
		return []service.State{service.StateRunning, service.StateInterrupted}, partial
	})
	// Node b completes anything; its shard-0 re-run carries a retry
	// count the first attempt never saw, which must not break dedup.
	b := newFakeNode(t, func(sub service.Submission) ([]service.State, service.StoreSnapshot) {
		snap := fullSnapshot(sub.Shard)
		if sub.Shard == 0 {
			snap.Files[cstore.ShardFile(0, 2)] = `{"idx":0,"id":"a","outcome":1,"bits":1,"retries":1}` + "\n" +
				`{"idx":2,"id":"c","outcome":4,"bits":6,"class":2}` + "\n"
		}
		return []service.State{service.StateDone}, snap
	})

	cfg := fastConfig(t, a.srv.URL, b.srv.URL)
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", res.Failovers)
	}
	if got, want := res.Digest, expectedDigest(t); got != want {
		t.Errorf("failover digest diverged:\nfleet:\n%s\nexpected:\n%s", got, want)
	}
	// The interrupted node's partial log was salvaged under a node tag
	// and its abandoned campaign was canceled (best-effort drain).
	salvaged, err := filepath.Glob(filepath.Join(cfg.MergeDir, "shard-0of2.partial1.*.jsonl"))
	if err != nil || len(salvaged) != 1 {
		t.Errorf("salvaged partial logs: %v (err %v), want exactly one", salvaged, err)
	}
	if len(a.cancels()) != 1 {
		t.Errorf("node a saw cancels %v, want its abandoned campaign canceled once", a.cancels())
	}
	// Shard 0 ran on a first, then re-ran on b.
	if sb := b.submissions(); len(sb) != 2 {
		t.Errorf("node b submissions %+v, want shard 1 plus the failover of shard 0", sb)
	}
}

// TestCoordinatorRejectsForeignManifest: a node that planned a
// different campaign (seed/scale drift) must abort the merge, never
// silently mix records.
func TestCoordinatorRejectsForeignManifest(t *testing.T) {
	a := newFakeNode(t, completeImmediately)
	b := newFakeNode(t, func(sub service.Submission) ([]service.State, service.StoreSnapshot) {
		snap := fullSnapshot(sub.Shard)
		snap.Manifest.PlanHash = "deadbeefdeadbeef"
		return []service.State{service.StateDone}, snap
	})
	co, err := New(fastConfig(t, a.srv.URL, b.srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := co.Run(ctx); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("Run = %v, want a refusing-to-merge error", err)
	}
}

// TestCoordinatorQuarantinesDeadNode: a node that never answers is
// degraded, then quarantined, and every shard lands on the live node.
func TestCoordinatorQuarantinesDeadNode(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from the first RPC

	b := newFakeNode(t, completeImmediately)
	co, err := New(fastConfig(t, deadURL, b.srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("Run with a dead node: %v", err)
	}
	if got, want := res.Digest, expectedDigest(t); got != want {
		t.Errorf("digest diverged with dead roster member:\nfleet:\n%s\nexpected:\n%s", got, want)
	}
	if sb := b.submissions(); len(sb) != 2 {
		t.Errorf("live node ran %d shards, want both", len(sb))
	}
	if co.nodes[0].health.Verdict() != Quarantined {
		t.Errorf("dead node verdict %s, want quarantined", co.nodes[0].health.Verdict())
	}
}

// TestCoordinatorAbortsWhenRosterDies: every node dead and shards
// pending must be a bounded error, not an infinite loop.
func TestCoordinatorAbortsWhenRosterDies(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	co, err := New(fastConfig(t, deadURL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := co.Run(ctx); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("Run = %v, want an all-quarantined abort", err)
	}
}

func TestCoordinatorConfigValidation(t *testing.T) {
	if _, err := New(Config{MergeDir: t.TempDir()}); err == nil {
		t.Error("New accepted an empty roster")
	}
	if _, err := New(Config{Nodes: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("New accepted a missing merge dir")
	}
}

// TestPickNodeAvoidsFailedOverNode: a failed-over shard waits for another
// live node, even a busy one, rather than go back to the node it left;
// it returns there only when no other node could ever take it.
func TestPickNodeAvoidsFailedOverNode(t *testing.T) {
	a, b := &node{health: &nodeHealth{}, shard: -1}, &node{health: &nodeHealth{}, shard: 1}
	co := &Coordinator{nodes: []*node{a, b}}
	if got := co.pickNode(a); got != nil {
		t.Errorf("pickNode(avoid a) with b busy = %p, want nil (wait for b)", got)
	}
	if got := co.pickNode(nil); got != a {
		t.Errorf("pickNode(nil) = %p, want the free node a", got)
	}
	b.shard = -1
	if got := co.pickNode(a); got != b {
		t.Errorf("pickNode(avoid a) with b free = %p, want b", got)
	}
	for i := 0; i < 3; i++ {
		b.health.observe(false)
	}
	if got := co.pickNode(a); got != a {
		t.Errorf("pickNode(avoid a) with b quarantined = %p, want a, the only node left", got)
	}
}

// TestCoordinatorPacesNodesWithoutLongPoll: the fake nodes ignore ?wait=
// and answer at once, like a daemon that predates the long-poll. The
// coordinator must then ask each node no faster than Poll, not spin.
func TestCoordinatorPacesNodesWithoutLongPoll(t *testing.T) {
	script := func(sub service.Submission) ([]service.State, service.StoreSnapshot) {
		running := service.StateRunning
		return []service.State{running, running, running, running, running, service.StateDone}, fullSnapshot(sub.Shard)
	}
	a, b := newFakeNode(t, script), newFakeNode(t, script)
	cfg := fastConfig(t, a.srv.URL, b.srv.URL)
	cfg.Poll = 20 * time.Millisecond
	cfg.Transport.Sleep = nil // the pacing delay sleeps for real
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res, err := co.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Six answers per node, the last five each at least Poll after the one
	// before.
	if took := time.Since(t0); took < 5*cfg.Poll {
		t.Errorf("run took %s against nodes that answer at once, want >= %s (paced at Poll)", took, 5*cfg.Poll)
	}
	if got, want := res.Digest, expectedDigest(t); got != want {
		t.Errorf("paced digest diverged:\nfleet:\n%s\nexpected:\n%s", got, want)
	}
}
