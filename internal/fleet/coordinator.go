package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hauberk/internal/harness"
	cstore "hauberk/internal/harness/store"
	"hauberk/internal/service"
)

// Config describes one fleet campaign.
type Config struct {
	// Nodes are the hauberkd base URLs (bare host:port accepted).
	Nodes []string
	// Transport is the shared RPC policy; nil uses NewTransport(10s).
	Transport *Transport
	// Submission is the campaign template (tenant, program, scale,
	// dataset, isolation); the coordinator fills Shard/Shards per
	// dispatch.
	Submission service.Submission
	// Shards is the split width; 0 means one shard per node. More
	// shards than nodes is useful: smaller shards re-dispatch cheaper
	// after a failover.
	Shards int
	// MergeDir is the store directory whose log the fetched shards are
	// appended to and the read-side merge reads (required; the directory
	// is created).
	MergeDir string
	// Poll is the retry cadence (default 150ms): how often a shard that
	// waits for a free node retries dispatch, and the least gap between
	// two status requests to one node. Shard completion is pushed by a
	// status long-poll, so Poll does not pace a campaign whose shards all
	// have a node.
	Poll time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// shardAttempts bounds dispatch attempts per shard before the whole
// campaign fails: a shard that fails on distinct nodes is a plan problem,
// not a node problem.
const shardAttempts = 3

// stallTimeout declares an assignment hung when its progress counter
// hasn't moved for this long: the node still answers status RPCs but its
// executor is wedged, so the shard fails over as if the node had died.
const stallTimeout = 2 * time.Minute

// Result is a completed fleet campaign.
type Result struct {
	// Manifest is the campaign identity every node agreed on.
	Manifest cstore.Manifest
	// Merged is the cross-node aggregate; Merged.FigureDigest() is
	// byte-identical to a single-node run of the same plan.
	Merged *harness.CampaignResult
	// Digest is Merged.FigureDigest(), precomputed.
	Digest string
	// Failovers counts shards re-dispatched after a node died, hung,
	// drained, or was quarantined mid-shard.
	Failovers int
}

// errPlanMismatch marks a node whose store manifest disagrees with the
// fleet's: its records can never merge, so the campaign aborts instead
// of retrying or failing over.
var errPlanMismatch = errors.New("plan mismatch")

// node is the coordinator's view of one daemon.
type node struct {
	client *Client
	health *nodeHealth
	// shard is the in-flight assignment (-1 when idle); id its campaign
	// id on the node.
	shard int
	id    string
	// lastDone/lastMove track assignment progress for the stall check.
	lastDone int
	lastMove time.Time
	// watching marks a status long-poll in flight; lastWatch is when the
	// latest one was sent.
	watching  bool
	lastWatch time.Time
}

func (n *node) busy() bool { return n.shard >= 0 }

// shardState tracks one shard through pending -> inflight -> fetched.
type shardState struct {
	attempts int
	fetched  bool
	inflight bool
	// avoid is the node the shard last failed over from.
	avoid *node
}

// Coordinator farms one campaign plan over a roster of hauberkd nodes.
// Build with New, run once with Run.
type Coordinator struct {
	cfg       Config
	tr        *Transport
	nodes     []*node
	shards    []*shardState
	manifest  *cstore.Manifest
	merge     *cstore.Log
	salvages  int
	failovers int
}

// New validates the configuration and builds a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("fleet: no nodes")
	}
	if cfg.MergeDir == "" {
		return nil, errors.New("fleet: Config.MergeDir is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = len(cfg.Nodes)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 150 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	tr := cfg.Transport
	if tr == nil {
		tr = NewTransport(10 * time.Second)
	}
	co := &Coordinator{cfg: cfg, tr: tr}
	for _, base := range cfg.Nodes {
		co.nodes = append(co.nodes, &node{
			client: tr.Client(base),
			health: &nodeHealth{},
			shard:  -1,
		})
	}
	for i := 0; i < cfg.Shards; i++ {
		co.shards = append(co.shards, &shardState{})
	}
	return co, nil
}

// statusWait is how long one status long-poll may park on a node before
// it answers unsettled; Client.Wait clamps it under the per-RPC deadline.
// It bounds how stale the stall check's progress reading can get.
const statusWait = 30 * time.Second

// watchEvent is one node's answer to a status long-poll: the status (or
// RPC error) of campaign id, which the node may have moved on from since.
type watchEvent struct {
	n   *node
	id  string
	st  service.Status
	err error
}

// Run drives the campaign to completion: dispatch every shard, fold
// node health, fail shards over when their node dies or drains, fetch
// and merge the shards, and fold the merged figures. It returns
// once every shard's records are merged and verified complete, or with
// an error when the plan cannot finish (context expired, a shard
// exhausted its attempts, every node quarantined, or the merge found
// cross-node disagreement).
//
// Each round ends when a node answers a status long-poll, so a shard is
// fetched as soon as it settles; only while a shard waits for a free node
// does a round also end after Poll, to retry the dispatch.
func (co *Coordinator) Run(ctx context.Context) (*Result, error) {
	co.cfg.Logf("fleet: %d shards over %d nodes (%s %s/%d)",
		co.cfg.Shards, len(co.nodes), co.cfg.Submission.Program,
		co.cfg.Submission.Scale, co.cfg.Submission.Dataset)
	merge, err := cstore.OpenLog(co.cfg.MergeDir)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	defer merge.Close() // on error paths; the merged run checks it below
	co.merge = merge
	// Long-polls run under their own context, cancelled and awaited on the
	// way out so none outlives Run; each node has at most one in flight,
	// so the buffer never blocks a sender.
	wctx, stopWatches := context.WithCancel(ctx)
	var watches sync.WaitGroup
	defer watches.Wait()
	defer stopWatches()
	events := make(chan watchEvent, len(co.nodes))
	stuck := 0
	for !co.done() {
		if err := ctx.Err(); err != nil {
			co.cancelInflight()
			return nil, fmt.Errorf("fleet: %w", err)
		}
		co.probeIdle(ctx)
		dispatched, err := co.dispatchPending(ctx)
		if err != nil {
			return nil, err
		}
		// Forward-progress guard: nothing running, nothing dispatched,
		// and no node will ever take work again means the roster is
		// dead. Probation probes get many rounds to rescue a node that
		// is merely restarting before this trips.
		if !dispatched && !co.anyInflight() && co.allQuarantined() {
			if stuck++; stuck >= 25 {
				return nil, errors.New("fleet: every node is quarantined and shards remain; aborting")
			}
		} else {
			stuck = 0
		}
		co.watchInflight(wctx, &watches, events)
		var retry <-chan time.Time
		if co.anyPending() {
			retry = time.After(co.cfg.Poll)
		}
		select {
		case ev := <-events:
			if err := co.observe(ctx, ev); err != nil {
				return nil, err
			}
		case <-retry:
		case <-ctx.Done():
			co.cancelInflight()
			return nil, fmt.Errorf("fleet: %w", ctx.Err())
		}
	}

	if err := merge.Close(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	man, merged, err := harness.LoadCampaignDir(co.cfg.MergeDir)
	if err != nil {
		return nil, fmt.Errorf("fleet: merge: %w", err)
	}
	return &Result{
		Manifest:  man,
		Merged:    merged,
		Digest:    merged.FigureDigest(),
		Failovers: co.failovers,
	}, nil
}

func (co *Coordinator) done() bool {
	for _, s := range co.shards {
		if !s.fetched {
			return false
		}
	}
	return true
}

func (co *Coordinator) anyInflight() bool {
	for _, s := range co.shards {
		if s.inflight {
			return true
		}
	}
	return false
}

func (co *Coordinator) allQuarantined() bool {
	for _, n := range co.nodes {
		if n.health.Verdict() != Quarantined {
			return false
		}
	}
	return true
}

// anyPending reports whether a shard waits for a node: neither in flight
// nor fetched.
func (co *Coordinator) anyPending() bool {
	for _, s := range co.shards {
		if !s.fetched && !s.inflight {
			return true
		}
	}
	return false
}

// watchInflight starts a status long-poll on every busy node that has
// none in flight; the answer comes back on events. A node that answered
// unsettled is asked again no sooner than Poll after its previous ask, so
// a node that answers at once (no ?wait= support) is polled at that
// cadence rather than spun on.
func (co *Coordinator) watchInflight(ctx context.Context, wg *sync.WaitGroup, events chan<- watchEvent) {
	for _, n := range co.nodes {
		if !n.busy() || n.watching {
			continue
		}
		n.watching = true
		delay := max(time.Until(n.lastWatch.Add(co.cfg.Poll)), 0)
		n.lastWatch = time.Now().Add(delay)
		wg.Add(1)
		go func(n *node, id string) {
			defer wg.Done()
			ev := watchEvent{n: n, id: id}
			if ev.err = co.tr.sleep(ctx, delay); ev.err == nil {
				ev.st, ev.err = n.client.Wait(ctx, id, statusWait)
			}
			events <- ev
		}(n, n.id)
	}
}

// observe advances one node's assignment from its long-poll answer: fold
// the outcome into node health, and fetch/fail-over/fail the shard as
// the state demands. An answer about an assignment the node no longer
// holds (it failed over while the request was parked) is dropped.
func (co *Coordinator) observe(ctx context.Context, ev watchEvent) error {
	n, st := ev.n, ev.st
	n.watching = false
	if !n.busy() || n.id != ev.id {
		return nil
	}
	if ev.err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("fleet: %w", ctx.Err())
		}
		v := n.health.observe(false)
		co.cfg.Logf("fleet: %s: status %s: %v (verdict %s)", n.client.Name, n.id, ev.err, v)
		if v == Quarantined {
			// The node is gone (or as good as): salvage whatever
			// partial log it can still serve and re-dispatch.
			return co.failover(ctx, n, "node unreachable")
		}
		return nil
	}
	switch st.State {
	case service.StateDone:
		n.health.observe(true)
		if err := co.fetchShard(ctx, n); err != nil {
			if ctx.Err() != nil || errors.Is(err, errPlanMismatch) {
				return err
			}
			v := n.health.observe(false)
			co.cfg.Logf("fleet: %s: fetch shard %d: %v (verdict %s)", n.client.Name, n.shard, err, v)
			if v == Quarantined {
				return co.failover(ctx, n, "store fetch failing")
			}
		}
	case service.StateInterrupted:
		// The daemon drained (SIGTERM) or restarted mid-shard. The
		// store checkpointed, so this is failover-eligible, not
		// failed: salvage the partial log, count the drop against
		// the node, re-dispatch elsewhere.
		n.health.observe(false)
		co.cfg.Logf("fleet: %s: shard %d interrupted on node (drain/restart); failing over", n.client.Name, n.shard)
		return co.failover(ctx, n, "node drained mid-shard")
	case service.StateFailed, service.StateCanceled:
		n.health.observe(false)
		shard := n.shard
		co.release(n)
		s := co.shards[shard]
		s.inflight = false
		co.cfg.Logf("fleet: %s: shard %d %s on node: %s", n.client.Name, shard, st.State, st.Error)
		if s.attempts >= shardAttempts {
			return fmt.Errorf("fleet: shard %d failed %d times (last on %s: %s)",
				shard, s.attempts, n.client.Name, st.Error)
		}
	default: // queued or running: check for a wedged executor
		n.health.observe(true)
		if st.Progress.Completed != n.lastDone {
			n.lastDone, n.lastMove = st.Progress.Completed, time.Now()
		} else if time.Since(n.lastMove) > stallTimeout {
			n.health.observe(false)
			co.cfg.Logf("fleet: %s: shard %d stalled at %d/%d for %s; failing over",
				n.client.Name, n.shard, st.Progress.Completed, st.Progress.Total, stallTimeout)
			return co.failover(ctx, n, "assignment stalled")
		}
	}
	return nil
}

// fetchShard appends a completed assignment's store to the merge log.
func (co *Coordinator) fetchShard(ctx context.Context, n *node) error {
	snap, err := n.client.Store(ctx, n.id)
	if err != nil {
		return err
	}
	if err := co.acceptSnapshot(n, snap, false); err != nil {
		return err
	}
	shard := n.shard
	co.release(n)
	co.shards[shard].inflight = false
	co.shards[shard].fetched = true
	co.cfg.Logf("fleet: %s: shard %d fetched (%d/%d shards merged)",
		n.client.Name, shard, co.fetchedCount(), co.cfg.Shards)
	return nil
}

// failover abandons a node's assignment: best-effort salvage of its
// partial shard (deduped by the read-side merge against the
// re-run), best-effort cancel, then back to pending for another node.
func (co *Coordinator) failover(ctx context.Context, n *node, why string) error {
	shard := n.shard
	// Salvage under a short deadline — the node may be gone entirely,
	// and a dead node must not stall the failover path.
	sctx, cancel := context.WithTimeout(ctx, co.cfg.Poll*4)
	if snap, err := n.client.Store(sctx, n.id); err == nil {
		if aerr := co.acceptSnapshot(n, snap, true); aerr != nil {
			cancel()
			return aerr // cross-plan disagreement: never mergeable, abort
		}
		co.cfg.Logf("fleet: %s: salvaged %d partial log(s) of shard %d", n.client.Name, len(snap.Files), shard)
	}
	cancel()
	cctx, cancel := context.WithTimeout(ctx, co.cfg.Poll*4)
	n.client.Cancel(cctx, n.id) //nolint:errcheck // best-effort; the node may be dead
	cancel()
	co.release(n)
	co.shards[shard].inflight = false
	co.shards[shard].avoid = n
	co.failovers++
	co.cfg.Logf("fleet: failover shard %d (%s); re-dispatching", shard, why)
	return nil
}

// acceptSnapshot appends one node's store snapshot to the merge log.
// The first snapshot establishes the campaign manifest; every later one
// must agree (a disagreement means the nodes planned different
// campaigns — seed or scale drift — and their records must never mix).
// Partial salvages land under node-tagged tags so they coexist with the
// re-run's shard; the store's read-side merge dedupes the byte-equal
// overlap and rejects genuine conflicts.
func (co *Coordinator) acceptSnapshot(n *node, snap service.StoreSnapshot, partial bool) error {
	if co.manifest != nil && !co.manifest.Equal(snap.Manifest) {
		return fmt.Errorf("fleet: node %s ran a different campaign (its plan %s/%s, fleet plan %s/%s); refusing to merge: %w",
			n.client.Name, snap.Manifest.Program, snap.Manifest.PlanHash,
			co.manifest.Program, co.manifest.PlanHash, errPlanMismatch)
	}
	co.manifest = &snap.Manifest
	for tag, lines := range snap.Files {
		if partial {
			co.salvages++
			tag = fmt.Sprintf("%s.partial%d.%s", tag, co.salvages, n.client.Name)
		}
		if err := co.merge.AppendSnapshot(tag, snap.Manifest, []byte(lines)); err != nil {
			return fmt.Errorf("fleet: merge %s: %w", tag, err)
		}
	}
	return nil
}

// probeIdle health-checks every idle node (busy nodes are already
// observed through their status RPCs). This is also the probation path:
// a quarantined node that answers /readyz again walks back to Degraded
// and then Healthy, re-earning dispatch.
func (co *Coordinator) probeIdle(ctx context.Context) {
	for _, n := range co.nodes {
		if n.busy() {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, co.cfg.Poll*4)
		err := n.client.Probe(pctx)
		cancel()
		before := n.health.Verdict()
		after := n.health.observe(err == nil)
		if before != after {
			co.cfg.Logf("fleet: %s: verdict %s -> %s", n.client.Name, before, after)
		}
	}
}

// dispatchPending assigns pending shards to free nodes, healthy nodes
// first, degraded ones only when no healthy node is free, quarantined
// ones never. Reports whether any dispatch succeeded.
func (co *Coordinator) dispatchPending(ctx context.Context) (bool, error) {
	dispatched := false
	for shard, s := range co.shards {
		if s.fetched || s.inflight {
			continue
		}
		n := co.pickNode(s.avoid)
		if n == nil {
			continue // no dispatchable node free; try again next round
		}
		sub := co.cfg.Submission
		sub.Shard, sub.Shards = shard, co.cfg.Shards
		st, err := n.client.Submit(ctx, sub)
		if err != nil {
			if ctx.Err() != nil {
				return dispatched, fmt.Errorf("fleet: %w", ctx.Err())
			}
			// Every daemon validates a submission the same way, so one this
			// node refused outright (a 4xx) is refused by the whole roster:
			// abort rather than cycle it through the nodes forever.
			var se *StatusError
			if errors.As(err, &se) {
				return dispatched, fmt.Errorf("fleet: submission rejected: %w", err)
			}
			v := n.health.observe(false)
			co.cfg.Logf("fleet: %s: submit shard %d: %v (verdict %s)", n.client.Name, shard, err, v)
			continue
		}
		n.health.observe(true)
		n.shard, n.id = shard, st.ID
		n.lastDone, n.lastMove, n.lastWatch = 0, time.Now(), time.Time{}
		s.inflight = true
		s.attempts++
		dispatched = true
		co.cfg.Logf("fleet: %s: shard %d/%d dispatched as %s (attempt %d)",
			n.client.Name, shard, co.cfg.Shards, st.ID, s.attempts)
	}
	return dispatched, nil
}

// pickNode returns the best free node for a shard: healthy beats
// degraded, ties break by roster order for determinism. Quarantined nodes
// are skipped, and so is avoid — the node the shard last failed over
// from — while any other node could still take the shard once it frees
// up: a node that just drained or died is the worst place to re-run it.
func (co *Coordinator) pickNode(avoid *node) *node {
	var best, fallback *node
	others := false
	for _, n := range co.nodes {
		if n.health.Verdict() == Quarantined {
			continue
		}
		if n == avoid {
			if !n.busy() {
				fallback = n
			}
			continue
		}
		others = true
		if !n.busy() && (best == nil || n.health.Verdict() < best.health.Verdict()) {
			best = n
		}
	}
	if !others {
		return fallback
	}
	return best
}

// release clears a node's assignment.
func (co *Coordinator) release(n *node) {
	n.shard, n.id = -1, ""
}

func (co *Coordinator) fetchedCount() int {
	c := 0
	for _, s := range co.shards {
		if s.fetched {
			c++
		}
	}
	return c
}

// cancelInflight best-effort cancels every in-flight assignment (used
// when the coordinator's own context dies, so nodes don't keep burning
// work for a campaign nobody will merge).
func (co *Coordinator) cancelInflight() {
	for _, n := range co.nodes {
		if !n.busy() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		n.client.Cancel(ctx, n.id) //nolint:errcheck // best-effort on shutdown
		cancel()
	}
}
