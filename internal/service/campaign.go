package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hauberk/internal/obs"
)

// State is a campaign's lifecycle position in the daemon.
type State string

// Campaign states. Queued, running and interrupted campaigns are
// requeued on daemon restart (interrupted ones resume from their
// durable store); done, failed and canceled are terminal.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state is final (no restart requeue).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// settled reports whether the campaign has stopped executing in this
// daemon process: terminal, or interrupted by a drain. A settled campaign
// never becomes queued or running again until the daemon restarts.
func (s State) settled() bool {
	return s != StateQueued && s != StateRunning
}

// Campaign is one submitted campaign's record in the daemon: identity,
// schedule state, and the per-campaign telemetry plane (broadcaster,
// progress tracker) backing /v1/campaigns/{id} and its /events feed.
type Campaign struct {
	ID        string
	Tenant    string
	Program   string
	ScaleName string
	Dataset   int
	Isolation string
	// Shard/Shards scope the campaign to one slice of the plan (fleet
	// dispatch); Shards == 1 means the whole plan.
	Shard  int
	Shards int

	mu          sync.Mutex
	state       State
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	digest      string
	errMsg      string
	// canceled marks a cancel request; an interrupt of a canceled
	// campaign terminates as StateCanceled rather than resumable.
	canceled bool
	// resume tells the executor the durable store already holds results
	// (the campaign was interrupted, or the daemon restarted mid-run).
	resume bool
	cancel context.CancelFunc
	// changed is closed and replaced on every state change, waking the
	// long-poll status requests parked in await.
	changed chan struct{}

	// enqueuedAt is stamped by the scheduler for queue-latency metrics.
	enqueuedAt time.Time

	dir     string
	bcast   *obs.Broadcaster
	tracker *obs.ProgressTracker
	tel     *obs.Telemetry
}

// newCampaign wires the in-memory record with its telemetry plane: a
// broadcaster over inner (nil in the daemon — the durable store is the
// record of truth; the -trace journal under `hauberk-run -http`) with a
// synchronous progress tracker. Shards < 1 means the whole plan.
func newCampaign(id string, sub Submission, dir string, inner obs.Sink) *Campaign {
	b := obs.NewBroadcaster(inner)
	tr := obs.NewProgressTracker()
	b.Attach(tr)
	shards := sub.Shards
	if shards < 1 {
		shards = 1
	}
	return &Campaign{
		ID:          id,
		Tenant:      sub.Tenant,
		Program:     sub.Program,
		ScaleName:   sub.Scale,
		Dataset:     sub.Dataset,
		Isolation:   sub.Isolation,
		Shard:       sub.Shard,
		Shards:      shards,
		state:       StateQueued,
		changed:     make(chan struct{}),
		submittedAt: time.Now(),
		dir:         dir,
		bcast:       b,
		tracker:     tr,
		tel:         obs.New(b),
	}
}

// Status is the campaign's JSON wire form (API responses and the
// `hauberk-report -campaigns` client).
type Status struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant"`
	Program     string    `json:"program"`
	Scale       string    `json:"scale"`
	Dataset     int       `json:"dataset"`
	Isolation   string    `json:"isolation,omitempty"`
	Shard       int       `json:"shard,omitempty"`
	Shards      int       `json:"shards,omitempty"`
	State       State     `json:"state"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// Digest is the campaign's FigureDigest once done — the byte-exact
	// string `hauberk-run -campaign-dir` prints for the same plan. Shard
	// campaigns (Shards > 1) leave it empty: a shard's store is a
	// partial plan by construction, and only the coordinator's cross-
	// node merge may fold the figures.
	Digest string `json:"digest,omitempty"`
	Error  string `json:"error,omitempty"`
	// Progress is the live tracker snapshot (completed/total, rate,
	// ETA, outcome tallies, watchdog kills and worker lifecycle).
	Progress obs.ProgressSnapshot `json:"progress"`
}

// Status snapshots the campaign for the API.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		ID:          c.ID,
		Tenant:      c.Tenant,
		Program:     c.Program,
		Scale:       c.ScaleName,
		Dataset:     c.Dataset,
		Isolation:   c.Isolation,
		Shard:       c.Shard,
		Shards:      shardsField(c.Shards),
		State:       c.state,
		SubmittedAt: c.submittedAt,
		StartedAt:   c.startedAt,
		FinishedAt:  c.finishedAt,
		Digest:      c.digest,
		Error:       c.errMsg,
		Progress:    c.tracker.Snapshot(),
	}
}

// shardsField maps the internal "1 means whole plan" to the wire's
// "omitted means whole plan", so unsharded statuses keep their pre-fleet
// JSON shape.
func shardsField(shards int) int {
	if shards <= 1 {
		return 0
	}
	return shards
}

// State returns the current lifecycle state.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// setStateLocked moves the campaign to s and wakes every await caller;
// c.mu must be held.
func (c *Campaign) setStateLocked(s State) {
	c.state = s
	close(c.changed)
	c.changed = make(chan struct{})
}

// setState moves the campaign to state, stamping the finish time of a
// terminal one and running set (if any) under the same lock.
func (c *Campaign) setState(state State, set func()) {
	c.mu.Lock()
	c.cancel = nil
	if state.Terminal() {
		c.finishedAt = time.Now()
	}
	if set != nil {
		set()
	}
	c.setStateLocked(state)
	c.mu.Unlock()
}

// Reasons an await returns, the result label of hauberkd_status_waits_total.
const (
	waitSettled = "settled" // the campaign settled (or already had)
	waitExpired = "expired" // the wait bound elapsed first
	waitAborted = "aborted" // the client went away or the daemon began draining
)

// await blocks until the campaign settles, d elapses, ctx ends or stop
// closes, and reports which came first.
func (c *Campaign) await(ctx context.Context, stop <-chan struct{}, d time.Duration) string {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		c.mu.Lock()
		settled, changed := c.state.settled(), c.changed
		c.mu.Unlock()
		if settled {
			return waitSettled
		}
		select {
		case <-changed:
		case <-timer.C:
			return waitExpired
		case <-ctx.Done():
			return waitAborted
		case <-stop:
			return waitAborted
		}
	}
}

// meta is the submission's durable form, persisted as submission.json
// in the campaign directory next to the store's manifest and shard
// logs. It is what lets a restarted daemon rebuild its campaign table
// and requeue unfinished work.
type meta struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant"`
	Program     string    `json:"program"`
	Scale       string    `json:"scale"`
	Dataset     int       `json:"dataset"`
	Isolation   string    `json:"isolation,omitempty"`
	Shard       int       `json:"shard,omitempty"`
	Shards      int       `json:"shards,omitempty"`
	State       State     `json:"state"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	Digest      string    `json:"digest,omitempty"`
	Error       string    `json:"error,omitempty"`
}

const metaFile = "submission.json"

// persist writes the campaign's durable form atomically (tmp + rename)
// so a kill mid-write leaves the previous state, never a torn file.
func (c *Campaign) persist() error {
	c.mu.Lock()
	m := meta{
		ID:          c.ID,
		Tenant:      c.Tenant,
		Program:     c.Program,
		Scale:       c.ScaleName,
		Dataset:     c.Dataset,
		Isolation:   c.Isolation,
		Shard:       c.Shard,
		Shards:      shardsField(c.Shards),
		State:       c.state,
		SubmittedAt: c.submittedAt,
		StartedAt:   c.startedAt,
		FinishedAt:  c.finishedAt,
		Digest:      c.digest,
		Error:       c.errMsg,
	}
	dir := c.dir
	c.mu.Unlock()
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encode %s: %w", metaFile, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	tmp := filepath.Join(dir, metaFile+".tmp")
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("service: write %s: %w", metaFile, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, metaFile)); err != nil {
		return fmt.Errorf("service: commit %s: %w", metaFile, err)
	}
	return nil
}

// loadMeta reads a campaign directory's submission.json.
func loadMeta(dir string) (meta, error) {
	var m meta
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("service: corrupt %s in %s: %w", metaFile, dir, err)
	}
	return m, nil
}

// restoreCampaign rebuilds an in-memory record from its durable form
// (daemon restart). The telemetry plane is fresh — event history from
// the previous process is gone, but the durable store is complete.
func restoreCampaign(m meta, dir string) *Campaign {
	c := newCampaign(m.ID, Submission{
		Tenant: m.Tenant, Program: m.Program, Scale: m.Scale,
		Dataset: m.Dataset, Isolation: m.Isolation,
		Shard: m.Shard, Shards: m.Shards,
	}, dir, nil)
	c.state = m.State
	c.submittedAt = m.SubmittedAt
	c.startedAt = m.StartedAt
	c.finishedAt = m.FinishedAt
	c.digest = m.Digest
	c.errMsg = m.Error
	return c
}
