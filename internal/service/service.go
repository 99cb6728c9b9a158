// Package service is the hauberkd campaign service: a long-running
// daemon that accepts SWIFI campaign submissions over HTTP, schedules
// them across the process-wide worker budget with per-tenant fairness
// and admission control, executes them through the same reentrant
// harness entry points as `hauberk-run`, and checkpoints everything
// through the durable JSONL store so a SIGTERM mid-campaign loses no
// work: on restart, unfinished campaigns resume where they stopped and
// finish with the same figure digest a single uninterrupted run
// produces.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hauberk/internal/harness"
	"hauberk/internal/obs"
	"hauberk/internal/workloads"
)

// ErrNotFound reports an unknown campaign id.
var ErrNotFound = errors.New("service: no such campaign")

// testOptsHook, when non-nil, may adjust a campaign's run options just
// before execution starts. Test-only: it is how the tests interrupt or
// cancel a campaign at a deterministic point mid-run instead of racing
// wall-clock sleeps against the scheduler. Guarded by testHookMu so
// tests can clear it while executor goroutines are still alive.
var (
	testHookMu   sync.Mutex
	testOptsHook func(*Campaign, *harness.CampaignOptions)
)

// SetTestOptsHook installs (or, with nil, clears) a hook that may adjust
// a campaign's run options just before execution starts. Test
// instrumentation only — the fleet coordinator's drain/failover tests
// use it to pin a remote shard mid-run at a deterministic record count;
// it must never be set in production daemons.
func SetTestOptsHook(h func(*Campaign, *harness.CampaignOptions)) {
	testHookMu.Lock()
	testOptsHook = h
	testHookMu.Unlock()
}

// applyTestOptsHook runs the hook, if any, against a campaign's options.
func applyTestOptsHook(c *Campaign, opts *harness.CampaignOptions) {
	testHookMu.Lock()
	h := testOptsHook
	testHookMu.Unlock()
	if h != nil {
		h(c, opts)
	}
}

// Config sizes and places a Daemon.
type Config struct {
	// Addr is the HTTP listen address (":0" picks an ephemeral port).
	Addr string
	// StoreRoot is the directory holding one subdirectory per campaign
	// (submission.json + the durable store's manifest and shards).
	StoreRoot string
	// Slots bounds concurrently executing campaigns; zero means 2.
	// Within each slot, campaign-level worker parallelism still draws
	// from the shared process-wide worker budget (harness/budget.go).
	Slots int
	// QueueDepth bounds each tenant's queue; a full queue rejects
	// submissions (HTTP 429). Zero means 64.
	QueueDepth int
	// Isolation is the default worker isolation for submissions that do
	// not set one ("off" or "process"). Zero value means "off".
	Isolation string
	// DrainTimeout bounds how long Shutdown waits for running campaigns
	// to checkpoint after their contexts are canceled. Zero means 30s.
	DrainTimeout time.Duration
	// Registry collects the daemon's metrics; nil allocates a fresh one.
	Registry *obs.Registry
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Submission is one campaign request.
type Submission struct {
	// Tenant namespaces the submission for queueing and fairness;
	// empty means "default".
	Tenant string `json:"tenant"`
	// Program is a registered workload name (e.g. "cp", "sad").
	Program string `json:"program"`
	// Scale is "tiny", "quick" or "full"; empty means "tiny".
	Scale string `json:"scale"`
	// Dataset selects the input dataset index.
	Dataset int `json:"dataset"`
	// Weight, when positive, (re)sets the tenant's fair-share weight.
	Weight int `json:"weight"`
	// Isolation overrides the daemon default ("off" or "process").
	Isolation string `json:"isolation"`
	// Shard/Shards, when Shards > 1, scope the campaign to plan indices
	// where idx % Shards == Shard — the fleet coordinator's unit of
	// dispatch. The plan is seeded, so every node derives the same full
	// injection list and a shard submission is self-contained: this
	// node's durable store holds exactly its shard's records, fetchable
	// via GET /v1/campaigns/{id}/store for the coordinator's read-side
	// merge. Shards <= 1 (the default) runs the whole plan.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
}

// preparedEntry caches one (program, scale, dataset) preparation:
// golden run, profile, and injection plan are deterministic, so every
// matching submission shares them and pays setup cost once.
type preparedEntry struct {
	once sync.Once
	pc   *harness.PreparedCampaign
	err  error
}

// Daemon is the campaign service.
type Daemon struct {
	cfg Config
	reg *obs.Registry
	env *harness.Env // base env; cloned per campaign with its own telemetry

	sched *scheduler
	http  *apiServer

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*Campaign
	nextID    int
	prepared  map[string]*preparedEntry
	draining  bool
	started   bool
}

// NewDaemon builds a daemon and recovers prior state from StoreRoot:
// terminal campaigns are listed as-is, unfinished ones are requeued
// (resuming from their durable store when a manifest exists). Nothing
// listens or executes until Start.
func NewDaemon(cfg Config) (*Daemon, error) {
	if cfg.StoreRoot == "" {
		return nil, errors.New("service: Config.StoreRoot is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Isolation == "" {
		cfg.Isolation = harness.IsolationOff
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.StoreRoot, 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	d := &Daemon{
		cfg:       cfg,
		reg:       cfg.Registry,
		env:       harness.NewEnv(harness.TinyScale()),
		campaigns: make(map[string]*Campaign),
		nextID:    1,
		prepared:  make(map[string]*preparedEntry),
	}
	d.baseCtx, d.baseCancel = context.WithCancel(context.Background())
	d.sched = newScheduler(cfg.Slots, cfg.QueueDepth, d.reg, d.execute)
	d.reg.Help("hauberkd_campaign_outcomes_total", "finished campaigns per tenant and terminal state")
	d.reg.Help("hauberkd_submissions_total", "accepted campaign submissions per tenant")
	d.reg.Help("hauberkd_rejections_total", "submissions rejected by admission control per tenant")
	d.http = newAPIServer(d)
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// recover scans StoreRoot for persisted campaigns and rebuilds the
// table. Unfinished campaigns go back to queued; whether they resume or
// restart is decided by the durable store itself (manifest present →
// completed injections are skipped, exactly `hauberk-run -resume`).
func (d *Daemon) recover() error {
	entries, err := os.ReadDir(d.cfg.StoreRoot)
	if err != nil {
		return fmt.Errorf("service: scan %s: %w", d.cfg.StoreRoot, err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(d.cfg.StoreRoot, ent.Name())
		m, err := loadMeta(dir)
		if errors.Is(err, os.ErrNotExist) {
			continue // not a campaign directory
		}
		if err != nil {
			return err
		}
		c := restoreCampaign(m, dir)
		if !m.State.Terminal() {
			c.mu.Lock()
			c.state = StateQueued
			if _, statErr := os.Stat(filepath.Join(dir, "manifest.json")); statErr == nil {
				c.resume = true
			}
			c.mu.Unlock()
			if err := c.persist(); err != nil {
				return err
			}
		}
		d.campaigns[c.ID] = c
		var n int
		if _, err := fmt.Sscanf(c.ID, "c%06d", &n); err == nil && n >= d.nextID {
			d.nextID = n + 1
		}
	}
	return nil
}

// Start begins listening and dispatching: the HTTP API binds (so Addr
// is valid on return), the scheduler loop starts, and every recovered
// unfinished campaign is requeued in submission order.
func (d *Daemon) Start() error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return errors.New("service: already started")
	}
	d.started = true
	var pending []*Campaign
	for _, c := range d.campaigns {
		if c.State() == StateQueued {
			pending = append(pending, c)
		}
	}
	d.mu.Unlock()
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })

	d.sched.start()
	for _, c := range pending {
		if err := d.sched.Submit(c, 0); err != nil {
			// Requeue overflow cannot happen in practice (the queue was
			// admitted once already), but never lose the record: leave it
			// queued on disk for the next restart and log it.
			d.cfg.Logf("hauberkd: requeue %s: %v", c.ID, err)
		}
	}
	if err := d.http.start(d.cfg.Addr); err != nil {
		return err
	}
	d.cfg.Logf("hauberkd: listening on %s (slots=%d queue-depth=%d store=%s)",
		d.Addr(), d.cfg.Slots, d.cfg.QueueDepth, d.cfg.StoreRoot)
	return nil
}

// Addr is the bound HTTP address (valid after Start).
func (d *Daemon) Addr() string { return d.http.addr() }

// Submit admits one campaign: allocate an id and directory, persist the
// submission, enqueue it. ErrQueueFull and ErrDraining are admission
// rejections; the record is not created in either case.
func (d *Daemon) Submit(sub Submission) (*Campaign, error) {
	if sub.Tenant == "" {
		sub.Tenant = "default"
	}
	if sub.Scale == "" {
		sub.Scale = "tiny"
	}
	if sub.Isolation == "" {
		sub.Isolation = d.cfg.Isolation
	}
	if workloads.ByName(sub.Program) == nil {
		return nil, fmt.Errorf("service: unknown program %q", sub.Program)
	}
	if _, ok := harness.ScaleByName(sub.Scale); !ok {
		return nil, fmt.Errorf("service: unknown scale %q", sub.Scale)
	}
	if sub.Isolation != harness.IsolationOff && sub.Isolation != harness.IsolationProcess {
		return nil, fmt.Errorf("service: unknown isolation %q", sub.Isolation)
	}
	if sub.Shards <= 1 {
		if sub.Shard != 0 {
			return nil, fmt.Errorf("service: shard %d without shards", sub.Shard)
		}
		sub.Shard, sub.Shards = 0, 1
	} else if sub.Shard < 0 || sub.Shard >= sub.Shards {
		return nil, fmt.Errorf("service: shard %d/%d out of range", sub.Shard, sub.Shards)
	}

	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return nil, ErrDraining
	}
	id := fmt.Sprintf("c%06d", d.nextID)
	dir := filepath.Join(d.cfg.StoreRoot, id)
	c := newCampaign(id, sub, dir)
	if err := d.sched.Submit(c, sub.Weight); err != nil {
		d.mu.Unlock()
		d.reg.Counter("hauberkd_rejections_total", "tenant", sub.Tenant).Inc()
		return nil, err
	}
	d.nextID++
	d.campaigns[id] = c
	d.mu.Unlock()

	if err := c.persist(); err != nil {
		// The campaign stays queued in memory; if the daemon dies before
		// the disk recovers, the submission is lost — report that now.
		d.cfg.Logf("hauberkd: persist %s: %v", id, err)
	}
	d.reg.Counter("hauberkd_submissions_total", "tenant", sub.Tenant).Inc()
	return c, nil
}

// Get returns a campaign by id.
func (d *Daemon) Get(id string) (*Campaign, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c := d.campaigns[id]; c != nil {
		return c, nil
	}
	return nil, ErrNotFound
}

// List snapshots every known campaign's status, ordered by id.
func (d *Daemon) List() []Status {
	d.mu.Lock()
	cs := make([]*Campaign, 0, len(d.campaigns))
	for _, c := range d.campaigns {
		cs = append(cs, c)
	}
	d.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].ID < cs[j].ID })
	out := make([]Status, len(cs))
	for i, c := range cs {
		out[i] = c.Status()
	}
	return out
}

// Cancel stops a campaign: dequeued if still waiting, interrupted if
// running (its durable store flushes, then the record lands in
// StateCanceled — canceled campaigns do not resume on restart). Cancel
// of a terminal campaign is a no-op returning its status.
func (d *Daemon) Cancel(id string) (Status, error) {
	c, err := d.Get(id)
	if err != nil {
		return Status{}, err
	}
	c.mu.Lock()
	if c.state.Terminal() {
		c.mu.Unlock()
		return c.Status(), nil
	}
	c.canceled = true
	cancel := c.cancel
	c.mu.Unlock()

	if removed := d.sched.CancelQueued(id); removed != nil {
		c.mu.Lock()
		c.state = StateCanceled
		c.finishedAt = time.Now()
		c.mu.Unlock()
		if err := c.persist(); err != nil {
			d.cfg.Logf("hauberkd: persist %s: %v", id, err)
		}
		d.reg.Counter("hauberkd_campaign_outcomes_total",
			"tenant", c.Tenant, "state", string(StateCanceled)).Inc()
		return c.Status(), nil
	}
	if cancel != nil {
		cancel() // running: execute() maps the interrupt to StateCanceled
	}
	// Between dispatch and execute(), neither branch fires; the canceled
	// flag makes execute() return immediately in that window.
	return c.Status(), nil
}

// prepare returns the shared preparation for one (program, scale,
// dataset), computing it at most once per daemon lifetime.
func (d *Daemon) prepare(program, scaleName string, dataset int) (*harness.PreparedCampaign, error) {
	key := program + "|" + scaleName + "|" + fmt.Sprint(dataset)
	d.mu.Lock()
	e := d.prepared[key]
	if e == nil {
		e = &preparedEntry{}
		d.prepared[key] = e
	}
	d.mu.Unlock()
	e.once.Do(func() {
		scale, _ := harness.ScaleByName(scaleName)
		env := d.env.Clone()
		env.Scale = scale
		e.pc, e.err = env.PrepareCampaign(workloads.ByName(program), workloads.Dataset{Index: dataset})
	})
	return e.pc, e.err
}

// execute runs one dispatched campaign to a terminal (or resumable)
// state. It is the scheduler's exec hook, called on a dedicated
// goroutine per campaign.
func (d *Daemon) execute(c *Campaign) {
	ctx, cancel := context.WithCancel(d.baseCtx)
	defer cancel()

	c.mu.Lock()
	if c.canceled {
		c.state = StateCanceled
		c.finishedAt = time.Now()
		c.mu.Unlock()
		d.finish(c, StateCanceled)
		return
	}
	c.cancel = cancel
	c.state = StateRunning
	if c.startedAt.IsZero() {
		c.startedAt = time.Now()
	}
	resume := c.resume
	c.mu.Unlock()
	if err := c.persist(); err != nil {
		d.cfg.Logf("hauberkd: persist %s: %v", c.ID, err)
	}

	pc, err := d.prepare(c.Program, c.ScaleName, c.Dataset)
	if err != nil {
		d.fail(c, fmt.Errorf("prepare: %w", err))
		return
	}
	scale, _ := harness.ScaleByName(c.ScaleName)
	env := d.env.Clone()
	env.Scale = scale
	env.Obs = c.tel
	opts := harness.CampaignOptions{
		Dir:       c.dir,
		Resume:    resume,
		Isolation: c.Isolation,
		Shard:     c.Shard,
		Shards:    c.Shards,
	}
	applyTestOptsHook(c, &opts)
	_, err = env.RunPrepared(ctx, pc, opts)
	switch {
	case errors.Is(err, harness.ErrCampaignInterrupted):
		c.mu.Lock()
		canceled := c.canceled
		c.cancel = nil
		if canceled {
			c.state = StateCanceled
			c.finishedAt = time.Now()
		} else {
			// Daemon drain: the store is flushed and resumable; the
			// persisted state requeues (and resumes) it on restart.
			c.state = StateInterrupted
			c.resume = true
		}
		c.mu.Unlock()
		if canceled {
			d.finish(c, StateCanceled)
		} else {
			d.finish(c, StateInterrupted)
		}
	case err != nil:
		d.fail(c, err)
	default:
		var digest string
		if c.Shards <= 1 {
			// Digest through the identical path the CLI prints: load the
			// durable store back and fold the merged result. Byte-identity
			// with `hauberk-run -campaign-dir` is the service's correctness
			// contract. Shard campaigns skip this: a shard's store is a
			// partial plan, and only the fleet coordinator's cross-node
			// merge may fold the figures.
			_, merged, derr := harness.LoadCampaignDir(c.dir)
			if derr != nil {
				d.fail(c, fmt.Errorf("load store: %w", derr))
				return
			}
			digest = merged.FigureDigest()
		}
		c.mu.Lock()
		c.cancel = nil
		c.state = StateDone
		c.digest = digest
		c.finishedAt = time.Now()
		c.mu.Unlock()
		d.finish(c, StateDone)
	}
}

// fail records a terminal failure.
func (d *Daemon) fail(c *Campaign, err error) {
	c.mu.Lock()
	c.cancel = nil
	c.state = StateFailed
	c.errMsg = err.Error()
	c.finishedAt = time.Now()
	c.mu.Unlock()
	d.finish(c, StateFailed)
}

// finish persists a campaign's terminal (or resumable) state and
// records the per-tenant outcome metric.
func (d *Daemon) finish(c *Campaign, state State) {
	if err := c.persist(); err != nil {
		d.cfg.Logf("hauberkd: persist %s: %v", c.ID, err)
	}
	d.reg.Counter("hauberkd_campaign_outcomes_total",
		"tenant", c.Tenant, "state", string(state)).Inc()
	d.cfg.Logf("hauberkd: %s %s (%s %s/%d) -> %s",
		c.ID, c.Tenant, c.Program, c.ScaleName, c.Dataset, state)
}

// Draining reports whether Shutdown has begun (readiness turns false).
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Shutdown drains gracefully: stop admission, stop dispatch, cancel the
// running campaigns' contexts so they checkpoint through the durable
// store, wait (bounded by DrainTimeout, then ctx) for them to flush,
// and close the HTTP server. Queued and interrupted campaigns stay
// persisted and requeue on the next Start.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return d.http.shutdown(ctx)
	}
	d.draining = true
	d.mu.Unlock()
	d.cfg.Logf("hauberkd: draining")

	d.sched.StopDispatch()
	d.baseCancel()
	drainCtx, cancel := context.WithTimeout(ctx, d.cfg.DrainTimeout)
	defer cancel()
	if err := d.sched.AwaitIdle(drainCtx); err != nil {
		d.cfg.Logf("hauberkd: drain incomplete: %v", err)
	}
	err := d.http.shutdown(ctx)
	d.cfg.Logf("hauberkd: stopped")
	return err
}
