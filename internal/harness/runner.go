package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hauberk/internal/core/translate"
	"hauberk/internal/guardian"
	"hauberk/internal/guardian/procexec/chaos"
	cstore "hauberk/internal/harness/store"
	"hauberk/internal/obs"
	"hauberk/internal/workloads"
)

// PreparedCampaign is everything a campaign run needs beyond
// CampaignOptions: the golden reference, the profiled range store and
// execution counts, and the deterministic injection plan. Preparation is
// pure and deterministic for a given (program, dataset, Scale), so a
// prepared campaign can be cached and shared by concurrent runs — the
// daemon prepares each (program, scale) pair once and executes every
// matching submission against the shared preparation, while hauberk-run
// prepares per invocation; both produce byte-identical figure digests. A
// caller that wants another library mode, plan or range store than the
// default edits the fields (or a copy) before running.
type PreparedCampaign struct {
	Spec    *workloads.Spec
	Dataset workloads.Dataset
	Golden  *GoldenRun
	Prof    *ProfileResult
	Mode    translate.Mode
	Plan    []Injection
}

// PrepareCampaign derives the golden run, profile, and injection plan
// for a campaign of the program on one dataset — the set-up half of every
// campaign, from `hauberk-run -campaign-dir` and the daemon to the figures.
func (e *Env) PrepareCampaign(spec *workloads.Spec, ds workloads.Dataset) (*PreparedCampaign, error) {
	golden, err := e.Golden(spec, ds)
	if err != nil {
		return nil, err
	}
	prof, err := e.Profile(spec, []workloads.Dataset{ds})
	if err != nil {
		return nil, err
	}
	return &PreparedCampaign{
		Spec:    spec,
		Dataset: ds,
		Golden:  golden,
		Prof:    prof,
		Mode:    translate.ModeFIFT,
		Plan:    e.PlanCampaign(spec, prof, e.Scale.BitCounts),
	}, nil
}

// watchdogFloor is the least wall-clock deadline an injection is given,
// however fast its clean baseline (the minimum interval of the Section
// VI(i) hang rule), so scheduler jitter on a fast kernel is not a hang.
const watchdogFloor = 250 * time.Millisecond

// CampaignOptions tunes a campaign run.
type CampaignOptions struct {
	// Dir is the campaign store directory: every result is appended to its
	// log, Dir/journal.jsonl, before it counts as done. Empty keeps the
	// results in memory, for a campaign whose aggregate the caller consumes
	// directly.
	Dir string
	// Resume loads completed injection IDs from the store and runs only
	// the remainder; without it a non-empty store is an error. It needs
	// Dir.
	Resume bool
	// Store, if set, is the campaign's store already open, with its shard
	// and resume settled (hauberkd opens each campaign's on its journal,
	// store.Log.Open); the run appends to it instead of opening Dir, and
	// leaves it open.
	Store *cstore.Store
	// Shard/Shards split the planned injection list across processes:
	// this run owns plan indices where idx % Shards == Shard. The plan is
	// seeded, so every shard derives the same list independently.
	Shard, Shards int
	// OnResult, if set, observes progress after each recorded
	// result (done counts completed injections of this shard, total the
	// shard's size). Tests use it to interrupt mid-campaign.
	OnResult func(done, total int)
	// Isolation selects the executor: "" or IsolationOff runs injections
	// in the campaign process; IsolationProcess runs each in a supervised
	// worker subprocess (internal/guardian/procexec), checked out of the
	// Env's worker pool, so a panic, runaway loop or OOM kills one worker,
	// never the campaign. Spawn failures degrade gracefully to the
	// in-process path per injection.
	Isolation string
	// WorkerArgv is the worker command line for IsolationProcess
	// (default: the running binary with -worker). Tests point it at the
	// test binary re-execing itself.
	WorkerArgv []string
	// WorkerEnv entries are appended to each worker's environment.
	WorkerEnv []string
	// Chaos arms deterministic spawn-failure injection in the supervisors
	// (worker-side chaos rides in the inherited HAUBERK_CHAOS variable;
	// see internal/guardian/procexec/chaos).
	Chaos *chaos.Plan

	// Test-only overrides, assigned only by this package's tests; zero
	// keeps the production value. timeout replaces the derived
	// per-injection deadline; maxRestarts, backoff and warmupGrace replace
	// procexec's worker restart count (negative: none), restart back-off
	// and warm-up grace.
	timeout     time.Duration
	maxRestarts int
	backoff     guardian.BackoffPolicy
	warmupGrace time.Duration
}

// RunPrepared executes (or resumes) one shard of a prepared campaign and
// is the only code that runs a list of injections: the library entry
// behind `hauberk-run -campaign-dir`, a hauberkd submission, the figures
// and the examples. Every classified outcome is recorded in the
// campaign store before it counts as done — appended to the log of the
// store directory opts.Dir, or kept in memory when there is none — and
// each injection has a wall-clock deadline (a result past it classifies
// the run as a hang failure, Section VI(i)). Cancelling ctx stops
// dispatch once the injections in flight return, flushes the store and
// returns ErrCampaignInterrupted; a later call with Resume
// set completes the remainder and yields aggregates byte-identical to an
// uninterrupted run. The preparation is read-only during the run, so one
// PreparedCampaign may back any number of concurrent RunPrepared calls
// with distinct stores.
func (e *Env) RunPrepared(ctx context.Context, pc *PreparedCampaign, opts CampaignOptions) (*CampaignResult, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Resume && opts.Dir == "" {
		return nil, errors.New("harness: resuming a campaign needs its store dir")
	}
	if opts.Shard < 0 || opts.Shard >= opts.Shards {
		return nil, fmt.Errorf("harness: invalid shard %d/%d", opts.Shard, opts.Shards)
	}
	switch opts.Isolation {
	case "", IsolationOff, IsolationProcess:
	default:
		return nil, fmt.Errorf("harness: unknown isolation mode %q", opts.Isolation)
	}
	spec, plan := pc.Spec, pc.Plan
	cs := opts.Store
	if cs == nil {
		var err error
		if cs, err = cstore.Open(opts.Dir, e.CampaignManifest(spec, pc.Mode, plan), opts.Shard, opts.Shards, opts.Resume); err != nil {
			return nil, err
		}
		defer cs.Close()
	}

	// This shard's slice of the plan, minus what the store already holds.
	var pending []int
	owned := 0
	for i := range plan {
		if i%opts.Shards != opts.Shard {
			continue
		}
		owned++
		if rec, ok := cs.Done(i); ok {
			if rec.ID != plan[i].Cmd.Key() {
				return nil, fmt.Errorf("harness: store %s record %d is for injection %q, plan has %q (plan/seed drift)",
					cs.Name(), i, rec.ID, plan[i].Cmd.Key())
			}
			continue
		}
		pending = append(pending, i)
	}
	resumed := owned - len(pending)
	sp := e.Obs.Span(obs.EvCampaignDone)
	if e.Obs.Enabled() {
		e.Obs.Emit(obs.EvCampaignStart,
			obs.Str("program", spec.Name),
			obs.Int("injections", int64(len(plan))),
			obs.Int("mode", int64(pc.Mode)),
			obs.Int("shard", int64(opts.Shard)),
			obs.Int("shards", int64(opts.Shards)))
		if resumed > 0 {
			e.Obs.Emit(obs.EvCampaignResume,
				obs.Str("program", spec.Name),
				obs.Int("completed", int64(resumed)),
				obs.Int("remaining", int64(len(pending))),
				obs.Int("shard", int64(opts.Shard)),
				obs.Int("shards", int64(opts.Shards)))
			e.Obs.Metrics().Counter("hauberk_campaign_resumed_injections_total").Add(int64(resumed))
		}
	}

	// One golden trace backs every injection of the campaign, and its
	// clean run is the watchdog's baseline.
	gt, err := e.goldenTrace(spec, pc.Golden, pc.Prof.Store, pc.Mode)
	if err != nil {
		return nil, fmt.Errorf("harness: clean timing run of %s: %w", spec.Name, err)
	}
	timeout := opts.timeout
	if timeout <= 0 {
		timeout = deriveWatchdogTimeout(gt, watchdogFloor)
	}
	var iso *isoCampaign
	if opts.Isolation == IsolationProcess {
		if iso, err = e.newIsoCampaign(pc, opts); err != nil {
			return nil, err
		}
		// The supervisors go back to the Env's pool, their workers alive
		// for the next campaign — unless this one was interrupted.
		defer func() { iso.release(ctx.Err() != nil) }()
	}
	// The campaign's series are resolved once, not per injection.
	im := e.injectionMetrics()
	var heartbeatLag *obs.Histogram
	if e.Obs.Enabled() {
		heartbeatLag = e.Obs.Metrics().Histogram("hauberk_campaign_heartbeat_lag_ms", heartbeatLagBuckets)
	}
	var (
		mu         sync.Mutex // guards done, lastAppend and the order of progress reports
		done       = resumed
		lastAppend time.Time
	)
	record := func(idx int, r *InjectionResult) error {
		mu.Lock()
		defer mu.Unlock()
		if err := cs.Append(recordOf(idx, plan[idx], r)); err != nil {
			return err
		}
		done++
		if e.Obs.Enabled() {
			// One progress event per recorded result — the progress-
			// bearing feed a campaign's status tracker and event feed
			// aggregate (outcome and hang ride along so failure classes
			// can be tallied without the store).
			e.Obs.Emit(obs.EvCampaignProgress,
				obs.Str("program", spec.Name),
				obs.Int("done", int64(done)),
				obs.Int("total", int64(owned)),
				obs.Int("shard", int64(opts.Shard)),
				obs.Int("shards", int64(opts.Shards)),
				obs.Str("id", plan[idx].Cmd.Key()),
				obs.Str("outcome", r.Outcome.String()),
				obs.Bool("hang", r.Hang))
			now := time.Now()
			if !lastAppend.IsZero() {
				heartbeatLag.Observe(float64(now.Sub(lastAppend)) / float64(time.Millisecond))
			}
			lastAppend = now
		}
		if opts.OnResult != nil {
			opts.OnResult(done, owned)
		}
		return nil
	}
	// An isolated slot takes a run of pending indices and pipelines it
	// through its worker; an in-process one takes one index at a time.
	maxRun := 1
	if iso != nil {
		maxRun = isoRunMax
	}
	err = e.dispatch(ctx, len(pending), maxRun, func(ctx context.Context, slot, lo, hi int) error {
		var err error
		if iso != nil {
			err = e.runIsolated(ctx, iso, slot, pc, gt, pending[lo:hi], timeout, im, record)
		} else {
			idx := pending[lo]
			err = record(idx, e.runInjectionGuarded(pc, gt, plan[idx], timeout, im))
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil // an interrupt, reported below from ctx; or a sibling failed first
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil && cs.Completed() < owned {
		if err := cs.Sync(); err != nil {
			return nil, fmt.Errorf("harness: flush campaign store: %w", err)
		}
		if e.Obs.Enabled() {
			e.Obs.Emit(obs.EvCampaignInterrupt,
				obs.Str("program", spec.Name),
				obs.Int("completed", int64(cs.Completed())),
				obs.Int("remaining", int64(owned-cs.Completed())))
			e.Obs.Metrics().Counter("hauberk_campaign_interrupts_total").Inc()
		}
		return nil, fmt.Errorf("%w (%d/%d injections done)", ErrCampaignInterrupted, cs.Completed(), owned)
	}

	// Shard complete: rebuild the aggregate view from the store's records
	// (the same derivation LoadCampaignDir uses for merged shards).
	out := &CampaignResult{Spec: spec}
	for i := range plan {
		if i%opts.Shards != opts.Shard {
			continue
		}
		rec, ok := cs.Done(i)
		if !ok {
			return nil, fmt.Errorf("harness: campaign store lost record %d", i)
		}
		out.Results = append(out.Results, resultFromRecord(rec))
	}
	out.aggregate()
	e.emitCampaignDone(sp, spec, len(out.Results), out)
	return out, nil
}

// deriveWatchdogTimeout derives the per-injection deadline from the wall
// time of one full clean run of the instrumented kernel — measured once,
// while the golden trace gt is recorded, and cached with it, so a campaign
// pays no probe launch of its own — through the guardian's Section VI(i)
// rule, guardian.HangDeadline: T times the clean wall time, floored at
// floor. The step-budget rule (hangBudget) goes through the same function.
// The baseline is the whole grid's time, not a resumed injection's: an
// injection that runs to its end, or on the full path, must still fit the
// deadline.
func deriveWatchdogTimeout(gt *goldenTrace, floor time.Duration) time.Duration {
	ms := guardian.HangDeadline(float64(gt.cleanWall)/float64(time.Millisecond), float64(floor)/float64(time.Millisecond))
	return time.Duration(ms * float64(time.Millisecond))
}

// heartbeatLagBuckets are the upper bounds (ms) for the campaign
// heartbeat-lag histogram exposed at /metrics: the gap between
// consecutive recorded results.
var heartbeatLagBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// ErrCampaignInterrupted reports that a campaign stopped before completing
// its shard because the context was cancelled (SIGINT/SIGTERM in the CLI).
// The store has been flushed, so re-launching with resume continues from
// the completed set.
var ErrCampaignInterrupted = errors.New("campaign interrupted; store flushed, re-launch with resume")

// emitCampaignDone is a campaign's completion telemetry: the per-outcome
// counters and the campaign.done span event.
func (e *Env) emitCampaignDone(sp obs.Span, spec *workloads.Spec, n int, out *CampaignResult) {
	if !e.Obs.Enabled() {
		return
	}
	m := e.Obs.Metrics()
	m.Help("hauberk_injection_outcomes_total",
		"fault-injection outcomes (Section VIII five-way classification)")
	for o := Outcome(0); o < NumOutcomes; o++ {
		if c := out.All[o]; c > 0 {
			m.Counter("hauberk_injection_outcomes_total",
				"program", spec.Name, "outcome", o.String()).Add(int64(c))
		}
	}
	sp.End(
		obs.Str("program", spec.Name),
		obs.Int("injections", int64(n)),
		obs.Int("failures", int64(out.All[OutcomeFailure])),
		obs.Int("undetected", int64(out.All[OutcomeUndetected])),
		obs.Float("coverage", out.All.Coverage()))
}
