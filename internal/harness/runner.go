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
	// Dir is the campaign store directory: every result is appended to a
	// JSONL log there before it counts as done. Empty keeps the results in
	// memory, for a campaign whose aggregate the caller consumes directly.
	Dir string
	// Resume loads completed injection IDs from the store and runs only
	// the remainder; without it a non-empty store is an error. It needs
	// Dir.
	Resume bool
	// Shard/Shards split the planned injection list across processes:
	// this run owns plan indices where idx % Shards == Shard. The plan is
	// seeded, so every shard derives the same list independently.
	Shard, Shards int
	// Timeout is the per-injection watchdog budget; 0 derives it from the
	// clean run recorded with the golden trace (the guardian's T times its
	// wall time, floored at watchdogFloor), mirroring the Section VI(i)
	// hang rule of T times the previous execution time.
	Timeout time.Duration
	// Retries bounds per-injection retries of infrastructure errors
	// (default 2; negative disables retrying).
	Retries int
	// Backoff is the retry delay schedule in milliseconds (default: the
	// guardian's doubling policy from 25ms, capped at 1s).
	Backoff guardian.BackoffPolicy
	// OnResult, if set, observes progress after each recorded
	// result (done counts completed injections of this shard, total the
	// shard's size). Tests use it to interrupt mid-campaign.
	OnResult func(done, total int)
	// Isolation selects the executor: "" or IsolationOff runs injections
	// in the campaign process; IsolationProcess runs each in a supervised
	// worker subprocess (internal/guardian/procexec) so a panic, runaway
	// loop or OOM kills one worker, never the campaign. Spawn failures
	// degrade gracefully to the in-process path per injection.
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
	// WorkerWarmupGrace extends the first request's deadline on a freshly
	// spawned worker, which must re-stage the program before executing
	// (0 = the procexec default). Tests shrink it.
	WorkerWarmupGrace time.Duration
}

func (o CampaignOptions) withDefaults() CampaignOptions {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff == (guardian.BackoffPolicy{}) {
		o.Backoff = guardian.BackoffPolicy{Init: 25, Factor: 2, Max: 1000}
	}
	return o
}

// RunPrepared executes (or resumes) one shard of a prepared campaign and
// is the only code that runs a list of injections: the library entry
// behind `hauberk-run -campaign-dir`, a hauberkd submission, the figures
// and `hauberk-inject`. Every classified outcome is recorded in the
// campaign store before it counts as done — appended to the JSONL log
// under opts.Dir, or kept in memory when there is none — each injection
// runs under a wall-clock watchdog (expiry classifies the run as a hang
// failure, Section VI(i)), and infrastructure errors are retried with the
// guardian's exponential back-off. Cancelling ctx stops dispatch, flushes
// the store and returns ErrCampaignInterrupted; a later call with Resume
// set completes the remainder and yields aggregates byte-identical to an
// uninterrupted run. The preparation is read-only during the run, so one
// PreparedCampaign may back any number of concurrent RunPrepared calls
// with distinct stores.
func (e *Env) RunPrepared(ctx context.Context, pc *PreparedCampaign, opts CampaignOptions) (*CampaignResult, error) {
	opts = opts.withDefaults()
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
	cs, err := cstore.Open(opts.Dir, e.CampaignManifest(spec, pc.Mode, plan), opts.Shard, opts.Shards, opts.Resume)
	if err != nil {
		return nil, err
	}
	defer cs.Close()

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
					opts.Dir, i, rec.ID, plan[i].Cmd.Key())
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

	timeout := opts.Timeout
	if timeout <= 0 {
		timeout, err = e.deriveWatchdogTimeout(pc, watchdogFloor)
		if err != nil {
			return nil, err
		}
	}
	var pool isoPool
	if opts.Isolation == IsolationProcess {
		pool, err = e.newIsoPool(opts)
		if err != nil {
			return nil, err
		}
		// Closed (killing every live worker group) before cs.Close's
		// final flush, so no worker process outlives the campaign.
		defer pool.Close()
	}
	var (
		mu         sync.Mutex // guards done, lastAppend and the order of progress reports
		done       = resumed
		lastAppend time.Time
	)
	err = e.dispatch(ctx, len(pending), func(ctx context.Context, slot, k int) error {
		idx := pending[k]
		var r *InjectionResult
		var err error
		if pool != nil {
			r, err = e.runInjectionIsolated(ctx, pool[slot], pc, plan[idx], timeout, opts)
		} else {
			r, err = e.runInjectionGuarded(ctx, pc, plan[idx], timeout, opts)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil // an interrupt, reported below from ctx; or a sibling failed first
			}
			return fmt.Errorf("injection %d: %w", idx, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if err := cs.Append(recordOf(idx, plan[idx], r)); err != nil {
			return err
		}
		done++
		if e.Obs.Enabled() {
			// One progress event per recorded result — the progress-
			// bearing feed the live monitor's /campaign tracker and
			// /events tail aggregate (outcome and hang ride along so
			// failure classes can be tallied without the store).
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
				e.Obs.Metrics().Histogram("hauberk_campaign_heartbeat_lag_ms",
					heartbeatLagBuckets).
					Observe(float64(now.Sub(lastAppend)) / float64(time.Millisecond))
			}
			lastAppend = now
		}
		if opts.OnResult != nil {
			opts.OnResult(done, owned)
		}
		return nil
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
// while the golden trace is recorded, and cached with it, so a campaign
// pays no probe launch of its own — through the guardian watchdog's own
// Section VI(i) rule: the clean wall time Seeds the kernel's baseline, and
// Deadline applies "T (the guardian's default) times the baseline, floored
// at floor". Routing the derivation through Watchdog (rather than
// re-implementing the arithmetic) keeps the wall-clock rule and the
// step-budget rule (hangBudget) on one definition. The baseline is the
// whole grid's time, not a resumed injection's: an injection that runs to
// its end, or on the full path, must still fit the deadline.
func (e *Env) deriveWatchdogTimeout(pc *PreparedCampaign, floor time.Duration) (time.Duration, error) {
	gt, err := e.goldenTrace(pc.Spec, pc.Golden, pc.Prof.Store, pc.Mode)
	if err != nil {
		return 0, fmt.Errorf("harness: clean timing run of %s: %w", pc.Spec.Name, err)
	}
	wd := guardian.NewWatchdog(guardian.WatchdogConfig{
		Factor:    guardian.DefaultWatchdog().Factor,
		MinCycles: float64(floor) / float64(time.Millisecond),
	})
	wd.Seed(pc.Spec.Name, float64(gt.cleanWall)/float64(time.Millisecond))
	return time.Duration(wd.Deadline(pc.Spec.Name) * float64(time.Millisecond)), nil
}
