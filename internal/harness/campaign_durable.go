package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/guardian"
	"hauberk/internal/guardian/procexec/chaos"
	cstore "hauberk/internal/harness/store"
	"hauberk/internal/kir"
	"hauberk/internal/obs"
	"hauberk/internal/stats"
	"hauberk/internal/workloads"
)

// heartbeatLagBuckets are the upper bounds (ms) for the campaign- and
// worker-heartbeat-lag histograms exposed at /metrics: the gap between
// consecutive durable results (campaign) or liveness frames (worker).
var heartbeatLagBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// ErrCampaignInterrupted reports that a durable campaign stopped before
// completing its shard because the context was cancelled (SIGINT/SIGTERM
// in the CLI). The store has been flushed, so re-launching with resume
// continues from the completed set.
var ErrCampaignInterrupted = errors.New("campaign interrupted; store flushed, re-launch with resume")

// CampaignOptions tunes the durable campaign engine.
type CampaignOptions struct {
	// Dir is the campaign store directory (required).
	Dir string
	// Resume loads completed injection IDs from the store and runs only
	// the remainder; without it a non-empty store is an error.
	Resume bool
	// Shard/Shards split the planned injection list across processes:
	// this run owns plan indices where idx % Shards == Shard. The plan is
	// seeded, so every shard derives the same list independently.
	Shard, Shards int
	// Timeout is the per-injection watchdog budget; 0 derives it from a
	// profiled clean run (WatchdogFactor times the clean wall time, with
	// MinTimeout as the floor), mirroring the guardian's Section VI(i)
	// hang rule of T times the previous execution time.
	Timeout time.Duration
	// WatchdogFactor is T (default: the guardian watchdog's 10).
	WatchdogFactor float64
	// MinTimeout floors the derived timeout (default 250ms) so scheduler
	// jitter on a fast kernel is not classified as a hang.
	MinTimeout time.Duration
	// Retries bounds per-injection retries of infrastructure errors
	// (default 2; negative disables retrying).
	Retries int
	// Backoff is the retry delay schedule in milliseconds (default: the
	// guardian's doubling policy from 25ms, capped at 1s).
	Backoff guardian.BackoffPolicy
	// OnResult, if set, observes progress after each durably recorded
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
	if o.WatchdogFactor <= 0 {
		o.WatchdogFactor = guardian.DefaultWatchdog().Factor
	}
	if o.MinTimeout <= 0 {
		o.MinTimeout = 250 * time.Millisecond
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

// ParseShard parses the CLI's "i/N" shard syntax.
func ParseShard(s string) (shard, shards int, err error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("harness: shard %q: want i/N", s)
	}
	shard, err = strconv.Atoi(s[:i])
	if err != nil {
		return 0, 0, fmt.Errorf("harness: bad shard index in %q: %w", s, err)
	}
	shards, err = strconv.Atoi(s[i+1:])
	if err != nil {
		return 0, 0, fmt.Errorf("harness: bad shard count in %q: %w", s, err)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("harness: shard %q out of range", s)
	}
	return shard, shards, nil
}

// CampaignManifest derives the deterministic identity of a planned
// campaign: the plan hash fingerprints the ordered stable injection IDs,
// so two processes that planned with the same seed and scale agree, and a
// stale store directory is detected before any append.
func (e *Env) CampaignManifest(spec *workloads.Spec, mode translate.Mode, plan []Injection) cstore.Manifest {
	labels := make([]any, 0, len(plan)+2)
	labels = append(labels, "campaign-plan", int(mode))
	for i := range plan {
		labels = append(labels, plan[i].Cmd.Key())
	}
	return cstore.Manifest{
		Program:    spec.Name,
		Mode:       int(mode),
		Injections: len(plan),
		PlanHash:   fmt.Sprintf("%016x", stats.Fingerprint(labels...)),
		Scale: fmt.Sprintf("sites=%d masks=%d bits=%v",
			e.Scale.MaxSites, e.Scale.MasksPerSite, e.Scale.BitCounts),
	}
}

// recordOf converts a classified result into its durable form.
func recordOf(idx int, inj Injection, r *InjectionResult) cstore.Record {
	return cstore.Record{
		Idx:       idx,
		ID:        inj.Cmd.Key(),
		Outcome:   int(r.Outcome),
		Hang:      r.Hang,
		Activated: r.Activated,
		Bits:      inj.Bits,
		Class:     int(inj.Class),
		Retries:   r.Retries,
		TimedOut:  r.TimedOut,
	}
}

// resultFromRecord rebuilds the aggregation-relevant view of a result.
// Records carry bits and class, so figure aggregates derive from the log
// alone — the merged-shard path and the completed durable run share this,
// which is what makes their digests byte-identical.
func resultFromRecord(rec cstore.Record) InjectionResult {
	return InjectionResult{
		Injection: Injection{Bits: rec.Bits, Class: kir.DataClass(rec.Class)},
		Outcome:   Outcome(rec.Outcome),
		Hang:      rec.Hang,
		Activated: rec.Activated,
		TimedOut:  rec.TimedOut,
		Retries:   rec.Retries,
	}
}

// RunCampaignDurable executes (or resumes) one shard of an injection
// campaign with durable results: every classified outcome is appended to
// the store's JSONL log before it counts as done, each injection runs
// under a wall-clock watchdog (expiry classifies the run as a hang
// failure, Section VI(i)), and infrastructure errors are retried with the
// guardian's exponential back-off. Cancelling ctx stops dispatch, flushes
// the store and returns ErrCampaignInterrupted; a later call with
// Resume set completes the remainder and yields aggregates byte-identical
// to an uninterrupted run.
func (e *Env) RunCampaignDurable(
	ctx context.Context,
	spec *workloads.Spec,
	golden *GoldenRun,
	rstore *ranges.Store,
	mode translate.Mode,
	plan []Injection,
	opts CampaignOptions,
) (*CampaignResult, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("harness: durable campaign needs a store dir")
	}
	if opts.Shard < 0 || opts.Shard >= opts.Shards {
		return nil, fmt.Errorf("harness: invalid shard %d/%d", opts.Shard, opts.Shards)
	}
	switch opts.Isolation {
	case "", IsolationOff, IsolationProcess:
	default:
		return nil, fmt.Errorf("harness: unknown isolation mode %q", opts.Isolation)
	}
	man := e.CampaignManifest(spec, mode, plan)
	cs, err := cstore.Open(opts.Dir, man, opts.Shard, opts.Shards, opts.Resume)
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
			obs.Int("mode", int64(mode)),
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
		timeout, err = e.deriveWatchdogTimeout(spec, golden, rstore, mode, opts)
		if err != nil {
			return nil, err
		}
	}

	workers, extraWorkers := e.acquireCampaignWorkers()
	defer ReleaseLaunchSlots(extraWorkers)
	var pool *isoPool
	if opts.Isolation == IsolationProcess {
		pool, err = e.newIsoPool(workers, opts)
		if err != nil {
			return nil, err
		}
		// Closed (killing every live worker group) before cs.Close's
		// final flush, so no worker process outlives the campaign.
		defer pool.Close()
	}
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		done       = resumed
		lastAppend time.Time
		firstErr   error
	)
	sem := make(chan struct{}, workers)
	for _, idx := range pending {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(idx int) {
			defer wg.Done()
			defer func() { <-sem }()
			var r *InjectionResult
			var err error
			if pool != nil {
				r, err = e.runInjectionIsolated(ctx, pool, spec, golden, rstore, mode, plan[idx], timeout, opts)
			} else {
				r, err = e.runInjectionGuarded(ctx, spec, golden, rstore, mode, plan[idx], timeout, opts)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) && firstErr == nil {
					firstErr = fmt.Errorf("injection %d: %w", idx, err)
				}
				return
			}
			if err := cs.Append(recordOf(idx, plan[idx], r)); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			done++
			if e.Obs.Enabled() {
				// One progress event per durable append — the progress-
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
		}(idx)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
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

	// Shard complete: rebuild the aggregate view from the durable records
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
// Deadline applies "WatchdogFactor times the baseline, floored at
// MinTimeout". Routing the derivation through Watchdog (rather than
// re-implementing the arithmetic) keeps the campaign engine and the
// procexec supervisor — which seeds the same way for its request
// deadlines — on one rule. The baseline is the whole grid's time, not a
// resumed injection's: an injection that runs to its end, or on the full
// path, must still fit the deadline.
func (e *Env) deriveWatchdogTimeout(
	spec *workloads.Spec,
	golden *GoldenRun,
	rstore *ranges.Store,
	mode translate.Mode,
	opts CampaignOptions,
) (time.Duration, error) {
	gt, err := e.goldenTrace(e.Config, spec, golden, rstore, mode)
	if err != nil {
		return 0, fmt.Errorf("harness: clean timing run of %s: %w", spec.Name, err)
	}
	wd := guardian.NewWatchdog(guardian.WatchdogConfig{
		Factor:    opts.WatchdogFactor,
		MinCycles: float64(opts.MinTimeout) / float64(time.Millisecond),
	})
	wd.Seed(spec.Name, float64(gt.cleanWall)/float64(time.Millisecond))
	return time.Duration(wd.Deadline(spec.Name) * float64(time.Millisecond)), nil
}

// runInjectionGuarded wraps one injection in the watchdog-and-retry
// envelope: a wall-clock expiry classifies the run as a hang failure (the
// simulator's step budget catches simulated hangs; the watchdog catches
// the harness itself wedging), and infrastructure errors retry with
// exponential back-off up to opts.Retries times.
func (e *Env) runInjectionGuarded(
	ctx context.Context,
	spec *workloads.Spec,
	golden *GoldenRun,
	rstore *ranges.Store,
	mode translate.Mode,
	inj Injection,
	timeout time.Duration,
	opts CampaignOptions,
) (*InjectionResult, error) {
	g := guard{
		timeout: timeout,
		retries: opts.Retries,
		backoff: opts.Backoff,
		onTimeout: func() {
			if e.Obs.Enabled() {
				e.Obs.Emit(obs.EvCampaignWatchdog,
					obs.Str("program", spec.Name),
					obs.Str("id", inj.Cmd.Key()),
					obs.Int("timeout_ms", int64(timeout/time.Millisecond)))
				e.Obs.Metrics().Counter("hauberk_campaign_watchdog_kills_total").Inc()
			}
		},
		onRetry: func(attempt int, delay time.Duration) {
			if e.Obs.Enabled() {
				e.Obs.Emit(obs.EvCampaignRetry,
					obs.Str("program", spec.Name),
					obs.Str("id", inj.Cmd.Key()),
					obs.Int("attempt", int64(attempt)),
					obs.Int("backoff_ms", int64(delay/time.Millisecond)))
				e.Obs.Metrics().Counter("hauberk_campaign_retries_total").Inc()
			}
		},
	}
	return g.run(ctx, inj, func() (*InjectionResult, error) {
		return e.RunInjection(spec, golden, rstore, mode, inj)
	})
}

// guard is the watchdog-and-retry envelope around one injection run,
// separated from Env so its policy is testable with synthetic runners.
type guard struct {
	timeout   time.Duration
	retries   int
	backoff   guardian.BackoffPolicy // delays in milliseconds
	onTimeout func()
	onRetry   func(attempt int, delay time.Duration)
}

func (g *guard) run(ctx context.Context, inj Injection, runFn func() (*InjectionResult, error)) (*InjectionResult, error) {
	type outcome struct {
		r   *InjectionResult
		err error
	}
	for attempt := 0; ; attempt++ {
		ch := make(chan outcome, 1)
		go func() {
			// A panic that escapes the launch-level recover (setup code,
			// output classification) would kill the campaign process from
			// this goroutine; contain it as a classified crash failure,
			// the same outcome a *gpu.PanicError produces.
			defer func() {
				if p := recover(); p != nil {
					ch <- outcome{&InjectionResult{
						Injection: inj,
						Outcome:   OutcomeFailure,
					}, nil}
				}
			}()
			r, err := runFn()
			ch <- outcome{r, err}
		}()
		deadline := time.Now().Add(g.timeout)
		timer := time.NewTimer(g.timeout)
		var got outcome
		expired := false
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
			expired = true
		case got = <-ch:
			timer.Stop()
			// A result that lands past the deadline is still a hang: on a
			// busy host the timer and the result can become ready together,
			// and the classification must not depend on select's coin flip.
			expired = !time.Now().Before(deadline)
		}
		if expired {
			// The run goroutine is left to finish on its own (the
			// simulator's step budget bounds it); its result is discarded.
			if g.onTimeout != nil {
				g.onTimeout()
			}
			return &InjectionResult{
				Injection: inj,
				Outcome:   OutcomeFailure,
				Hang:      true,
				TimedOut:  true,
				Retries:   attempt,
			}, nil
		}
		if got.err == nil {
			got.r.Retries = attempt
			return got.r, nil
		}
		if attempt >= g.retries {
			return nil, got.err
		}
		delay := time.Duration(g.backoff.Delay(attempt)) * time.Millisecond
		if g.onRetry != nil {
			g.onRetry(attempt+1, delay)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// emitCampaignDone is the completion telemetry of every campaign runner:
// the per-outcome counters and the campaign.done span event.
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

// CampaignTable renders a campaign's aggregate outcomes in the Figure 14
// shape: one row per error-bit count plus a total row.
func CampaignTable(man cstore.Manifest, cr *CampaignResult) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Campaign %s (mode %d, %d injections, plan %s)", man.Program, man.Mode, man.Injections, man.PlanHash),
		Header: []string{"bits", "n", "failure %", "masked %", "det&masked %", "detected %", "undetected %", "coverage %"},
	}
	bits := make([]int, 0, len(cr.ByBits))
	for b := range cr.ByBits {
		bits = append(bits, b)
	}
	sort.Ints(bits)
	row := func(label string, tal *Tally) {
		t.AddRow(label, fmt.Sprintf("%d", tal.Total()),
			100*tal.Frac(OutcomeFailure), 100*tal.Frac(OutcomeMasked),
			100*tal.Frac(OutcomeDetectedMasked), 100*tal.Frac(OutcomeDetected),
			100*tal.Frac(OutcomeUndetected), 100*tal.Coverage())
	}
	for _, b := range bits {
		row(fmt.Sprintf("%d", b), cr.ByBits[b])
	}
	row("ALL", &cr.All)
	t.Notes = append(t.Notes, fmt.Sprintf("hangs: %d", cr.Hangs))
	return t
}

// LoadCampaignDir merges every shard log in a campaign directory into one
// aggregate result. An incomplete merge (missing shards or an interrupted
// run) is an error naming the missing count, so reports never silently
// aggregate a partial campaign.
func LoadCampaignDir(dir string) (cstore.Manifest, *CampaignResult, error) {
	man, recs, err := cstore.Load(dir)
	if err != nil {
		return man, nil, err
	}
	if missing := cstore.Missing(man, recs); missing > 0 {
		return man, nil, fmt.Errorf("harness: campaign %s incomplete: %d of %d injections missing (resume it or merge all shards)",
			dir, missing, man.Injections)
	}
	out := &CampaignResult{Results: make([]InjectionResult, 0, len(recs))}
	for _, rec := range recs {
		out.Results = append(out.Results, resultFromRecord(rec))
	}
	out.aggregate()
	return man, out, nil
}
