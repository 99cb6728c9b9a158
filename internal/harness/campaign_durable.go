package harness

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hauberk/internal/core/translate"
	"hauberk/internal/guardian"
	cstore "hauberk/internal/harness/store"
	"hauberk/internal/kir"
	"hauberk/internal/obs"
	"hauberk/internal/stats"
	"hauberk/internal/workloads"
)

// heartbeatLagBuckets are the upper bounds (ms) for the campaign- and
// worker-heartbeat-lag histograms exposed at /metrics: the gap between
// consecutive recorded results (campaign) or liveness frames (worker).
var heartbeatLagBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// ErrCampaignInterrupted reports that a campaign stopped before completing
// its shard because the context was cancelled (SIGINT/SIGTERM in the CLI).
// The store has been flushed, so re-launching with resume continues from
// the completed set.
var ErrCampaignInterrupted = errors.New("campaign interrupted; store flushed, re-launch with resume")

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

// recordOf converts a classified result into its store form.
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
// alone — the merged-shard path and the completed run share this,
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

// runInjectionGuarded wraps one injection in the watchdog-and-retry
// envelope: a wall-clock expiry classifies the run as a hang failure (the
// simulator's step budget catches simulated hangs; the watchdog catches
// the harness itself wedging), and infrastructure errors retry with
// exponential back-off up to opts.Retries times.
func (e *Env) runInjectionGuarded(
	ctx context.Context,
	pc *PreparedCampaign,
	inj Injection,
	timeout time.Duration,
	opts CampaignOptions,
) (*InjectionResult, error) {
	spec := pc.Spec
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
		return e.RunInjection(spec, pc.Golden, pc.Prof.Store, pc.Mode, inj)
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

// CampaignTable renders a campaign's aggregate outcomes in the Figure 14
// shape: one row per error-bit count plus a total row.
func CampaignTable(man cstore.Manifest, cr *CampaignResult) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Campaign %s (mode %d, %d injections, plan %s)", man.Program, man.Mode, man.Injections, man.PlanHash),
		Header: []string{"bits", "n", "failure %", "masked %", "det&masked %", "detected %", "undetected %", "coverage %"},
	}
	for _, b := range cr.BitCounts() {
		t.AddOutcomeRow(cr.ByBits[b], b, cr.ByBits[b].Total())
	}
	t.AddOutcomeRow(&cr.All, "ALL", cr.All.Total())
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
