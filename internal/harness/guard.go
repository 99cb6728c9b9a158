package harness

import (
	"context"
	"time"

	"hauberk/internal/guardian"
	"hauberk/internal/obs"
)

// runInjectionGuarded wraps one injection against the campaign's golden
// trace gt in the watchdog-and-retry envelope: a wall-clock expiry
// classifies the run as a hang failure (the simulator's step budget
// catches simulated hangs; the watchdog catches the harness itself
// wedging), and infrastructure errors retry with exponential back-off up
// to opts.Retries times.
func (e *Env) runInjectionGuarded(
	ctx context.Context,
	pc *PreparedCampaign,
	gt *goldenTrace,
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
		return e.injectOn(gt, pc.Golden, inj), nil
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
