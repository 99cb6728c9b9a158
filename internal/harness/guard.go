package harness

import (
	"context"
	"time"

	"hauberk/internal/obs"
)

// runInjectionGuarded runs one injection against the campaign's golden
// trace gt under the in-process watchdog: a wall-clock expiry classifies
// the run as a hang failure (the simulator's step budget catches
// simulated hangs; the watchdog catches the harness itself wedging).
func (e *Env) runInjectionGuarded(
	ctx context.Context,
	pc *PreparedCampaign,
	gt *goldenTrace,
	inj Injection,
	timeout time.Duration,
) (*InjectionResult, error) {
	spec := pc.Spec
	g := guard{
		timeout: timeout,
		onTimeout: func() {
			if e.Obs.Enabled() {
				e.Obs.Emit(obs.EvCampaignWatchdog,
					obs.Str("program", spec.Name),
					obs.Str("id", inj.Cmd.Key()),
					obs.Int("timeout_ms", int64(timeout/time.Millisecond)))
				e.Obs.Metrics().Counter("hauberk_campaign_watchdog_kills_total").Inc()
			}
		},
	}
	return g.run(ctx, inj, func() *InjectionResult {
		return e.injectOn(gt, pc.Golden, inj)
	})
}

// guard is the watchdog envelope around one injection run, separated from
// Env so its policy is testable with synthetic runners.
type guard struct {
	timeout   time.Duration
	onTimeout func()
}

// run executes runFn with panic containment and the wall-clock deadline.
// Its only error is ctx's.
func (g *guard) run(ctx context.Context, inj Injection, runFn func() *InjectionResult) (*InjectionResult, error) {
	ch := make(chan *InjectionResult, 1)
	go func() {
		// A panic that escapes the launch-level recover (setup code,
		// output classification) would kill the campaign process from
		// this goroutine; contain it as a classified crash failure, the
		// same outcome a *gpu.PanicError produces.
		defer func() {
			if p := recover(); p != nil {
				ch <- &InjectionResult{Injection: inj, Outcome: OutcomeFailure}
			}
		}()
		ch <- runFn()
	}()
	deadline := time.Now().Add(g.timeout)
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timer.C:
	case r := <-ch:
		// A result that lands past the deadline is still a hang: on a
		// busy host the timer and the result can become ready together,
		// and the classification must not depend on select's coin flip.
		if time.Now().Before(deadline) {
			return r, nil
		}
	}
	// The run goroutine is left to finish on its own (the simulator's step
	// budget bounds it); its result is discarded.
	if g.onTimeout != nil {
		g.onTimeout()
	}
	return &InjectionResult{
		Injection: inj,
		Outcome:   OutcomeFailure,
		Hang:      true,
		TimedOut:  true,
	}, nil
}
