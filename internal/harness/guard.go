package harness

import (
	"time"

	"hauberk/internal/obs"
)

// runInjectionGuarded runs one injection against the campaign's golden
// trace gt on the calling goroutine, counting it into im, under the
// Section VI(i) hang rule: a run that takes longer than timeout is a hang
// failure. The simulator's step budget (hangBudget) bounds every faulted
// launch, so the run always returns; the deadline then decides whether it
// took too long.
func (e *Env) runInjectionGuarded(
	pc *PreparedCampaign,
	gt *goldenTrace,
	inj Injection,
	timeout time.Duration,
	im *injectionMetrics,
) *InjectionResult {
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
	return g.run(inj, func() *InjectionResult {
		return e.injectOn(gt, pc.Golden, inj, im)
	})
}

// guard is the hang rule around one injection run, separated from Env so
// its policy is testable with synthetic runners.
type guard struct {
	timeout   time.Duration
	onTimeout func()
}

// run executes runFn with panic containment and classifies its result by
// the wall-clock deadline.
func (g *guard) run(inj Injection, runFn func() *InjectionResult) *InjectionResult {
	deadline := time.Now().Add(g.timeout)
	r := func() (r *InjectionResult) {
		// A panic that escapes the launch-level recover (setup code,
		// output classification) would kill the campaign; contain it as a
		// classified crash failure, the same outcome a *gpu.PanicError
		// produces.
		defer func() {
			if recover() != nil {
				r = &InjectionResult{Injection: inj, Outcome: OutcomeFailure}
			}
		}()
		return runFn()
	}()
	if time.Now().Before(deadline) {
		return r
	}
	// A result that lands past the deadline is a hang, whatever it says.
	if g.onTimeout != nil {
		g.onTimeout()
	}
	return &InjectionResult{
		Injection: inj,
		Outcome:   OutcomeFailure,
		Hang:      true,
		TimedOut:  true,
	}
}
