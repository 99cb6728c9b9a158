package harness

import (
	"context"
	"sync"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/guardian"
	"hauberk/internal/kir"
	"hauberk/internal/obs"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// RecoveryStats aggregates a campaign run end-to-end through the guardian
// (Figure 11): every injected execution is supervised, re-executed on
// alarms or failures, and diagnosed.
type RecoveryStats struct {
	Runs            int
	Clean           int // no alarm on first execution
	TransientFixed  int // alarm/failure diagnosed transient; re-execution output taken
	FalseAlarms     int // identical alarmed outputs; ranges widened on-line
	DeviceFaults    int // migrated off a disabled device
	SoftwareErrors  int
	GaveUp          int
	Reexecutions    int // executions beyond the first, summed
	FinalCorrect    int // final accepted output meets the requirement
	RangesWidened   int // values absorbed by on-line learning
	AlphaController *guardian.AlphaController
}

// RunRecoveryCampaign injects each planned fault into a guardian-supervised
// execution and tallies the diagnosis outcomes. Faults are transient: they
// arm once and do not re-fire on re-execution, so the guardian's
// re-execution paths get exercised exactly as the paper describes.
//
// Injections run on the campaign workers dispatch hands out (up to
// Scale.Workers, drawn from the process-wide worker budget), each with its
// own devices and injector; the live range store, the stats tallies, and
// the alpha controller are shared campaign-wide, as they would be in one
// production deployment. The per-injection diagnosis is deterministic; only
// the interleaving of on-line learning across injections depends on
// scheduling.
func (e *Env) RunRecoveryCampaign(
	spec *workloads.Spec,
	golden *GoldenRun,
	store *ranges.Store,
	plan []Injection,
) (*RecoveryStats, error) {
	// The clean run under the deployed store is the hang baseline of every
	// supervised execution, first run and re-execution alike (on-line
	// widening of the live clone changes alarms, not control flow).
	gt, err := e.goldenTrace(spec, golden, store, translate.ModeFIFT)
	if err != nil {
		return nil, err
	}
	tr := gt.tr
	stats := &RecoveryStats{AlphaController: guardian.NewAlphaController()}
	stats.AlphaController.Obs = e.Obs
	// One store shared across the campaign: on-line learning and alpha
	// recalibration accumulate, as they would in production. Detector
	// Check/Absorb synchronize internally.
	live := store.Clone()

	var mu sync.Mutex // guards stats and the alpha controller
	err = e.dispatch(context.TODO(), len(plan), 1, func(_ context.Context, _, i, _ int) error {
		injector := &swifi.Injector{}
		injector.Arm(plan[i].Cmd)

		pool := guardian.NewDevicePool(
			[]*gpu.Device{e.NewDevice(), e.NewDevice()},
			func(*gpu.Device) bool { return true }, // transient faults: BIST passes
			2,
		)
		run := func(dev *gpu.Device) *guardian.RunOutcome {
			inst := spec.Setup(dev, golden.Dataset)
			cb := hrt.NewControlBlock(tr.Detectors, live)
			rt := hrt.NewFT(cb)
			rt.Inject = injector.Probe // injector fires once; re-executions are clean
			res, lerr := dev.Launch(tr.Kernel, gpu.LaunchSpec{
				Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt,
				StepBudget: gt.hangBudget,
			})
			out := &guardian.RunOutcome{Err: lerr, Cycles: res.Cycles}
			if lerr == nil {
				out.Output = inst.ReadOutput()
				out.SDC = cb.SDC()
				out.Alarms = cb.Alarms()
			}
			return out
		}
		cfg := guardian.Config{
			Pool: pool,
			Obs:  e.Obs,
			OnFalseAlarm: func(alarms []hrt.Alarm) {
				for _, a := range alarms {
					if a.Kind != kir.DetectRange { // only range alarms carry a value to learn
						continue
					}
					if a.Detector < len(tr.Detectors) {
						if det := live.Get(tr.Detectors[a.Detector].Name); det != nil {
							det.Absorb(a.Value)
							mu.Lock()
							stats.RangesWidened++
							mu.Unlock()
							if e.Obs.Enabled() {
								e.Obs.Emit(obs.EvRangeWiden,
									obs.Int("detector", int64(a.Detector)),
									obs.Str("name", tr.Detectors[a.Detector].Name),
									obs.Float("value", a.Value))
								e.Obs.Metrics().Counter("hauberk_ranges_widened_total").Inc()
							}
						}
					}
				}
			},
		}
		rep, serr := guardian.Supervise(cfg, run)
		mu.Lock()
		defer mu.Unlock()
		if serr != nil {
			return serr
		}
		stats.Runs++
		stats.Reexecutions += rep.Executions - 1
		switch rep.Diagnosis {
		case guardian.DiagClean:
			stats.Clean++
		case guardian.DiagTransient:
			stats.TransientFixed++
		case guardian.DiagFalseAlarm:
			stats.FalseAlarms++
		case guardian.DiagDeviceFault:
			stats.DeviceFaults++
		case guardian.DiagSoftwareError:
			stats.SoftwareErrors++
		case guardian.DiagGaveUp:
			stats.GaveUp++
		}
		if rep.Diagnosis != guardian.DiagGaveUp && rep.Final != nil && rep.Final.Err == nil {
			if spec.Requirement.Check(golden.Output, rep.Final.Output) {
				stats.FinalCorrect++
			}
		}
		if rep.Executions > 1 {
			stats.AlphaController.ObserveDiagnosis(rep.Diagnosis == guardian.DiagFalseAlarm, live)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}
