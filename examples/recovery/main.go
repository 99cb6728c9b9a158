// Recovery: demonstrate the guardian's Figure 11 diagnosis automaton on
// three scenarios:
//
//  1. a transient fault — the first run raises an SDC alarm, the
//     re-execution is clean, and its output is taken;
//  2. a false positive — a new dataset drives the accumulator outside the
//     profiled ranges on every run; the guardian recognizes the identical
//     alarmed outputs, widens the ranges (on-line learning), and the next
//     execution passes;
//  3. a device fault — every run alarms with different outputs, the BIST
//     self-test fails, the device is disabled and the program migrates to
//     a healthy device; the back-off daemon then retests the disabled
//     device, doubling Tbackoff while the BIST fails, and re-enables it
//     once the intermittent fault clears.
//
// Run with:
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/guardian"
	"hauberk/internal/harness"
	"hauberk/internal/stats"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// demo is the program every scenario supervises: CP, translated and
// profiled once.
type demo struct {
	env  *harness.Env
	spec *workloads.Spec
	tr   *translate.Result
	prof *harness.ProfileResult
}

func run(w io.Writer) error {
	d := demo{env: harness.NewEnv(harness.QuickScale()), spec: workloads.CP()}
	ds := workloads.Dataset{Index: 0}

	var err error
	if d.prof, err = d.env.Profile(d.spec, []workloads.Dataset{ds}); err != nil {
		return err
	}
	if d.tr, err = translate.Instrument(d.spec.Build(), translate.NewOptions(translate.ModeFIFT)); err != nil {
		return err
	}

	// Find a loop FP site to corrupt.
	site := -1
	for _, s := range d.tr.Sites {
		if s.VarName == "e" {
			site = s.ID
		}
	}
	healthy := func() bool { return true }

	fmt.Fprintln(w, "=== scenario 1: transient fault ===")
	{
		first := true
		rep, _, err := d.supervise(ds, healthy, func(inj *swifi.Injector) {
			if first {
				inj.Arm(swifi.Command{Site: site, Instance: 500, Mask: 1 << 30})
				first = false
			}
		}, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "diagnosis: %s after %d executions\n\n", rep.Diagnosis, rep.Executions)
	}

	fmt.Fprintln(w, "=== scenario 2: false positive + on-line learning ===")
	{
		// Evaluate on a dataset the detector was never trained on, with
		// deliberately tight ranges (alpha stays 1).
		newDS := workloads.Dataset{Index: 33}
		store := d.prof.Store
		learned := 0
		onFalseAlarm := func(alarms []hrt.Alarm) {
			for _, a := range alarms {
				if det := store.Get(d.tr.Detectors[a.Detector].Name); det != nil {
					det.Absorb(a.Value)
					learned++
				}
			}
		}
		rep, _, err := d.supervise(newDS, healthy, nil, onFalseAlarm)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "diagnosis: %s after %d executions; ranges widened for %d alarms\n",
			rep.Diagnosis, rep.Executions, learned)
		rep2, _, err := d.supervise(newDS, healthy, nil, onFalseAlarm)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "after learning, re-run diagnosis: %s\n\n", rep2.Diagnosis)
	}

	fmt.Fprintln(w, "=== scenario 3: device fault + migration + back-off ===")
	{
		// The fault stays in the device until it clears: every run
		// corrupts a random instance, and the BIST fails.
		present := true
		rng := stats.NewRng("recovery-example")
		rep, pool, err := d.supervise(ds, func() bool { return !present }, func(inj *swifi.Injector) {
			if present {
				inj.Arm(swifi.Command{Site: site, Instance: rng.Int63n(2000), Mask: 1 << 30})
			}
		}, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "diagnosis: %s after %d executions; disabled devices: %v; Tbackoff %d\n",
			rep.Diagnosis, rep.Executions, rep.DisabledDevices, pool.Backoff(0))

		// The back-off daemon (Section VI(ii)(c)) retests device 0 when
		// its Tbackoff elapses: a failed BIST doubles Tbackoff, a passing
		// one returns the device to service.
		tick := 0
		for first := pool.Backoff(0); pool.Backoff(0) == first; tick++ {
			pool.Tick()
		}
		fmt.Fprintf(w, "tick %d: BIST still fails; Tbackoff %d\n", tick, pool.Backoff(0))
		present = false
		for pool.Enabled() < 2 {
			pool.Tick()
			tick++
		}
		fmt.Fprintf(w, "tick %d: fault cleared, BIST passes; device 0 re-enabled, %d devices in service\n",
			tick, pool.Enabled())
	}
	return nil
}

// supervise runs one scenario through the guardian on a pool of two
// devices, the first of which holds the scenario's fault: arm, when
// non-nil, (re-)arms the injector before every execution on it, and
// faultyPasses is the BIST verdict on it (the second device always
// passes). It returns the pool for the back-off daemon.
func (d demo) supervise(
	ds workloads.Dataset,
	faultyPasses func() bool,
	arm func(*swifi.Injector),
	onFalseAlarm func([]hrt.Alarm),
) (*guardian.Report, *guardian.DevicePool, error) {
	devs := []*gpu.Device{gpu.New(gpu.DefaultConfig()), gpu.New(gpu.DefaultConfig())}
	faulty := devs[0]
	pool := guardian.NewDevicePool(devs, func(dev *gpu.Device) bool { return dev != faulty || faultyPasses() }, 2)
	run := func(dev *gpu.Device) *guardian.RunOutcome {
		inst := d.spec.Setup(dev, ds)
		cb := hrt.NewControlBlock(d.tr.Detectors, d.prof.Store)
		rt := hrt.NewFT(cb)
		if arm != nil && dev == faulty {
			inj := &swifi.Injector{}
			arm(inj)
			rt.Inject = inj.Probe
		}
		res, lerr := dev.Launch(d.tr.Kernel, gpu.LaunchSpec{
			Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt,
		})
		out := &guardian.RunOutcome{Err: lerr, Cycles: res.Cycles}
		if lerr == nil {
			out.Output = inst.ReadOutput()
			out.SDC = cb.SDC()
			out.Alarms = cb.Alarms()
		}
		return out
	}
	rep, err := guardian.Supervise(guardian.Config{Pool: pool, OnFalseAlarm: onFalseAlarm}, run)
	return rep, pool, err
}
