// Command hauberk-run executes one benchmark program under a chosen
// protection variant, supervised by the guardian process, and reports the
// timing split and detection outcome. An optional fault can be injected to
// watch the full detect-diagnose-recover path (Figure 11).
//
// Usage:
//
//	hauberk-run -program CP -variant hauberk
//	hauberk-run -program MRI-Q -variant hauberk -inject 12:100:0x00400000
//	hauberk-run -program TPACF -variant hauberk -inject 3:40:0x80000 -persistent
//	hauberk-run -program CP -inject 3:40:0x80000 -trace t.jsonl -metrics m.prom
//
// With -trace the run writes a JSONL event journal (kernel launches,
// detector alarms, every guardian state transition); render it with
// `hauberk-report -trace t.jsonl`. With -metrics a Prometheus-text
// exposition is dumped at exit.
//
// With -http the process serves its run as one campaign over hauberkd's
// read API — GET /v1/campaigns, /v1/campaigns/{id} (?wait= long-polls to
// the terminal state) and /v1/campaigns/{id}/events (NDJSON or SSE) —
// next to /metrics, /healthz, /readyz and /debug/pprof, on the given
// address (":0" picks a port; the address and the campaign ID are printed
// at startup). The monitor is a pure observer — figure digests are
// byte-identical with it on or off — and with -http unset none of it is
// constructed, preserving the zero-allocation telemetry hot path.
// -http-linger keeps it serving after the run so pollers can observe the
// terminal state; `hauberk-report -campaigns <addr> -id <id>` and
// `-scrape <addr>` are the matching clients, the same as for hauberkd.
//
// -workers sizes campaign/profiling parallelism (0 = one per CPU). Every
// kernel launch runs the one serial bytecode engine.
//
// With -campaign-dir the tool runs a durable fault-injection campaign for
// the program instead of a single supervised run: every classified
// outcome is appended to the directory's append-only log, journal.jsonl,
// before it counts as done, so a crash or Ctrl-C loses at most the
// injections in flight. Re-launching with -resume loads the completed set
// and runs only the remainder; -shard i/N splits the (seeded,
// deterministic) plan across processes or CI jobs, which may share one
// directory at the same time (or concatenate their journal.jsonl files
// later), and `hauberk-report -campaign <dir>` merges the shards into one
// report:
//
//	hauberk-run -program CP -campaign-dir /tmp/cp-campaign
//	hauberk-run -program CP -campaign-dir /tmp/cp-campaign -resume
//	hauberk-run -program CP -campaign-dir /tmp/cp-campaign -shard 0/2 &
//	hauberk-run -program CP -campaign-dir /tmp/cp-campaign -shard 1/2
//
// The exit code encodes the guardian's final diagnosis so scripts can
// branch on the outcome: 0 for an accepted output (clean, recovered
// transient, learned false alarm), 3 device-fault, 4 software-error,
// 5 gave-up; 1 is an internal error and 2 a usage error. A campaign
// interrupted by SIGINT/SIGTERM flushes its store and exits 7
// ("resumable").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/guardian"
	"hauberk/internal/guardian/procexec"
	"hauberk/internal/guardian/procexec/chaos"
	"hauberk/internal/harness"
	"hauberk/internal/kir"
	"hauberk/internal/obs"
	"hauberk/internal/service"
	"hauberk/internal/swifi"
	"hauberk/internal/version"
	"hauberk/internal/workloads"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// exitResumable is the campaign-mode exit code for an interrupted but
// durably flushed run: re-launch with -resume to continue.
const exitResumable = 7

// poolDevices sizes the recovery pool: two, the least that Figure 11's
// migration off a faulty device needs.
const poolDevices = 2

func main() { os.Exit(run()) }

// run does the work and returns the process exit code; deferred cleanup
// (monitor's final state, journal flush, metrics dump, range save) runs
// before main exits.
func run() (code int) {
	var (
		program     = flag.String("program", "CP", "benchmark program name")
		variant     = flag.String("variant", "hauberk", "baseline, hauberk, hauberk-nl, hauberk-l")
		dataset     = flag.Int("dataset", 0, "dataset index")
		injectSpec  = flag.String("inject", "", "fault to inject: site:instance:mask (mask hex ok)")
		persistent  = flag.Bool("persistent", false, "make the injected fault persistent (emulates a permanent fault)")
		loadRanges  = flag.String("load-ranges", "", "load profiled value ranges from this JSON file instead of profiling")
		saveRanges  = flag.String("save-ranges", "", "write the (possibly on-line-updated) value ranges to this JSON file at exit")
		tracePath   = flag.String("trace", "", "write a JSONL telemetry event journal to this file")
		metricsPath = flag.String("metrics", "", "dump Prometheus-text metrics to this file at exit")
		workers     = flag.Int("workers", 0, "campaign/profiling worker goroutines (0 = one per CPU)")

		httpAddr   = flag.String("http", "", "serve the run as one campaign over hauberkd's read API (/v1/campaigns...) plus /metrics, /healthz, /readyz and /debug/pprof on this address; :0 picks a port")
		httpLinger = flag.Duration("http-linger", 0, "keep the monitor serving this long after the run completes (lets pollers observe the terminal state)")
		verFlag    = flag.Bool("version", false, "print the build version and exit")

		campaignDir = flag.String("campaign-dir", "", "run a durable injection campaign, storing results under this directory")
		resume      = flag.Bool("resume", false, "resume the campaign in -campaign-dir from its completed set")
		shardSpec   = flag.String("shard", "0/1", "campaign shard i/N: run plan indices where idx%N == i")
		scaleName   = flag.String("scale", "quick", "campaign scale: tiny, quick or full")
		abortAfter  = flag.Int("campaign-abort-after", 0, "testing hook: interrupt the campaign after N durable results (simulates a mid-run kill)")
		isolation   = flag.String("isolation", "off", "campaign injection isolation: off (in-process) or process (supervised worker subprocesses)")
		workerMode  = flag.Bool("worker", false, "internal: serve injection requests as a worker subprocess (framed protocol on stdin/stdout)")
	)
	flag.Parse()

	if *verFlag {
		fmt.Printf("hauberk-run %s (%s)\n", version.Version, version.GoVersion())
		return 0
	}

	// Worker mode first: the process speaks the procexec frame protocol on
	// stdout, so nothing below (which prints) may run. Errors go to stderr,
	// where the supervisor's crash tail picks them up.
	if *workerMode {
		if err := harness.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	spec := workloads.ByName(*program)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "unknown program %q\n", *program)
		return 2
	}

	opts, err := harness.Variant(*variant).Options(translate.ModeFIFT)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	shard, shards, err := harness.ParseShard(*shardSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Telemetry: a journal sink when -trace is given; -metrics alone
	// still enables collection (events are discarded, counters kept);
	// -http serves the run as one campaign whose telemetry fans out to
	// the journal and the monitor. With all three unset the telemetry
	// stays the shared nop and hot paths keep their zero-allocation
	// guarantee.
	tel := obs.Nop()
	var monitor *service.Monitor
	var digest string
	if *tracePath != "" || *metricsPath != "" || *httpAddr != "" {
		var journal obs.Sink
		if *tracePath != "" {
			j, err := obs.OpenJournal(*tracePath)
			if err != nil {
				return fail(err)
			}
			journal = j
		}
		if *httpAddr != "" {
			monitor, err = service.ServeMonitor(*httpAddr, service.Submission{
				Program: spec.Name, Scale: *scaleName, Dataset: *dataset,
				Isolation: *isolation, Shard: shard, Shards: shards,
			}, journal)
			if err != nil {
				return fail(err)
			}
			tel = monitor.Telemetry()
		} else {
			tel = obs.New(journal)
		}
		defer func() {
			if err := tel.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			} else if *tracePath != "" {
				fmt.Printf("wrote event journal to %s\n", *tracePath)
			}
		}()
		if *metricsPath != "" {
			defer func() {
				if err := tel.Metrics().DumpProm(*metricsPath); err != nil {
					fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
				} else {
					fmt.Printf("wrote metrics to %s\n", *metricsPath)
				}
			}()
		}
		if monitor != nil {
			fmt.Printf("monitor: listening on http://%s campaign %s\n", monitor.Addr(), monitor.ID())
			// Registered after the tel.Close defer, so LIFO ordering runs
			// it first: the run's final state is published, then (after an
			// optional linger that lets pollers observe it) the monitor
			// drains before the broadcaster and journal close under it.
			defer func() {
				switch code {
				case 0:
					monitor.Finish(service.StateDone, digest, nil)
				case exitResumable:
					monitor.Finish(service.StateInterrupted, "", nil)
				default:
					monitor.Finish(service.StateFailed, "", fmt.Errorf("hauberk-run exit status %d", code))
				}
				if *httpLinger > 0 {
					time.Sleep(*httpLinger)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				if err := monitor.Shutdown(ctx); err != nil {
					fmt.Fprintf(os.Stderr, "monitor: %v\n", err)
				}
			}()
		}
	}

	sc, ok := harness.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		return 2
	}
	env := harness.NewEnv(sc).WithObs(tel)
	env.Scale.Workers = *workers
	// Isolated workers outlive the campaign in the Env's pool; close them
	// on the way out (a SIGINT/SIGTERM kills them sooner, see runCampaign).
	defer env.CloseWorkers()
	ds := workloads.Dataset{Index: *dataset}

	if *campaignDir != "" {
		code, digest = runCampaign(env, spec, ds, *campaignDir, *resume, shard, shards, *abortAfter, *isolation, monitor)
		return code
	}

	// The FT library loads profiled value ranges from a file at the entry
	// of main() and stores updates at exit (Section V.B step iv). Without
	// a file, profile the chosen dataset in-process.
	prof, err := env.Profile(spec, []workloads.Dataset{ds})
	if err != nil {
		return fail(err)
	}
	store := prof.Store
	if *loadRanges != "" {
		store, err = ranges.Load(*loadRanges)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("loaded %d detectors from %s\n", len(store.Names()), *loadRanges)
	}
	if *saveRanges != "" {
		defer func() {
			if err := store.Save(*saveRanges); err != nil {
				fmt.Fprintf(os.Stderr, "save-ranges: %v\n", err)
				return
			}
			fmt.Printf("saved value ranges to %s\n", *saveRanges)
		}()
	}
	tr, err := translate.Instrument(spec.Build(), opts)
	if err != nil {
		return fail(err)
	}

	// A transient fault is armed once and does not re-fire on the
	// guardian's re-executions; a persistent fault re-arms every run
	// (emulating a permanent hardware defect).
	var injector *swifi.Injector
	var cmd swifi.Command
	if *injectSpec != "" {
		cmd, err = swifi.ParseCommand(*injectSpec)
		if err != nil {
			return fail(err)
		}
		cmd.Persistent = *persistent
		injector = &swifi.Injector{}
		injector.Arm(cmd)
		fmt.Printf("armed fault: %v\n", cmd)
	}

	// Build the device pool with a BIST self-test: a small known kernel
	// with a known output. A persistent fault lives in device 0's
	// hardware, so the self test fails there and the recovery engine
	// migrates the program.
	devPool := makeDevices(poolDevices)
	faulty := devPool[0]
	selfTest := func(d *gpu.Device) bool {
		if *persistent && d == faulty {
			return false
		}
		return bistPasses(d)
	}
	pool := guardian.NewDevicePool(devPool, selfTest, 4)
	pool.Obs = tel

	runIdx := int64(0)
	run := func(dev *gpu.Device) *guardian.RunOutcome {
		// Each execution re-stages the input (checkpoint restore analog).
		inst := spec.Setup(dev, ds)
		cb := hrt.NewControlBlock(tr.Detectors, store)
		rt := hrt.NewFT(cb)
		rt.Obs = tel
		if injector != nil {
			if *persistent && dev == faulty {
				// The defect re-fires on every run of the faulty device;
				// which dynamic instance it hits varies with hardware
				// state, so re-executions corrupt different values.
				jittered := cmd
				jittered.Instance = cmd.Instance + runIdx*37
				injector.Arm(jittered)
				rt.Inject = injector.Probe
			} else if !*persistent {
				rt.Inject = injector.Probe
			}
		}
		runIdx++
		res, lerr := dev.Launch(tr.Kernel, gpu.LaunchSpec{
			Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt, Obs: tel,
		})
		out := &guardian.RunOutcome{Err: lerr, Cycles: res.Cycles}
		if lerr == nil {
			out.Output = inst.ReadOutput()
			out.SDC = cb.SDC()
			out.Alarms = cb.Alarms()
		}
		if lerr == nil {
			fmt.Printf("  kernel run: %.0f cycles (loop %.1f%%), sdc=%v\n",
				res.Cycles, 100*res.LoopCycles/res.Cycles, out.SDC)
		} else {
			fmt.Printf("  kernel run failed: %v\n", lerr)
		}
		return out
	}

	// Diagnosed false alarms widen the deployed ranges on-line
	// (Section VI(iii)); with -save-ranges the widened store persists.
	cfg := guardian.Config{
		Pool: pool,
		Obs:  tel,
		OnFalseAlarm: func(alarms []hrt.Alarm) {
			for _, a := range alarms {
				if a.Kind != kir.DetectRange || a.Detector >= len(tr.Detectors) {
					continue
				}
				if det := store.Get(tr.Detectors[a.Detector].Name); det != nil {
					det.Absorb(a.Value)
					if tel.Enabled() {
						tel.Emit(obs.EvRangeWiden,
							obs.Int("detector", int64(a.Detector)),
							obs.Str("name", tr.Detectors[a.Detector].Name),
							obs.Float("value", a.Value))
						tel.Metrics().Counter("hauberk_ranges_widened_total").Inc()
					}
				}
			}
		},
	}
	rep, err := guardian.Supervise(cfg, run)
	if err != nil {
		return fail(err)
	}

	fmt.Printf("\nguardian diagnosis: %s after %d execution(s)\n", rep.Diagnosis, rep.Executions)
	if len(rep.DisabledDevices) > 0 {
		fmt.Printf("disabled devices: %v (migrated)\n", rep.DisabledDevices)
	}
	if rep.Final != nil && rep.Final.Err == nil {
		golden, err := env.Golden(spec, ds)
		if err != nil {
			return fail(err)
		}
		ok := spec.Requirement.Check(golden.Output, rep.Final.Output)
		fmt.Printf("final output meets requirement %q: %v\n", spec.Requirement.Name, ok)
		for _, a := range rep.Final.Alarms {
			fmt.Printf("  alarm: %s\n", a)
		}
	}
	return rep.Diagnosis.ExitCode()
}

// runCampaign is the durable campaign mode: plan deterministically,
// run (or resume) this process's shard under the watchdog, and on
// SIGINT/SIGTERM flush the store and exit with the resumable status. It
// returns the exit code and, for a whole-plan campaign, the figure digest.
func runCampaign(env *harness.Env, spec *workloads.Spec, ds workloads.Dataset, dir string, resume bool, shard, shards, abortAfter int, isolation string, monitor *service.Monitor) (int, string) {
	chaosPlan, err := chaos.FromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2, ""
	}
	pc, err := env.PrepareCampaign(spec, ds)
	if err != nil {
		return fail(err), ""
	}
	fmt.Printf("campaign: %d injections planned for %s (shard %d/%d, store %s, isolation %s)\n",
		len(pc.Plan), spec.Name, shard, shards, dir, isolation)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	// On SIGINT/SIGTERM, kill every live worker process group immediately —
	// before the campaign's durable store flush — so no worker outlives the
	// resumable exit (and none keeps writing its half of a pipe nobody
	// reads). Supervisors kill their own worker on context cancellation
	// too; this is the guarantee for workers idle between requests. This
	// goroutine must fire on a real signal only: on normal completion run
	// closes the Env's pooled workers on its way out, and the monitor stays
	// up through -http-linger so late pollers can observe the terminal
	// state.
	go func() {
		select {
		case <-sigCh:
		case <-ctx.Done():
			return
		}
		cancel()
		procexec.KillAllWorkers()
		// Graceful monitor shutdown ahead of the durable store flush: no
		// HTTP reader observes a half-flushed store, and the listener is
		// gone before the resumable exit. Safe to repeat from the defer
		// in run() on the clean-exit path.
		if monitor != nil {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			monitor.Shutdown(sctx) //nolint:errcheck
		}
	}()
	opts := harness.CampaignOptions{
		Dir: dir, Resume: resume, Shard: shard, Shards: shards,
		Isolation: isolation, Chaos: chaosPlan,
	}
	if abortAfter > 0 {
		abortCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		ctx = abortCtx
		opts.OnResult = func(done, total int) {
			if done >= abortAfter {
				cancel()
			}
		}
	}
	cr, err := env.RunPrepared(ctx, pc, opts)
	if errors.Is(err, harness.ErrCampaignInterrupted) {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return exitResumable, ""
	}
	if err != nil {
		return fail(err), ""
	}
	if shards > 1 {
		fmt.Printf("shard %d/%d complete: %d injections recorded; merge with `hauberk-report -campaign %s` once all shards finish\n",
			shard, shards, cr.All.Total(), dir)
		return 0, ""
	}
	man, merged, err := harness.LoadCampaignDir(dir)
	if err != nil {
		return fail(err), ""
	}
	digest := merged.FigureDigest()
	fmt.Print(harness.CampaignTable(man, merged).Render())
	fmt.Printf("figure digest:\n%s", digest)
	return 0, digest
}

func makeDevices(n int) []*gpu.Device {
	out := make([]*gpu.Device, n)
	for i := range out {
		out[i] = gpu.New(gpu.DefaultConfig())
	}
	return out
}

// bistPasses is the BIST-like program: a small kernel whose output is known.
func bistPasses(d *gpu.Device) bool {
	spec := workloads.CPURef()
	inst := spec.Setup(d, workloads.Dataset{Index: 7})
	_, err := d.Launch(spec.Build(), gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args})
	return err == nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
