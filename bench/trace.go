package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/guardian/procexec"
	"hauberk/internal/harness"
	cstore "hauberk/internal/harness/store"
	"hauberk/internal/obs"
	"hauberk/internal/service"
	"hauberk/internal/stats"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// The traced run. End-to-end numbers never come from here: it runs the
// workload's plans once through a single-goroutine replica of the
// injection loop with a span around every call into a module, then
// through each real topology reading the timestamps their APIs expose,
// and reports one number per layer. It is also where the four topologies'
// digests are held against each other.

// traceCap bounds how many injections of each plan the replica and the
// harness comparisons execute (an even stride over the plan): per-layer
// numbers are per-injection ratios, which a sample measures as well as
// the whole plan does, and the traced run has to fit the same time budget
// as a measured one.
const traceCap = 24

// traceResult is what the traced run hands back to main.
type traceResult struct {
	attempted, failed, injections int
	digestFNV                     string
	errs                          []error
	// notes are report lines that are not metrics.
	notes   []string
	metrics map[string]metric
}

type tracer struct {
	def     workloadDef
	cfg     config
	scratch string
	plans   []plan
	pass    []plan // plans repeated as one pass of the workload repeats them
	rec     *recorder
	book    *refBook
	out     traceResult
	// inproc is each program's median in-process campaign time (ms) over
	// its full plan, the baseline of service.overhead_ms_per_campaign.
	inproc map[string]float64
}

// stagedPlan is one plan prepared by hand, step by step, so each step can
// carry a span. pc is what Env.PrepareCampaign would have returned.
type stagedPlan struct {
	plan   plan
	env    *harness.Env
	ft     *translate.Result
	pc     *harness.PreparedCampaign
	capped *harness.PreparedCampaign
}

func (t *tracer) set(name string, v float64, unit string) {
	t.out.metrics[name] = metric{Value: v, Unit: unit}
}

// note records one attempted operation and, if err is set, its failure.
func (t *tracer) note(err error) {
	t.out.attempted++
	if err != nil {
		t.out.failed++
		t.out.errs = append(t.out.errs, err)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func per(total time.Duration, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return total / time.Duration(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runTraced(ctx context.Context, def workloadDef, cfg config, scratch string) (*traceResult, error) {
	plans, pass, err := inputsFor(def, cfg)
	if err != nil {
		return nil, err
	}
	t := &tracer{def: def, cfg: cfg, scratch: scratch, plans: plans, pass: pass, rec: newRecorder(true), book: newRefBook()}
	t.out.metrics = make(map[string]metric)

	staged, err := t.prepare()
	if err != nil {
		return nil, err
	}
	rep, err := t.replica(staged)
	if err != nil {
		return nil, err
	}
	if err := t.harness(ctx, staged, rep); err != nil {
		return nil, err
	}
	if err := t.procexecProbe(ctx); err != nil {
		return nil, err
	}
	runP50, err := t.daemon(ctx)
	if err != nil {
		return nil, err
	}
	if err := t.fleet(ctx); err != nil {
		return nil, err
	}
	if err := t.admission(ctx, runP50); err != nil {
		return nil, err
	}
	if err := t.rec.write(filepath.Join(filepath.Dir(scratch), "spans-"+def.name+".json")); err != nil {
		return nil, err
	}
	t.out.digestFNV = t.book.fnv()
	return &t.out, nil
}

// --- phase 1: set-up layers -----------------------------------------------

// prepare stages every plan cold, one span per step, and measures what
// the first launch of each freshly instrumented kernel costs beyond a warm
// one (compile and fuse).
func (t *tracer) prepare() ([]*stagedPlan, error) {
	_, miss0, _ := gpu.ProgramCacheStats()
	env, err := envFor(t.plans[0].scale)
	if err != nil {
		return nil, err
	}
	var staged []*stagedPlan
	var coldExtra, cleanLaunch time.Duration
	for _, p := range t.plans {
		op := "prepare:" + p.key()
		root := t.rec.begin("prepare", op, -1)

		s := t.rec.begin("workloads.build", op, root)
		p.spec.Build()
		t.rec.end(s)

		s = t.rec.begin("translate.instrument", op, root)
		_, err := env.Instrument(p.spec, translate.NewOptions(translate.ModeProfiler))
		var ft *translate.Result
		if err == nil {
			ft, err = env.Instrument(p.spec, translate.NewOptions(translate.ModeFIFT))
		}
		t.rec.end(s)
		if err != nil {
			return nil, err
		}

		s = t.rec.begin("harness.golden", op, root)
		golden, err := env.Golden(p.spec, p.ds)
		t.rec.end(s)
		if err != nil {
			return nil, err
		}

		s = t.rec.begin("harness.profile", op, root)
		prof, err := env.Profile(p.spec, []workloads.Dataset{p.ds})
		t.rec.end(s)
		if err != nil {
			return nil, err
		}

		s = t.rec.begin("harness.plan", op, root)
		plan := env.PlanCampaign(p.spec, prof, env.Scale.BitCounts)
		t.rec.end(s)
		t.rec.end(root)

		st := &stagedPlan{plan: p, env: env, ft: ft, pc: &harness.PreparedCampaign{
			Spec: p.spec, Dataset: p.ds, Golden: golden, Prof: prof, Mode: translate.ModeFIFT, Plan: plan,
		}}
		st.capped = strideOf(st.pc, traceCap)
		staged = append(staged, st)

		// Clean (never-matching) launches of the FT kernel: the first one
		// compiles it, the rest are warm.
		local := newRecorder(true)
		var warm []float64
		var first time.Duration
		for i := 0; i < 4; i++ {
			replicaInjection(local, st, neverMatching, "clean", -1, nil)
			launch := lastNamed(local.snapshot(), "gpu.launch")
			if i == 0 {
				first = launch
			} else {
				warm = append(warm, float64(launch))
			}
		}
		warmLaunch := time.Duration(median(warm))
		cleanLaunch += warmLaunch
		if first > warmLaunch {
			coldExtra += first - warmLaunch
		}
	}
	_, miss1, size := gpu.ProgramCacheStats()
	tot := totalsByName(t.rec.snapshot())
	t.set("workloads.build_ms", ms(tot["workloads.build"].total), "ms")
	t.set("translate.instrument_ms", ms(tot["translate.instrument"].total), "ms")
	t.set("harness.golden_ms", ms(tot["harness.golden"].total), "ms")
	t.set("harness.profile_ms", ms(tot["harness.profile"].total), "ms")
	t.set("harness.plan_ms", ms(tot["harness.plan"].total), "ms")
	t.set("gpu.cold_launch_extra_ms", ms(coldExtra), "ms")
	t.set("gpu.clean_launch_ms", ms(per(cleanLaunch, len(staged))), "ms")
	t.set("gpu.program_cache_misses", float64(miss1-miss0), "count")
	t.set("gpu.program_cache_size", float64(size), "count")
	return staged, nil
}

// lastNamed is the duration of the most recent span with the given name.
func lastNamed(spans []span, name string) time.Duration {
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == name {
			return time.Duration(spans[i].End - spans[i].Start)
		}
	}
	return 0
}

// neverMatching is the clean run's "injection": a command no site matches,
// exactly the probe RunPrepared uses to time a fault-free FT launch.
var neverMatching = harness.Injection{Cmd: swifi.Command{Site: -1, Mask: 1}}

// --- phase 2: the replica of the injection loop -----------------------------

// replicaInjection is harness.Env.RunInjection re-stated over the same
// public calls, one span per layer crossed: device set-up, arming the FT
// runtime and the injector, the launch, read-back with the requirement
// check and classification. It must classify exactly as the harness does;
// the traced run proves that by comparing digests.
func replicaInjection(rec *recorder, st *stagedPlan, inj harness.Injection, op string, parent int, tel *obs.Telemetry) (harness.InjectionResult, float64) {
	pc := st.pc
	s := rec.begin("workloads.device_setup", op, parent)
	d := st.env.NewDevice()
	inst := pc.Spec.Setup(d, pc.Dataset)
	rec.end(s)

	s = rec.begin("hrt.arm", op, parent)
	cb := hrt.NewControlBlock(st.ft.Detectors, pc.Prof.Store)
	rt := hrt.NewFT(cb)
	injector := &swifi.Injector{}
	injector.Arm(inj.Cmd)
	rt.Inject = injector.Probe
	rec.end(s)

	s = rec.begin("gpu.launch", op, parent)
	lres, lerr := d.Launch(st.ft.Kernel, gpu.LaunchSpec{
		Grid: inst.Grid, Block: inst.Block, Args: inst.Args, Hooks: rt, Obs: tel,
	})
	rec.end(s)

	s = rec.begin("workloads.readback_check", op, parent)
	res := harness.InjectionResult{Injection: inj, Activated: injector.Injected}
	if lerr != nil {
		res.Outcome = harness.OutcomeFailure
		_, res.Hang = lerr.(*gpu.HangError)
	} else {
		out := inst.ReadOutput()
		meets := pc.Spec.Requirement.Check(pc.Golden.Output, out)
		res.Outcome = harness.Classify(false, cb.SDC(), meets)
	}
	rec.end(s)
	return res, lres.Cycles
}

// replicaPass is one serial pass over every staged plan's capped
// injection list, appending each result to a real store and reading the
// digest back.
type replicaPass struct {
	digests map[string]string
	cycles  float64
	// wall is the pass by the clock; spanned the sum of its campaign
	// spans (traced pass only), which leaves out the housekeeping between
	// campaigns.
	wall, spanned time.Duration
	injections    int
	records       int
}

func (t *tracer) replicaRun(rec *recorder, staged []*stagedPlan, name string, tel *obs.Telemetry, limit int) (*replicaPass, error) {
	pass := &replicaPass{digests: make(map[string]string)}
	t0 := time.Now()
	for _, st := range staged {
		pc := st.capped
		plan := pc.Plan
		if limit > 0 && limit < len(plan) {
			plan = plan[:limit]
		}
		op := name + ":" + st.plan.key()
		dir := filepath.Join(t.scratch, name, st.plan.spec.Name)
		root := rec.begin("replica.campaign", op, -1)

		s := rec.begin("store.open", op, root)
		cs, err := cstore.Open(dir, st.env.CampaignManifest(pc.Spec, pc.Mode, plan), 0, 1, false)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		// RunPrepared opens every campaign with one clean run to size its
		// watchdog; its layers are not folded into the injection totals.
		s = rec.begin("harness.watchdog_probe", op, root)
		replicaInjection(newRecorder(false), st, neverMatching, op, -1, nil)
		rec.end(s)
		for idx, inj := range plan {
			is := rec.begin("replica.injection", op, root)
			res, cycles := replicaInjection(rec, st, inj, op, is, tel)
			pass.cycles += cycles
			s = rec.begin("store.append", op, is)
			err := cs.Append(cstore.Record{
				Idx: idx, ID: inj.Cmd.Key(), Outcome: int(res.Outcome), Hang: res.Hang,
				Activated: res.Activated, Bits: inj.Bits, Class: int(inj.Class),
			})
			rec.end(s)
			rec.end(is)
			if err != nil {
				cs.Close()
				return nil, err
			}
		}
		if err := cs.Close(); err != nil {
			return nil, err
		}
		s = rec.begin("store.load", op, root)
		_, merged, err := harness.LoadCampaignDir(dir)
		rec.end(s)
		rec.end(root)
		if err != nil {
			return nil, err
		}
		pass.digests[st.plan.key()] = merged.FigureDigest()
		pass.injections += len(plan)
		pass.records += len(plan)
		os.RemoveAll(dir) //nolint:errcheck // housekeeping
	}
	pass.wall = time.Since(t0)
	return pass, nil
}

// replica runs the loop with span recording, again without (the
// difference is the tracing overhead; the simulated cycle totals must be
// identical), and a short counting pass with launch telemetry on to read
// the launch-mode split.
func (t *tracer) replica(staged []*stagedPlan) (*replicaPass, error) {
	traced, err := t.replicaRun(t.rec, staged, "replica", nil, 0)
	if err != nil {
		return nil, err
	}
	plain, err := t.replicaRun(newRecorder(false), staged, "replica-untraced", nil, 0)
	if err != nil {
		return nil, err
	}
	var mismatch error
	if traced.cycles != plain.cycles {
		mismatch = fmt.Errorf("bench: gpu.sim_cycles moved between two replica passes: %v then %v", traced.cycles, plain.cycles)
	}
	for k, d := range traced.digests {
		if plain.digests[k] != d && mismatch == nil {
			mismatch = fmt.Errorf("bench: %s: replica digest moved between two passes", k)
		}
	}
	t.note(mismatch)
	t.note(nil)
	t.out.injections += traced.injections + plain.injections

	tel := obs.New(obs.NopSink{})
	if _, err := t.replicaRun(newRecorder(false), staged, "replica-counting", tel, 4); err != nil {
		return nil, err
	}
	serial, all := launchModes(tel.Metrics())

	tot := totalsByName(t.rec.snapshot())
	n := traced.injections
	launch := tot["gpu.launch"].total
	t.set("gpu.faulted_launch_ms_per_injection", ms(per(launch, n)), "ms")
	t.set("gpu.fault_slowdown", ratio(ms(per(launch, n)), t.out.metrics["gpu.clean_launch_ms"].Value), "ratio")
	t.set("gpu.sim_cycles", traced.cycles, "count")
	t.set("gpu.sim_mcycles_per_s", ratio(traced.cycles/1e6, launch.Seconds()), "Mcycles/s")
	t.set("gpu.launch_mode_serial_share", ratio(float64(serial), float64(all)), "ratio")
	t.set("workloads.device_setup_us_per_injection", us(per(tot["workloads.device_setup"].total, n)), "us")
	t.set("hrt.arm_us_per_injection", us(per(tot["hrt.arm"].total, n)), "us")
	t.set("workloads.readback_check_us_per_injection", us(per(tot["workloads.readback_check"].total, n)), "us")
	t.set("store.append_us_per_record", us(per(tot["store.append"].total, n)), "us")
	t.set("harness.watchdog_probe_ms", ms(per(tot["harness.watchdog_probe"].total, tot["harness.watchdog_probe"].count)), "ms")
	t.set("store.open_ms", ms(per(tot["store.open"].total, tot["store.open"].count)), "ms")
	t.set("store.load_ms_per_1k_records", ratio(ms(tot["store.load"].total)*1000, float64(traced.records)), "ms")
	t.set("trace.overhead_pct", 100*ratio(float64(traced.wall-plain.wall), float64(plain.wall)), "%")
	traced.spanned = tot["replica.campaign"].total
	return traced, nil
}

// launchModes sums hauberk_launch_modes_total by whether the mode is one
// of the serial-* fallbacks.
func launchModes(reg *obs.Registry) (serial, all int64) {
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "hauberk_launch_modes_total{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		all += int64(v)
		if strings.Contains(line, `mode="serial`) {
			serial += int64(v)
		}
	}
	return serial, all
}

// --- phase 3: the real harness, in-process and isolated ---------------------

// gcCPUSeconds reads the runtime's estimate of CPU spent in the collector.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// harness drives RunPrepared over the same capped plans the replica ran
// (tracing the difference between the two), with telemetry off and on,
// process-isolated, and then over the full plans to set the reference
// digests the HTTP topologies are held to.
func (t *tracer) harness(ctx context.Context, staged []*stagedPlan, rep *replicaPass) error {
	// runCapped is one RunPrepared per staged plan over its capped
	// injection list; workers > 0 pins Scale.Workers (the traced run's one
	// override: a serial harness run is what the serial replica compares
	// to).
	runCapped := func(isolation string, tel *obs.Telemetry, workers int) (wall, cpu time.Duration, err error) {
		topo := &harnessTopo{isolation: isolation, dir: filepath.Join(t.scratch, "capped"), tel: tel}
		cpu0, t0 := cpuTime(), time.Now()
		for _, st := range staged {
			env := st.env
			if workers > 0 {
				env = env.Clone()
				env.Scale.Workers = workers
			}
			res, rerr := topo.runPrepared(ctx, env, st.capped)
			if rerr == nil && res.digest != rep.digests[st.plan.key()] {
				rerr = fmt.Errorf("bench: %s: harness digest (isolation %s) differs from the replica's", st.plan.key(), isolation)
			}
			t.note(rerr)
			if rerr != nil && err == nil {
				err = rerr
			}
			t.out.injections += res.injections
		}
		return time.Since(t0), cpuTime() - cpu0, err
	}

	// Serial, telemetry off: the run the replica re-states, so the CPU
	// the spans do not cover is the harness's own (watchdog probe, guard
	// goroutine and timer per injection, semaphore, aggregation).
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	_, cpuSerial, err := runCapped(harness.IsolationOff, obs.Nop(), 1)
	if err != nil {
		return err
	}
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&m1)

	// Default workers, telemetry off and on, alternating, medians.
	discard := obs.New(obs.NopSink{})
	var nop, on []float64
	for i := 0; i < 3; i++ {
		w, _, err := runCapped(harness.IsolationOff, obs.Nop(), 0)
		if err != nil {
			return err
		}
		nop = append(nop, float64(w))
		if w, _, err = runCapped(harness.IsolationOff, discard, 0); err != nil {
			return err
		}
		on = append(on, float64(w))
	}
	wallNop, wallObs := median(nop), median(on)

	isoTel := obs.New(obs.NopSink{})
	wallIso, _, err := runCapped(harness.IsolationProcess, isoTel, 0)
	if err != nil {
		return err
	}

	n := rep.injections
	t.set("harness.self_ms_per_injection", ms(per(cpuSerial-rep.spanned, n)), "ms")
	t.set("harness.worker_utilization", ratio(float64(rep.spanned), wallNop*float64(runtime.NumCPU())), "ratio")
	t.set("trace.coverage", ratio(float64(rep.spanned), float64(cpuSerial)), "ratio")
	t.set("obs.enabled_overhead_pct", 100*ratio(wallObs-wallNop, wallNop), "%")
	t.set("runtime.alloc_kb_per_injection", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, float64(n)), "kB")
	t.set("runtime.mallocs_per_injection", ratio(float64(m1.Mallocs-m0.Mallocs), float64(n)), "count")
	t.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	t.set("runtime.gc_cpu_share", ratio(gc1-gc0, cpuSerial.Seconds()), "ratio")
	t.set("procexec.spawns_per_campaign", ratio(float64(isoTel.Metrics().Counter("hauberk_worker_spawns_total").Value()), float64(len(staged))), "count")
	t.set("procexec.overhead_ms_per_injection", ms(per(wallIso-time.Duration(wallObs), n)), "ms")

	// Full plans, telemetry off: the reference every other topology's
	// digest is held to, and the in-process campaign times the service
	// overhead is measured against.
	topo := &harnessTopo{isolation: harness.IsolationOff, dir: filepath.Join(t.scratch, "inproc"), tel: obs.Nop(),
		env: staged[0].env, prepared: make(map[string]*harness.PreparedCampaign)}
	for _, st := range staged {
		topo.prepared[st.plan.key()] = st.pc
	}
	ops, _ := drive(ctx, topo, t.pass, 1, t.book, t.tracePhaseDone)
	for _, o := range ops {
		t.note(o.err)
		t.out.injections += o.res.injections
	}
	t.inproc = medianLatencyByProgram(ops)
	return nil
}

// medianLatencyByProgram is each program's median campaign latency (ms)
// over the successful operations.
func medianLatencyByProgram(ops []op) map[string]float64 {
	by := make(map[string][]float64)
	for _, o := range ops {
		if o.err == nil {
			by[o.program] = append(by[o.program], ms(o.latency))
		}
	}
	out := make(map[string]float64, len(by))
	for name, lat := range by {
		out[name] = median(lat)
	}
	return out
}

// tracePhaseDone ends a real topology's traced phase after the workload's
// fixed pass count.
func (t *tracer) tracePhaseDone(passes int, _ time.Duration) bool {
	return passes >= t.def.tracePasses
}

// --- phase 4: procexec on its own -------------------------------------------

// echoHandler is the -echo-worker body: the procexec protocol with no
// work behind it.
func echoHandler(_ string, payload json.RawMessage) (json.RawMessage, error) { return payload, nil }

// procexecProbe measures the supervisor/worker machinery alone: spawning
// a worker that re-execs this binary, and a framed round trip of a
// payload the size of the harness's injection request.
func (t *tracer) procexecProbe(ctx context.Context) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	payload, err := json.Marshal(map[string]any{
		"program": "MRI-FHD", "dataset": 51, "mode": 3, "engine": 0,
		"cmd": map[string]any{"site": 123, "instance": 123456789, "mask": 4294967295}, "bits": 15, "class": 2,
	})
	if err != nil {
		return err
	}
	sup := procexec.NewSupervisor(procexec.Config{Argv: []string{exe, "-echo-worker"}})
	defer sup.Close()
	t0 := time.Now()
	if _, err := sup.Do(ctx, "spawn", payload, 10*time.Second); err != nil {
		return fmt.Errorf("bench: echo worker: %w", err)
	}
	first := time.Since(t0)
	var trips []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := sup.Do(ctx, "echo", payload, 10*time.Second); err != nil {
			return fmt.Errorf("bench: echo worker: %w", err)
		}
		trips = append(trips, us(time.Since(t0)))
	}
	trip := median(trips)
	t.set("procexec.echo_roundtrip_us", trip, "us")
	t.set("procexec.spawn_ms", ms(first)-trip/1000, "ms")
	return nil
}

// --- phase 5: hauberkd ------------------------------------------------------

// liveHeapKB is the heap still reachable after a forced collection.
func liveHeapKB() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1024
}

// daemon drives the workload's plans through one hauberkd with the
// daemon_tiny client shape and folds the client-side RPC costs and the
// daemon-side timestamps into the service.* metrics. It returns the
// daemon-side run p50 for the admission probe.
func (t *tracer) daemon(ctx context.Context) (runP50 float64, err error) {
	clients := clientCount(t.def.clients)
	dt, err := newDaemonTopo(filepath.Join(t.scratch, "daemon"), 2, 64, clients)
	if err != nil {
		return 0, err
	}
	defer dt.close()
	warm, _ := drive(ctx, dt, t.pass, clients, t.book, func(passes int, _ time.Duration) bool { return passes >= t.def.warmup })
	for _, o := range warm {
		t.note(o.err)
		t.out.injections += o.res.injections
	}
	heap0 := liveHeapKB()
	ops, _ := drive(ctx, dt, t.pass, clients, t.book, t.tracePhaseDone)
	heap1 := liveHeapKB()

	var e2e, sub, poll, polls, wait, run []float64
	for _, o := range ops {
		t.note(o.err)
		if o.err != nil {
			continue
		}
		t.out.injections += o.res.injections
		e2e = append(e2e, ms(o.latency))
		sub = append(sub, ms(o.res.submit))
		poll = append(poll, ms(per(o.res.pollBusy, o.res.polls)))
		polls = append(polls, float64(o.res.polls))
		wait = append(wait, ms(o.res.queueWait))
		run = append(run, ms(o.res.run))
	}
	if len(e2e) == 0 {
		return 0, fmt.Errorf("bench: no campaign finished through the daemon")
	}
	s := sorted(e2e)
	t.set("service.campaign_ms_p50", nearestRank(s, 0.50), "ms")
	t.set("service.campaign_ms_p90", nearestRank(s, 0.90), "ms")
	t.set("service.submit_ms_p50", median(sub), "ms")
	t.set("service.poll_ms_p50", median(poll), "ms")
	t.set("service.polls_per_campaign", stats.Mean(polls), "count")
	t.set("service.queue_wait_ms_p50", median(wait), "ms")
	t.set("service.run_ms_p50", median(run), "ms")
	var extra []float64
	for name, lat := range medianLatencyByProgram(ops) {
		extra = append(extra, lat-t.inproc[name])
	}
	t.set("service.overhead_ms_per_campaign", median(extra), "ms")
	t.set("service.rejected_429", float64(dt.rejected.Load()), "count")
	t.set("service.rss_kb_per_campaign", (heap1-heap0)/float64(len(e2e)), "kB")
	return median(run), nil
}

// --- phase 6: the fleet -----------------------------------------------------

// fleet runs each plan once through three daemons and the coordinator,
// then reads the nodes' own campaign tables to see how the shards fared.
func (t *tracer) fleet(ctx context.Context) error {
	ft, err := newFleetTopo(filepath.Join(t.scratch, "fleet"), 3)
	if err != nil {
		return err
	}
	defer ft.close()
	var dispatch, skew, overhead, merge, fetch []float64
	for _, p := range t.plans {
		seen := make([]int, len(ft.daemons))
		for i, d := range ft.daemons {
			seen[i] = len(d.List())
		}
		t0 := time.Now()
		res, err := ft.run(ctx, 0, p)
		wall := time.Since(t0)
		if err == nil {
			err = t.book.check(p, res)
		}
		t.note(err)
		if err != nil {
			continue
		}
		t.out.injections += res.injections

		var slowest, sum time.Duration
		var shards int
		for i, d := range ft.daemons {
			for _, st := range d.List()[seen[i]:] {
				run := st.FinishedAt.Sub(st.StartedAt)
				sum += run
				if run > slowest {
					slowest = run
				}
				shards++
				dispatch = append(dispatch, ms(st.SubmittedAt.Sub(t0)))
				if st.State != service.StateDone {
					continue
				}
				f0 := time.Now()
				snap, err := ft.tr.Client(ft.nodes[i]).Store(ctx, st.ID)
				if err != nil {
					return err
				}
				records := 0
				for _, body := range snap.Files {
					records += strings.Count(body, "\n")
				}
				if records > 0 {
					fetch = append(fetch, ms(time.Since(f0))*1000/float64(records))
				}
			}
		}
		if shards > 0 && sum > 0 {
			skew = append(skew, float64(slowest)/(float64(sum)/float64(shards)))
		}
		overhead = append(overhead, ms(wall-slowest))
		m0 := time.Now()
		if _, _, err := harness.LoadCampaignDir(ft.lastMerge); err != nil {
			return err
		}
		merge = append(merge, ms(time.Since(m0)))
	}
	t.set("fleet.dispatch_ms_p50", median(dispatch), "ms")
	t.set("fleet.fetch_ms_per_1k_records", median(fetch), "ms")
	t.set("fleet.merge_ms_p50", median(merge), "ms")
	t.set("fleet.shard_skew", median(skew), "ratio")
	t.set("fleet.overhead_ms_per_campaign", median(overhead), "ms")
	t.set("fleet.rpc_retries", float64(ft.tr.Retries()), "count")
	t.set("fleet.failovers", float64(ft.failovers.Load()), "count")
	return nil
}

// --- phase 7: admission -----------------------------------------------------

// admission submits back to back on one connection to a daemon with a
// two-deep queue until it pushes back, and records what it tells the
// client to do: Retry-After is whole seconds, a campaign is milliseconds,
// so a client that obeys sleeps hundreds of service times per rejection.
// That ratio — not work — is the submit tail BENCH_service.json recorded.
func (t *tracer) admission(ctx context.Context, runP50 float64) error {
	d, err := startDaemon(filepath.Join(t.scratch, "admission"), 0, 2)
	if err != nil {
		return err
	}
	defer stopDaemon(d)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
	base := "http://" + d.Addr()
	p := t.plans[0]
	var ids []string
	retryAfter := 0.0
	for i := 0; i < 64 && retryAfter == 0; i++ {
		st, err := submit(ctx, hc, base, service.Submission{Tenant: "probe", Program: p.spec.Name, Scale: p.scale, Dataset: p.ds.Index})
		if rej, ok := err.(*errRejected); ok {
			retryAfter, _ = strconv.ParseFloat(rej.retryAfter, 64) // a malformed header reads as 0
			break
		}
		if err != nil {
			return err
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		for {
			st, err := status(ctx, hc, base, id)
			if err != nil {
				return err
			}
			if st.State.Terminal() {
				break
			}
			time.Sleep(daemonPoll)
		}
	}
	hc.CloseIdleConnections()
	// Retry-After is whole seconds by protocol and reads the same on every
	// run, so it is reported, not declared as a metric; the ratio is.
	t.out.notes = append(t.out.notes, fmt.Sprintf("service.retry_after %g s", retryAfter))
	t.set("service.retry_after_over_run", ratio(retryAfter*1000, runP50), "ratio")
	return nil
}
