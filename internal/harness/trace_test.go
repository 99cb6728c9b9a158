package harness

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"hauberk/internal/core/hrt"
	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/guardian"
	cstore "hauberk/internal/harness/store"
	"hauberk/internal/obs"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// diffLaunches fails unless the resumed launch equals the full one in
// everything an injection can observe: error, activation, alarms, the
// whole arena (with the volatile tick) and the gpu.Result, float bits
// included.
func diffLaunches(t *testing.T, cmd swifi.Command, full, resumed injectionLaunch) {
	t.Helper()
	if fmt.Sprint(full.err) != fmt.Sprint(resumed.err) || reflect.TypeOf(full.err) != reflect.TypeOf(resumed.err) {
		t.Fatalf("%s: error: full %v, resumed %v", cmd.Key(), full.err, resumed.err)
	}
	if full.activated != resumed.activated {
		t.Fatalf("%s: activated: full %v, resumed %v", cmd.Key(), full.activated, resumed.activated)
	}
	if a, b := alarmBits(full.cb), alarmBits(resumed.cb); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: alarms: full %v, resumed %v", cmd.Key(), a, b)
	}
	if *full.result != *resumed.result ||
		math.Float64bits(full.result.Cycles) != math.Float64bits(resumed.result.Cycles) ||
		math.Float64bits(full.result.LoopCycles) != math.Float64bits(resumed.result.LoopCycles) {
		t.Fatalf("%s: result: full %+v, resumed %+v", cmd.Key(), full.result, resumed.result)
	}
	if !reflect.DeepEqual(full.td.d.Snapshot(), resumed.td.d.Snapshot()) {
		t.Fatalf("%s: device memory differs between the full and the resumed launch", cmd.Key())
	}
}

// alarmBits renders a control block's alarms with the offending value as
// raw bits, so a NaN alarm compares equal to itself.
func alarmBits(cb *hrt.ControlBlock) []string {
	var out []string
	for _, a := range cb.Alarms() {
		out = append(out, fmt.Sprintf("%d %v %#x %d %d", a.Detector, a.Kind, math.Float64bits(a.Value), a.Count, a.Expected))
	}
	return out
}

// TestResumeEqualsFullLaunch is the exactness bar of golden-trace resume:
// on every workload, under both injection modes, every injection of the
// quick plan — and the shapes the plan never draws: a span of instances, a
// persistent fault, an instance the run never reaches, a command no site
// matches, the first and the last thread's instances — plus TPACF's full
// FI&FT plan produces through the resumed launch exactly what a full
// launch on a fresh device does. Every exit reason must be taken, carried
// ones included; launches must start at a checkpoint in every long-thread
// HPC program and never in RPES; half of them run on blank devices.
func TestResumeEqualsFullLaunch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick-plan injection, and TPACF's full plan, twice")
	}
	type leg struct {
		scale string
		spec  *workloads.Spec
		modes []translate.Mode
	}
	var legs []leg
	for _, spec := range allSpecs() {
		legs = append(legs, leg{"quick", spec, []translate.Mode{translate.ModeFI, translate.ModeFIFT}})
	}
	// The fleet_full path: TPACF's full plan, where carried exits dominate.
	legs = append(legs, leg{"full", workloads.ByName("TPACF"), []translate.Mode{translate.ModeFIFT}})
	exits := make(map[string]int)
	for _, leg := range legs {
		spec := leg.spec
		scale, _ := ScaleByName(leg.scale)
		e, golden, prof, plan := stagePlan(t, scale, spec)
		for _, mode := range leg.modes {
			store := storeFor(prof, mode)
			resume, err := e.goldenTrace(spec, golden, store, mode)
			if err != nil {
				t.Fatal(err)
			}
			if resume.mem == nil {
				t.Fatalf("%s %s: launch is not eligible for resume", spec.Name, mode)
			}
			full, err := e.forceFullLaunch(golden.twin(), store, mode)
			if err != nil {
				t.Fatal(err)
			}

			cmds := make([]swifi.Command, 0, len(plan)+8)
			for _, inj := range plan {
				cmds = append(cmds, inj.Cmd)
			}
			site := plan[len(plan)/2].Cmd.Site
			total := prof.ExecCounts[site]
			cmds = append(cmds,
				swifi.Command{Site: site, Instance: 0, Mask: 1 << 7},                           // first thread
				swifi.Command{Site: site, Instance: total - 1, Mask: 1 << 7},                   // last thread
				swifi.Command{Site: site, Instance: total, Mask: 1},                            // never reached
				swifi.Command{Site: -1, Mask: 1},                                               // no such site
				swifi.Command{Site: site, Instance: total / 2, Mask: 1 << 3, Count: total / 8}, // spans threads
				swifi.Command{Site: site, Instance: total / 2, Mask: 1 << 20, Count: 3},
				swifi.Command{Site: site, Instance: total / 3, Mask: 1 << 2, Persistent: true},
				swifi.Command{Site: site, Instance: total - 2, Mask: 1 << 30, Persistent: true})
			fromCheckpoint := 0
			for i, cmd := range cmds {
				want, got := full.launch(cmd), resume.launch(cmd)
				diffLaunches(t, cmd, want, got)
				exits[got.exit.String()]++
				if at, _, _ := resume.resumePoint(cmd); at.Checkpoint > 0 {
					fromCheckpoint++
				}
				// Every other device goes unreturned, so the next launch
				// misses the pool and takes a blank device.
				if i%2 == 0 {
					resume.release(got.td)
				}
			}
			checkpoints := 0
			for th := range resume.mem.Threads() {
				checkpoints += resume.mem.Checkpoints(th)
			}
			t.Logf("%s %s at %s scale: %d checkpoints, trace %d bytes; %d of %d launches started at one",
				spec.Name, mode, leg.scale, checkpoints, resume.bytes(), fromCheckpoint, len(cmds))
			switch {
			case leg.scale != "quick":
			case spec.Name == "RPES" && fromCheckpoint > 0:
				t.Errorf("RPES %s: %d launches started at a checkpoint; its threads are too short to hold one", mode, fromCheckpoint)
			case slices.Contains(longThreadPrograms, spec.Name) && fromCheckpoint == 0:
				t.Errorf("%s %s: no launch started at a checkpoint", spec.Name, mode)
			}
		}
	}
	t.Logf("resumed launches by exit: %v", exits)
	// "hung" included: the oracle ran the quick plan's TPACF hangs under the
	// same derived budget (forceFullLaunch keeps the trace's hangBudget).
	for _, reason := range []string{"settled", "carried", "ran_to_end", "crashed", "hung", "never_fired"} {
		if exits[reason] == 0 {
			t.Errorf("no launch took the %q exit", reason)
		}
	}
}

// longThreadPrograms are the HPC programs whose threads run thousands of
// statements, so their golden traces hold checkpoints.
var longThreadPrograms = []string{"CP", "MRI-FHD", "MRI-Q", "PNS", "SAD", "TPACF"}

func allSpecs() []*workloads.Spec {
	return append(append(workloads.HPC(), workloads.Graphics()...), workloads.CPURef())
}

// stagePlan prepares spec's dataset-0 campaign at the given scale on an
// env with the device its class runs on: golden run, profile and plan.
func stagePlan(t *testing.T, scale Scale, spec *workloads.Spec) (*Env, *GoldenRun, *ProfileResult, []Injection) {
	t.Helper()
	e := NewEnv(scale)
	if spec.Class == workloads.ClassCPU {
		e.Config = e.cpuConfig()
	}
	pc, err := e.PrepareCampaign(spec, workloads.Dataset{})
	if err != nil {
		t.Fatal(err)
	}
	return e, pc.Golden, pc.Prof, pc.Plan
}

// storeFor is the range store a campaign of the mode runs against.
func storeFor(prof *ProfileResult, mode translate.Mode) *ranges.Store {
	if mode == translate.ModeFI {
		return nil
	}
	return prof.Store
}

// TestHangBudgetRule pins the derivation: T (guardian.HangFactor)
// times the clean run's longest thread, never below the floor, never above
// the device's backstop.
func TestHangBudgetRule(t *testing.T) {
	cfg := gpu.DefaultConfig()
	T := guardian.HangFactor
	for _, c := range []struct{ longest, want int }{
		{0, hangFloorSteps},
		{3890, hangFloorSteps}, // TPACF: 10 x 3,890 is under the floor
		{hangFloorSteps, T * hangFloorSteps},
		{cfg.StepBudget/T + 1, cfg.StepBudget},
		{cfg.StepBudget, cfg.StepBudget},
	} {
		if got := hangBudget(cfg, c.longest); got != c.want {
			t.Errorf("hangBudget(longest %d) = %d, want %d", c.longest, got, c.want)
		}
	}
}

// TestHangBudgetReclassifiesNothing is the evidence the hang rule's
// semantic change rests on: a faulted thread that outruns T x the longest
// clean thread is now a hang even if it would have finished inside the
// 4 Mi backstop, and on every shipped plan no injection is such a thread —
// each one classifies under the derived budget exactly as it does under
// the backstop. The full plans of the hang-prone programs are included,
// and the test fails if it saw no hang to compare.
func TestHangBudgetReclassifiesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick-plan injection twice, and three full plans")
	}
	legs := []struct {
		name  string
		scale Scale
		specs []*workloads.Spec
	}{
		{"quick", QuickScale(), allSpecs()},
		{"full", FullScale(), []*workloads.Spec{workloads.ByName("RPES"), workloads.ByName("ray-trace"), workloads.ByName("TPACF")}},
	}
	hangs := make(map[string]int)
	injections := 0
	var hangTime, backstopHangTime time.Duration
	for _, leg := range legs {
		for _, spec := range leg.specs {
			e, golden, prof, plan := stagePlan(t, leg.scale, spec)
			backstop := golden.twin()
			for _, mode := range []translate.Mode{translate.ModeFI, translate.ModeFIFT} {
				store := storeFor(prof, mode)
				derived, err := e.goldenTrace(spec, golden, store, mode)
				if err != nil {
					t.Fatal(err)
				}
				if derived.hangBudget <= 0 || derived.hangBudget >= e.Config.StepBudget {
					t.Fatalf("%s %s: hang budget %d is not below the %d-step backstop", spec.Name, mode, derived.hangBudget, e.Config.StepBudget)
				}
				if err := e.forceBackstopBudget(backstop, store, mode); err != nil {
					t.Fatal(err)
				}
				for _, inj := range plan {
					start := time.Now()
					got, err := e.RunInjection(spec, golden, store, mode, inj)
					if err != nil {
						t.Fatal(err)
					}
					mid := time.Now()
					want, err := e.RunInjection(spec, backstop, store, mode, inj)
					if err != nil {
						t.Fatal(err)
					}
					if got.Hang {
						hangTime += mid.Sub(start)
						backstopHangTime += time.Since(mid)
					}
					if *got != *want {
						t.Errorf("%s %s %s: budget %d classifies %+v, the backstop %+v", spec.Name, mode, inj.Cmd.Key(), derived.hangBudget, got, want)
					}
					if got.Hang {
						hangs[spec.Name+"/"+leg.name]++
					}
					injections++
				}
			}
		}
	}
	t.Logf("%d injections, hangs by program/plan: %v; time in hang injections %v, under the backstop %v",
		injections, hangs, hangTime, backstopHangTime)
	for _, prone := range []string{"TPACF/quick", "TPACF/full", "ray-trace/full"} {
		if hangs[prone] == 0 {
			t.Errorf("no hang in %s: the comparison is vacuous there", prone)
		}
	}
}

// TestBrokenCleanRunFailsCampaign: the clean instrumented run is the
// baseline of the watchdog, the hang budget and every resumed launch, so
// one that crashes — or computes something other than the golden output —
// is an error of every injection against it, not a silent fall-back to the
// full path.
func TestBrokenCleanRunFailsCampaign(t *testing.T) {
	base := workloads.ByName("RPES")
	for name, breakIt := range map[string]func(inst *workloads.Instance, d *gpu.Device){
		"crashes": func(inst *workloads.Instance, _ *gpu.Device) {
			for i, a := range inst.Args {
				if a.Buf != nil {
					wild := *a.Buf
					wild.Off = gpu.VirtualWords
					inst.Args[i] = gpu.BufArg(&wild)
				}
			}
		},
		"wrong output": func(inst *workloads.Instance, d *gpu.Device) {
			for _, a := range inst.Args {
				if a.Buf != nil {
					w := d.ReadWords(a.Buf)
					w[0] ^= 1 << 30
					d.WriteWords(a.Buf, w)
				}
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEnv(tinyScale())
			broken := false
			spec := *base
			spec.Setup = func(d *gpu.Device, ds workloads.Dataset) *workloads.Instance {
				inst := base.Setup(d, ds)
				if broken {
					breakIt(inst, d)
				}
				return inst
			}
			pc, err := e.PrepareCampaign(&spec, workloads.Dataset{})
			if err != nil {
				t.Fatal(err)
			}
			broken = true
			if _, err := e.RunInjection(&spec, pc.Golden, pc.Prof.Store, pc.Mode, pc.Plan[0]); err == nil {
				t.Fatal("injection against a broken clean run classified instead of failing")
			} else if !strings.Contains(err.Error(), "clean") {
				t.Fatalf("error does not name the clean run: %v", err)
			}
			if _, err := e.RunPrepared(context.Background(), pc, CampaignOptions{}); err == nil {
				t.Fatal("campaign against a broken clean run succeeded")
			}
			if _, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: t.TempDir()}); err == nil {
				t.Fatal("durable campaign against a broken clean run succeeded")
			}
		})
	}
}

// campaignRecords runs a durable campaign and returns its digest and its
// store records in plan order.
func campaignRecords(t *testing.T, e *Env, pc *PreparedCampaign, opts CampaignOptions) (string, []cstore.Record) {
	t.Helper()
	cr, err := e.RunPrepared(context.Background(), pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err := cstore.Load(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	return cr.FigureDigest(), recs
}

// TestCampaignResumeEqualsFullPath is the whole-campaign leg: a durable
// campaign forced down the full-launch path is the reference, and the
// same plan through golden-trace resume — in-process, and in isolated
// workers that are killed mid-campaign — must reproduce its figure digest
// and every store record. The oracle runs under the same derived hang
// budget (forceFullLaunch drops only the resumable part of the trace), and
// TPACF's plan is the quick one because that is where its hangs are.
func TestCampaignResumeEqualsFullPath(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	for name, scale := range map[string]Scale{"TPACF": QuickScale(), "SAD": tinyScale()} {
		t.Run(name, func(t *testing.T) {
			e := NewEnv(scale)
			e.Scale.Workers = 2
			spec := workloads.ByName(name)
			pc, err := e.PrepareCampaign(spec, workloads.Dataset{})
			if err != nil {
				t.Fatal(err)
			}
			oracle := *pc
			oracle.Golden = pc.Golden.twin()
			if _, err := e.forceFullLaunch(oracle.Golden, pc.Prof.Store, pc.Mode); err != nil {
				t.Fatal(err)
			}
			wantDigest, want := campaignRecords(t, e, &oracle, CampaignOptions{Dir: t.TempDir()})
			if name == "TPACF" && strings.Contains(wantDigest, "hangs=0\n") {
				t.Fatalf("TPACF's plan holds no hang:\n%s", wantDigest)
			}

			tel := obs.New(&obs.MemSink{})
			e.WithObs(tel)
			legs := map[string]CampaignOptions{
				"in-process": {Dir: t.TempDir()},
				"isolated":   isoOpts(t, t.TempDir(), "kill@3"),
			}
			for leg, opts := range legs {
				gotDigest, got := campaignRecords(t, e, pc, opts)
				if gotDigest != wantDigest {
					t.Fatalf("%s: digest differs from the full-launch campaign:\n%s\nvs\n%s", leg, gotDigest, wantDigest)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: store records differ from the full-launch campaign:\n%+v\nvs\n%+v", leg, got, want)
				}
			}
			if n := tel.Metrics().Counter("hauberk_injection_exit_total", "reason", "ineligible").Value(); n != 0 {
				t.Errorf("%d injections of the resume legs took the full path", n)
			}
		})
	}
}

// TestWatchdogBaselineIsFullLaunch is the regression test for the baseline
// collapsing to a resumed injection's microseconds: the derived deadline
// must be at least T (the guardian's factor) times a full clean launch, and
// a second campaign on the same golden run must not time another launch.
func TestWatchdogBaselineIsFullLaunch(t *testing.T) {
	e := NewEnv(tinyScale())
	pc := planTiny(t, e)
	spec, golden := pc.Spec, pc.Golden
	tr, err := e.Instrument(spec, translate.NewOptions(translate.ModeFIFT))
	if err != nil {
		t.Fatal(err)
	}
	// The fastest of several bare full launches: noise only ever adds time,
	// so the recorded baseline (one launch, plus set-up and recording) can
	// only be above it.
	fullLaunch := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		d := e.NewDevice()
		inst := spec.Setup(d, golden.Dataset)
		start := time.Now()
		if _, err := d.Launch(tr.Kernel, gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args}); err != nil {
			t.Fatal(err)
		}
		fullLaunch = min(fullLaunch, time.Since(start))
	}
	// A vanishing floor, so the derived part of the rule is what is seen.
	gt, err := e.goldenTrace(spec, golden, pc.Prof.Store, pc.Mode)
	if err != nil {
		t.Fatal(err)
	}
	timeout := deriveWatchdogTimeout(gt, time.Nanosecond)
	T := guardian.HangFactor
	if floor := time.Duration(T) * fullLaunch; timeout < floor {
		t.Fatalf("derived deadline %v is below %v = %d x a full clean launch (%v)", timeout, floor, T, fullLaunch)
	}
	// Run an injection (microseconds on the resumed path), then derive again.
	if _, err := e.RunInjection(spec, golden, pc.Prof.Store, pc.Mode, Injection{Cmd: swifi.Command{Site: -1, Mask: 1}}); err != nil {
		t.Fatal(err)
	}
	gt, err = e.goldenTrace(spec, golden, pc.Prof.Store, pc.Mode)
	if err != nil {
		t.Fatal(err)
	}
	if again := deriveWatchdogTimeout(gt, time.Nanosecond); again != timeout {
		t.Fatalf("deadline moved from %v to %v between campaigns on one golden run", timeout, again)
	}
}

// TestInjectionTelemetry checks the resume counters: every injection is
// counted under exactly one exit reason, executed plus skipped threads add
// up to the grid, statements are counted live and restored, and the trace
// size, checkpoints included, is published.
func TestInjectionTelemetry(t *testing.T) {
	e := NewEnv(tinyScale())
	tel := obs.New(&obs.MemSink{})
	e.WithObs(tel)
	pc := planTiny(t, e)
	spec, golden, plan := pc.Spec, pc.Golden, pc.Plan
	for _, inj := range plan {
		if _, err := e.RunInjection(spec, golden, pc.Prof.Store, pc.Mode, inj); err != nil {
			t.Fatal(err)
		}
	}
	m := tel.Metrics()
	var exits int64
	for _, reason := range []string{"settled", "carried", "ran_to_end", "crashed", "hung", "never_fired", "ineligible"} {
		exits += m.Counter("hauberk_injection_exit_total", "reason", reason).Value()
	}
	if exits != int64(len(plan)) {
		t.Fatalf("exit reasons count %d injections, ran %d", exits, len(plan))
	}
	executed := m.Counter("hauberk_injection_threads_total", "kind", "executed").Value()
	skipped := m.Counter("hauberk_injection_threads_total", "kind", "skipped").Value()
	if threads := int64(len(plan)) * int64(golden.Result.Threads); executed+skipped != threads || executed == 0 || skipped == 0 {
		t.Fatalf("threads executed %d + skipped %d, want a split of %d", executed, skipped, threads)
	}
	live := m.Counter("hauberk_injection_steps_total", "kind", "live").Value()
	restored := m.Counter("hauberk_injection_steps_total", "kind", "restored").Value()
	if live <= 0 || restored <= 0 {
		t.Fatalf("statements live %d, restored %d: want both", live, restored)
	}
	// The trace's size counts its checkpoints: CP's threads hold some.
	gt, err := e.goldenTrace(spec, golden, pc.Prof.Store, pc.Mode)
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	for th := range gt.mem.Threads() {
		checkpoints += gt.mem.Checkpoints(th)
	}
	if b := m.Gauge("hauberk_golden_trace_bytes", "program", spec.Name, "mode", translate.ModeFIFT.String()).Value(); b != float64(gt.bytes()) || checkpoints == 0 {
		t.Fatalf("hauberk_golden_trace_bytes = %v, trace holds %d bytes in all, %d checkpoints", b, gt.bytes(), checkpoints)
	}
	if b := m.Gauge("hauberk_hang_budget_steps", "program", spec.Name, "mode", translate.ModeFIFT.String()).Value(); b != hangFloorSteps {
		t.Fatalf("hauberk_hang_budget_steps = %v, want CP's floor of %d", b, hangFloorSteps)
	}
}
