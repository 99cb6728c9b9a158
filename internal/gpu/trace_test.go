package gpu

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"hauberk/internal/kir"
)

// oneFault is a miniature fault injector and detector runtime: Probe XORs
// mask into span consecutive executions of one site starting at instance
// (all of them when persistent), and every detector callback is logged as
// an alarm — a range check with its value, or, under a limit, only when
// its value exceeds the limit, as a profiled range would. It is what
// swifi.Injector plus hrt.Runtime are to the harness, kept here because
// this package cannot import them.
type oneFault struct {
	NopHooks
	site           int
	instance, span int64
	mask           uint32
	persistent     bool
	limit          float64

	// anySite makes every site's Probe calls count: the fault then hits
	// the launch's instance-th Probe call, wherever it is.
	anySite bool

	count  int64   // executions of site so far
	fired  bool    // a value was corrupted
	perSit []int64 // Probe calls per site (recording runs)
	alarms []string
}

func (h *oneFault) Probe(_ ThreadCtx, site int, _ *kir.Var, _ kir.HW, val uint32) (uint32, bool) {
	if site < len(h.perSit) {
		h.perSit[site]++
	}
	if site != h.site && !h.anySite {
		return val, false
	}
	n := h.count
	h.count++
	if n < h.instance || (!h.persistent && n >= h.instance+h.span) {
		return val, false
	}
	h.fired = true
	return val ^ h.mask, true
}

func (h *oneFault) spent() bool { return !h.persistent && h.count >= h.instance+h.span }

func (h *oneFault) RangeCheck(tc ThreadCtx, det int, val float64) {
	switch {
	case h.limit == 0:
		h.alarms = append(h.alarms, fmt.Sprintf("range b%d t%d det%d %#x", tc.Block, tc.Thread, det, math.Float64bits(val)))
	case val > h.limit:
		h.alarms = append(h.alarms, fmt.Sprintf("range b%d t%d det%d", tc.Block, tc.Thread, det))
	}
}

func (h *oneFault) EqualCheck(tc ThreadCtx, det int, count, expected int32) {
	if count != expected {
		h.alarms = append(h.alarms, fmt.Sprintf("equal b%d t%d det%d %d %d", tc.Block, tc.Thread, det, count, expected))
	}
}

func (h *oneFault) SetSDC(tc ThreadCtx, det int, kind kir.DetectKind) {
	h.alarms = append(h.alarms, fmt.Sprintf("sdc b%d t%d det%d %v", tc.Block, tc.Thread, det, kind))
}

// traceCase is one kernel the resume differential runs. setup allocates the
// buffers on a fresh device and returns the launch arguments.
type traceCase struct {
	cfg         Config
	grid, block int
	sites       int
	// stepBudget is the faulted launches' LaunchSpec.StepBudget; the clean
	// recording runs under the device's own.
	stepBudget int
	limit      float64 // the hooks' range limit (oneFault.limit)
	build      func(b *kir.Builder)
	setup      func(d *Device, k *kir.Kernel) []Arg
}

// goldenRecord is a recorded clean launch plus the hook state at every
// thread boundary and checkpoint — the gpu-level twin of
// harness.goldenTrace. A checkpoint's saved state is the clean run's Probe
// calls per site before it, then its alarm count.
type goldenRecord struct {
	d        *Device
	k        *kir.Kernel
	spec     LaunchSpec // the clean launch
	budget   int        // StepBudget of the faulted ones
	limit    float64
	tr       *Trace
	probes   [][]int64 // probes[t][site]: Probe calls of threads < t
	alarms   []string
	alarmEnd []int // alarms of threads <= t end here
}

func recordCase(t *testing.T, tc traceCase) *goldenRecord {
	t.Helper()
	b := kir.NewBuilder("trace")
	tc.build(b)
	g := &goldenRecord{d: New(tc.cfg), k: b.Kernel(), budget: tc.stepBudget, limit: tc.limit}
	g.spec = LaunchSpec{Grid: tc.grid, Block: tc.block, Args: tc.setup(g.d, g.k)}
	clean := &oneFault{site: -1, perSit: make([]int64, tc.sites), limit: tc.limit}
	g.spec.Hooks = clean
	g.probes = append(g.probes, make([]int64, tc.sites))
	tr, _, err := g.d.Record(g.k, g.spec, func(int) {
		g.probes = append(g.probes, append([]int64(nil), clean.perSit...))
		g.alarmEnd = append(g.alarmEnd, len(clean.alarms))
	}, func(_ int, state []uint32) []uint32 {
		for _, c := range clean.perSit {
			state = append(state, uint32(c))
		}
		return append(state, uint32(len(clean.alarms)))
	})
	if err != nil || tr == nil {
		t.Fatalf("clean launch did not record: trace %v, err %v", tr, err)
	}
	g.tr, g.alarms = tr, clean.alarms
	return g
}

// before returns the clean run's Probe calls per site and its alarm count
// before at.
func (g *goldenRecord) before(at ResumeAt) (probes []int64, alarms int) {
	if at.Checkpoint == 0 {
		if at.Thread > 0 {
			alarms = g.alarmEnd[at.Thread-1]
		}
		return g.probes[at.Thread], alarms
	}
	state := g.tr.CheckpointState(at.Thread, at.Checkpoint)
	for _, c := range state[:len(state)-1] {
		probes = append(probes, int64(c))
	}
	return probes, int(state[len(state)-1])
}

// alarmsOf returns the clean run's alarms of threads [from, to).
func (g *goldenRecord) alarmsOf(from, to int) []string {
	at := func(t int) int {
		if t == 0 {
			return 0
		}
		return g.alarmEnd[t-1]
	}
	return g.alarms[at(from):at(to)]
}

// outcome is everything observable about one faulted launch.
type outcome struct {
	res    *Result
	err    error
	snap   Snapshot
	alarms []string
	fired  bool
}

// full runs the fault on a fresh device through Device.Launch: the oracle.
func (tc traceCase) full(k *kir.Kernel, f oneFault) outcome {
	d := New(tc.cfg)
	f.alarms, f.limit = nil, tc.limit
	res, err := d.Launch(k, LaunchSpec{Grid: tc.grid, Block: tc.block, Args: tc.setup(d, k), Hooks: &f, StepBudget: tc.stepBudget})
	return outcome{res: res, err: err, snap: d.Snapshot(), alarms: f.alarms, fired: f.fired}
}

// resumed runs the fault through Resume on the recording device (so device
// reuse across injections is part of what is tested), from the last
// checkpoint before its target instance with Probe delivered at its site
// only, as the harness does, and reports where the live part started and
// stopped, and whether the rest was carried.
func (g *goldenRecord) resumed(f oneFault) (o outcome, from, stop int, carried bool) {
	at := g.resumePoint(f)
	o, ex := g.resumeAt(f, at, f.site)
	return o, at.Thread, ex.Stop, ex.Carried
}

// resumePoint returns the thread holding the fault's target instance (the
// thread count when there is none) and the last of the thread's
// checkpoints before the instance; those before it precede it too.
func (g *goldenRecord) resumePoint(f oneFault) ResumeAt {
	n := g.tr.Threads()
	at := ResumeAt{Thread: n}
	if f.site >= 0 && f.site < len(g.probes[0]) {
		target := max(f.instance, 0)
		for at.Thread = 0; at.Thread < n && g.probes[at.Thread+1][f.site] <= target; at.Thread++ {
		}
		for c := 1; at.Thread < n && c <= g.tr.Checkpoints(at.Thread); c++ {
			if int64(g.tr.CheckpointState(at.Thread, c)[f.site]) <= target {
				at.Checkpoint = c
			}
		}
	}
	return at
}

// resumeAt runs the fault through Resume from at, with its hooks preset to
// the clean run's state there, delivering Probe only at site (-1: at every
// site).
func (g *goldenRecord) resumeAt(f oneFault, at ResumeAt, site int) (outcome, ResumeExit) {
	probes, alarms := g.before(at)
	switch {
	case f.anySite:
		f.count = 0
		for _, c := range probes {
			f.count += c
		}
	case f.site >= 0 && f.site < len(probes):
		f.count = probes[f.site]
	}
	f.alarms, f.limit = append([]string(nil), g.alarms[:alarms]...), g.limit
	spec := g.spec
	spec.Hooks, spec.StepBudget = &f, g.budget
	res, ex, err := g.d.Resume(g.k, spec, g.tr, at, site, f.spent)
	if err == nil && !ex.Carried {
		f.alarms = append(f.alarms, g.alarmsOf(ex.Stop, g.tr.Threads())...)
	}
	return outcome{res: res, err: err, snap: g.d.Snapshot(), alarms: f.alarms, fired: f.fired}, ex
}

func diffOutcomes(t *testing.T, want, got outcome) {
	t.Helper()
	if fmt.Sprint(want.err) != fmt.Sprint(got.err) || reflect.TypeOf(want.err) != reflect.TypeOf(got.err) {
		t.Fatalf("error mismatch:\n  launch: %v\n  resume: %v", want.err, got.err)
	}
	if math.Float64bits(want.res.Cycles) != math.Float64bits(got.res.Cycles) ||
		math.Float64bits(want.res.LoopCycles) != math.Float64bits(got.res.LoopCycles) ||
		math.Float64bits(want.res.NonLoopCycles) != math.Float64bits(got.res.NonLoopCycles) {
		t.Fatalf("cycles not bit-identical:\n  launch: %+v\n  resume: %+v", want.res, got.res)
	}
	if *want.res != *got.res {
		t.Fatalf("results differ:\n  launch: %+v\n  resume: %+v", want.res, got.res)
	}
	if !reflect.DeepEqual(want.snap, got.snap) {
		for a := range want.snap.Words {
			if want.snap.Words[a] != got.snap.Words[a] {
				t.Fatalf("arena differs at word %d: launch %#x, resume %#x", a, want.snap.Words[a], got.snap.Words[a])
			}
		}
		t.Fatalf("volatile tick differs: launch %d, resume %d", want.snap.tick, got.snap.tick)
	}
	if !reflect.DeepEqual(want.alarms, got.alarms) {
		t.Fatalf("alarms differ:\n  launch: %v\n  resume: %v", want.alarms, got.alarms)
	}
	if want.fired != got.fired {
		t.Fatalf("activation differs: launch %v, resume %v", want.fired, got.fired)
	}
}

// faultsFor enumerates faults over every site of a recorded case: the
// first, middle and last instance (so the first and the last thread hold a
// target), an instance the launch never reaches, low and high bit flips, a
// span crossing thread boundaries, and a persistent fault.
func (g *goldenRecord) faultsFor() []oneFault {
	n := g.tr.Threads()
	var out []oneFault
	for site, total := range g.probes[n] {
		if total == 0 {
			continue
		}
		perThread := total/int64(n) + 1
		for _, inst := range []int64{0, total / 3, total / 2, total - 1, total} {
			for _, mask := range []uint32{1, 1 << 4, 1 << 31, 0xffffffff} {
				out = append(out, oneFault{site: site, instance: inst, span: 1, mask: mask})
			}
			out = append(out,
				oneFault{site: site, instance: inst, span: 2*perThread + 1, mask: 1 << 3},
				oneFault{site: site, instance: inst, mask: 1 << 2, persistent: true})
		}
	}
	return append(out, oneFault{site: -1, span: 1, mask: 1}, oneFault{site: len(g.probes[0]), span: 1, mask: 1})
}

func perThreadSetup(grid, block int) func(d *Device, k *kir.Kernel) []Arg {
	return func(d *Device, k *kir.Kernel) []Arg {
		args := bigDiffSetup(grid, block)(d, k)
		for i, p := range k.Params {
			if p.Type == kir.Ptr {
				words := make([]uint32, args[i].Buf.Len)
				for w := range words {
					words[w] = uint32(w%13 + i + 1)
					if p.Elem == kir.F32 {
						words[w] = math.Float32bits(float32(words[w]) + 0.5)
					}
				}
				d.WriteWords(args[i].Buf, words)
			}
		}
		return args
	}
}

func traceCases() map[string]traceCase {
	cpu := DefaultConfig()
	cpu.Mode, cpu.SMs = ModeCPU, 1
	return map[string]traceCase{
		// One output word per thread, read by nobody: every fault that
		// stays inside its thread's word settles one thread later.
		"independent": {cfg: DefaultConfig(), grid: 3, block: 33, sites: 3, setup: perThreadSetup(3, 33),
			build: func(b *kir.Builder) {
				in := b.PtrParam("in", kir.F32)
				out := b.PtrParam("out", kir.F32)
				acc := b.Def("acc", kir.F(0))
				cnt := b.Def("cnt", kir.I(0))
				b.For("i", kir.I(0), kir.I(6), func(i *kir.Var) {
					b.Accum(acc, kir.XMul(kir.Ld(in, kir.XAdd(kir.GlobalID(), kir.V(i))), kir.F(0.5)))
					b.Emit(kir.FIProbe{Site: 0, Target: acc, HW: kir.HWFPU})
					b.Set(cnt, kir.XAdd(kir.V(cnt), kir.I(1)))
					b.Emit(kir.FIProbe{Site: 1, Target: cnt, HW: kir.HWALU})
				})
				b.Emit(kir.RangeCheck{Detector: 0, Accum: acc, Count: cnt})
				b.Emit(kir.EqualCheck{Detector: 1, Count: cnt, Expected: kir.I(6)})
				gid := b.Def("gid", kir.GlobalID())
				b.Emit(kir.FIProbe{Site: 2, Target: gid, HW: kir.HWALU})
				b.Store(out, kir.V(gid), kir.V(acc))
			}},
		// Thread t+1 loads what thread t stored: a corrupted word must be
		// carried down the whole chain.
		"chain": {cfg: DefaultConfig(), grid: 2, block: 20, sites: 1, setup: perThreadSetup(2, 20),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				prev := b.Def("prev", kir.Ld(out, kir.XMax(kir.XSub(kir.GlobalID(), kir.I(1)), kir.I(0))))
				v := b.Def("v", kir.XAdd(kir.XMul(kir.V(prev), kir.I(3)), kir.GlobalID()))
				b.Emit(kir.FIProbe{Site: 0, Target: v, HW: kir.HWALU})
				b.Store(out, kir.GlobalID(), kir.V(v))
			}},
		// The TPACF pattern: every thread read-modify-writes shared bins.
		"histogram": {cfg: DefaultConfig(), grid: 2, block: 16, sites: 2, setup: perThreadSetup(2, 16),
			build: func(b *kir.Builder) {
				hist := b.PtrParam("hist", kir.I32)
				b.For("i", kir.I(0), kir.I(4), func(i *kir.Var) {
					bin := b.Def("bin", kir.XRem(kir.XAdd(kir.GlobalID(), kir.V(i)), kir.I(8)))
					b.Emit(kir.FIProbe{Site: 0, Target: bin, HW: kir.HWALU})
					nv := b.Def("nv", kir.XAdd(kir.Ld(hist, kir.V(bin)), kir.I(1)))
					b.Emit(kir.FIProbe{Site: 1, Target: nv, HW: kir.HWALU})
					b.Store(hist, kir.V(bin), kir.V(nv))
				})
			}},
		// Every thread overwrites a shared word before it reads it back: a
		// fault that changed the word is dead one thread later, though
		// every later thread loads it.
		"overwrite": {cfg: DefaultConfig(), grid: 2, block: 16, sites: 1, setup: perThreadSetup(2, 16),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				shared := b.PtrParam("shared", kir.I32)
				v := b.Def("v", kir.XMul(kir.GlobalID(), kir.I(3)))
				b.Emit(kir.FIProbe{Site: 0, Target: v, HW: kir.HWALU})
				b.Store(shared, kir.I(0), kir.V(v))
				r := b.Def("r", kir.Ld(shared, kir.I(0)))
				b.Store(out, kir.GlobalID(), kir.XAdd(kir.V(r), kir.I(1)))
			}},
		// A corrupted index stores into a table every later thread reads.
		"wild-store": {cfg: DefaultConfig(), grid: 2, block: 16, sites: 1, setup: perThreadSetup(2, 16),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				table := b.PtrParam("table", kir.I32)
				idx := b.Def("idx", kir.GlobalID())
				b.Emit(kir.FIProbe{Site: 0, Target: idx, HW: kir.HWALU})
				sum := b.Def("sum", kir.I(0))
				b.For("i", kir.I(0), kir.I(8), func(i *kir.Var) {
					b.Set(sum, kir.XAdd(kir.V(sum), kir.Ld(table, kir.V(i))))
				})
				b.Store(out, kir.V(idx), kir.V(sum))
			}},
		// Faults that crash (zero divisor, address outside the process) and
		// hang (a loop bound that never comes, against a per-launch budget
		// the recording did not run under) part-way through the grid.
		"crash": {cfg: cpu, grid: 2, block: 16, sites: 2, setup: perThreadSetup(2, 16),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				den := b.Def("den", kir.I(1))
				b.Emit(kir.FIProbe{Site: 0, Target: den, HW: kir.HWALU})
				gid := b.Def("gid", kir.GlobalID())
				b.Emit(kir.FIProbe{Site: 1, Target: gid, HW: kir.HWALU})
				b.Store(out, kir.V(gid), kir.XDiv(kir.I(100), kir.V(den)))
			}},
		"hang": {cfg: DefaultConfig(), stepBudget: 400, grid: 2, block: 16, sites: 1, setup: perThreadSetup(2, 16),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				n := b.Def("n", kir.I(3))
				b.Emit(kir.FIProbe{Site: 0, Target: n, HW: kir.HWALU})
				s := b.Def("s", kir.I(0))
				b.While(kir.XNe(kir.V(n), kir.I(0)), func() {
					b.Set(s, kir.XAdd(kir.V(s), kir.V(n)))
					b.Set(n, kir.XSub(kir.V(n), kir.I(1)))
				})
				b.Store(out, kir.GlobalID(), kir.V(s))
			}},
		// A volatile region only a corrupted address reaches: the tick it
		// advances is device state the later threads may or may not draw.
		"volatile": {cfg: DefaultConfig(), grid: 2, block: 16, sites: 1,
			setup: func(d *Device, k *kir.Kernel) []Arg {
				args := perThreadSetup(2, 16)(d, k)
				d.SetVolatile(args[1].Buf)
				return args
			},
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				vol := b.PtrParam("vol", kir.I32)
				off := b.Def("off", kir.XSub(kir.GlobalID(), kir.I(31)))
				b.Emit(kir.FIProbe{Site: 0, Target: off, HW: kir.HWALU})
				v := b.Def("v", kir.I(7))
				// Only the last thread reads the volatile buffer in a
				// clean run; a corrupted offset makes earlier ones do.
				b.If(kir.Bin{Op: kir.Ge, L: kir.V(off), R: kir.I(0)}, func() {
					b.Set(v, kir.Ld(vol, kir.V(off)))
				}, nil)
				b.Store(out, kir.GlobalID(), kir.V(v))
			}},
	}
}

// TestResumeMatchesLaunch holds Resume to Device.Launch on a fresh device,
// bit for bit — error, Result, the whole arena, the volatile tick and the
// alarm sequence — for every enumerated fault of every case, and checks
// the early exit fires where it may and only there.
func TestResumeMatchesLaunch(t *testing.T) {
	for name, tc := range traceCases() {
		t.Run(name, func(t *testing.T) {
			g := recordCase(t, tc)
			n := g.tr.Threads()
			settled := 0
			for _, f := range g.faultsFor() {
				want := tc.full(g.k, f)
				got, from, stop, _ := g.resumed(f)
				t.Logf("fault %+v: live threads [%d, %d) of %d, err %v", f, from, stop, n, got.err)
				diffOutcomes(t, want, got)
				if got.err == nil && stop < n {
					settled++
				}
				// A thread that stores a word before loading it does not
				// keep that word's difference alive: a single-instance fault
				// settles at the boundary after its own thread.
				if name == "overwrite" && got.err == nil && from < n && f.span == 1 && !f.persistent && stop != from+1 {
					t.Fatalf("fault %+v: live threads [%d, %d), want one", f, from, stop)
				}
				// Where later threads read what the target thread wrote, a
				// fault that changed memory may not exit early: the chain
				// reads each word one thread later, and each histogram
				// bin is loaded again within the last five threads.
				if mustReach, ok := map[string]int{"chain": n, "histogram": n - 4}[name]; ok && got.err == nil {
					clean := g.spec
					clean.Hooks = &oneFault{site: -1}
					if _, _, err := g.d.Resume(g.k, clean, g.tr, ResumeAt{Thread: n}, -1, nil); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.snap, g.d.Snapshot()) && stop < mustReach {
						t.Fatalf("fault %+v changed memory later threads read, but the launch stopped at thread %d of %d", f, stop, n)
					}
				}
			}
			if settled == 0 && name != "chain" {
				t.Fatalf("no fault of %q took the settled exit", name)
			}
		})
	}
}

// TestResumeWildStoreIsSeen pins the adversarial case by hand: thread 3's
// corrupted index lands in the table all later threads sum, so they must
// run live and their outputs must change.
func TestResumeWildStoreIsSeen(t *testing.T) {
	tc := traceCases()["wild-store"]
	g := recordCase(t, tc)
	table := g.spec.Args[1].Buf
	out := g.spec.Args[0].Buf
	// XOR thread 3's index so out[idx] aliases table[2].
	f := oneFault{site: 0, instance: 3, span: 1, mask: 3 ^ (table.Off - out.Off + 2)}
	got, from, stop, _ := g.resumed(f)
	diffOutcomes(t, tc.full(g.k, f), got)
	if from != 3 || stop != g.tr.Threads() {
		t.Fatalf("live threads [%d, %d), want [3, %d): later threads load the corrupted table", from, stop, g.tr.Threads())
	}
}

// TestTraceStoreBudget: a live thread that stores without bound loses its
// log and the launch runs to its end instead of holding the stores.
func TestTraceStoreBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StepBudget = 1 << 16
	tc := traceCase{cfg: cfg, grid: 1, block: 4, sites: 1, setup: perThreadSetup(1, 4),
		build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			n := b.Def("n", kir.I(2))
			b.Emit(kir.FIProbe{Site: 0, Target: n, HW: kir.HWALU})
			b.For("i", kir.I(0), kir.V(n), func(i *kir.Var) {
				b.Store(out, kir.GlobalID(), kir.V(i))
			})
		}}
	g := recordCase(t, tc)
	f := oneFault{site: 0, instance: 1, span: 1, mask: 1 << 13} // 8194 stores of the same word
	got, _, stop, _ := g.resumed(f)
	diffOutcomes(t, tc.full(g.k, f), got)
	if stop != g.tr.Threads() {
		t.Fatalf("stopped at thread %d with a lost store log", stop)
	}
	if c := cap(g.d.resume.live.recs); c > 4096 {
		t.Fatalf("live store log grew to %d entries", c)
	}
}

// withProbes returns body with an FI probe after every definition and
// assignment, at any depth, numbering sites from *site on.
func withProbes(body kir.Block, site *int) kir.Block {
	var out kir.Block
	for _, s := range body {
		out = append(out, s)
		switch n := s.(type) {
		case kir.Define:
			out = append(out, kir.FIProbe{Site: *site, Target: n.Dst, HW: kir.HWALU})
			*site++
		case kir.Assign:
			out = append(out, kir.FIProbe{Site: *site, Target: n.Dst, HW: kir.HWALU})
			*site++
		case *kir.If:
			n.Then, n.Else = withProbes(n.Then, site), withProbes(n.Else, site)
		case *kir.For:
			n.Body = withProbes(n.Body, site)
		case *kir.While:
			n.Body = withProbes(n.Body, site)
		}
	}
	return out
}

// fusionTraceCases turns the fusion catalog into resume cases: each shape
// with a probe after every definition.
func fusionTraceCases() map[string]traceCase {
	out := make(map[string]traceCase)
	for _, fc := range fusionCatalog() {
		build := func(b *kir.Builder) {
			fc.build(b)
			site := 0
			b.Kernel().Body = withProbes(b.Kernel().Body, &site)
		}
		b := kir.NewBuilder(fc.name)
		build(b)
		sites := 0
		kir.WalkStmts(b.Kernel().Body, func(s kir.Stmt) bool {
			if _, ok := s.(kir.FIProbe); ok {
				sites++
			}
			return true
		})
		out["fused/"+fc.name] = traceCase{cfg: DefaultConfig(), grid: 2, block: 8, sites: sites, setup: perThreadSetup(2, 8), build: build}
	}
	return out
}

// TestResumeFromEveryCheckpoint holds a launch resumed from any statement
// boundary of any thread to Device.Launch on a fresh device: with a
// checkpoint before every statement, every crafted case and every fusible
// shape is resumed from each checkpoint (and each thread start) with a
// fault at the next Probe call, whatever its site, and must match in
// error, activation, alarms, the whole arena and the Result's bits; so
// must every fault TestResumeMatchesLaunch enumerates.
func TestResumeFromEveryCheckpoint(t *testing.T) {
	defer CheckpointEvery(1)()
	cases := traceCases()
	maps.Copy(cases, fusionTraceCases())
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			g := recordCase(t, tc)
			resumed, fired := 0, 0
			for th := range g.tr.Threads() {
				for c := range g.tr.Checkpoints(th) + 1 {
					at := ResumeAt{Thread: th, Checkpoint: c}
					probes, _ := g.before(at)
					f := oneFault{anySite: true, span: 1, mask: []uint32{1 << 4, 0xffffffff, 1 << 31}[c%3]}
					for _, n := range probes {
						f.instance += n
					}
					want := tc.full(g.k, f)
					got, _ := g.resumeAt(f, at, -1)
					diffOutcomes(t, want, got)
					resumed++
					if got.fired {
						fired++
					}
				}
			}
			if resumed <= 2*g.tr.Threads() || fired == 0 {
				t.Fatalf("%d resumes over %d threads, %d faults fired: want checkpoints and faults", resumed, g.tr.Threads(), fired)
			}
			// And the harness's way: the enumerated faults of one site,
			// from the last checkpoint before each, Probe at that site only.
			for _, f := range g.faultsFor() {
				got, _, _, _ := g.resumed(f)
				diffOutcomes(t, tc.full(g.k, f), got)
			}
		})
	}
}

// TestCheckpointSpacing pins the memory rule: checkpoints sit at multiples
// of a spacing that starts at minCheckpointSteps and doubles whenever they
// outgrow the byte budget — so long, even threads fill more than half of
// it — and threads shorter than the least spacing hold none.
func TestCheckpointSpacing(t *testing.T) {
	loop := func(iters int32) traceCase {
		return traceCase{cfg: DefaultConfig(), grid: 2, block: 4, sites: 1, setup: perThreadSetup(2, 4),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				acc := b.Def("acc", kir.I(0))
				b.For("i", kir.I(0), kir.I(iters), func(i *kir.Var) {
					b.Set(acc, kir.XAdd(kir.V(acc), kir.V(i)))
					b.Emit(kir.FIProbe{Site: 0, Target: acc, HW: kir.HWALU})
				})
				b.Store(out, kir.GlobalID(), kir.V(acc))
			}}
	}
	if g := recordCase(t, loop(minCheckpointSteps/4)); len(g.tr.ckpts) != 0 {
		t.Fatalf("threads of about %d statements hold %d checkpoints", minCheckpointSteps*3/4, len(g.tr.ckpts))
	}
	defer func(b int) { checkpointBytes = b }(checkpointBytes)
	checkpointBytes = 4 << 10
	g := recordCase(t, loop(20000))
	tr := g.tr
	bytes := len(tr.ckpts) * tr.checkpointBytes()
	if tr.every <= minCheckpointSteps || tr.every%minCheckpointSteps != 0 || bits.OnesCount(uint(tr.every/minCheckpointSteps)) != 1 {
		t.Fatalf("spacing %d: want a power-of-two multiple of %d above it", tr.every, minCheckpointSteps)
	}
	if bytes > checkpointBytes || 2*bytes <= checkpointBytes {
		t.Fatalf("checkpoints hold %d bytes of a %d budget", bytes, checkpointBytes)
	}
	for th := range tr.Threads() {
		if got, want := tr.Checkpoints(th), int(tr.threads[th].steps-1)/tr.every; got != want {
			t.Fatalf("thread %d: %d checkpoints, want %d", th, got, want)
		}
		for c := 1; c <= tr.Checkpoints(th); c++ {
			if s := tr.ckpts[tr.ckptEnd(th)+c-1].steps; int(s) != c*tr.every {
				t.Fatalf("thread %d checkpoint %d at statement %d, want %d", th, c, s, c*tr.every)
			}
		}
	}
	// And they resume: a fault past the middle of the last thread.
	f := oneFault{site: 0, instance: g.probes[tr.Threads()][0] - 7000, span: 1, mask: 1 << 9}
	got, _, _, _ := g.resumed(f)
	diffOutcomes(t, loop(20000).full(g.k, f), got)
}

// TestPauseAllocatesNothing: a thread paused at a checkpoint returns the
// errPause sentinel, and pausing and continuing allocate nothing.
func TestPauseAllocatesNothing(t *testing.T) {
	tc := traceCases()["independent"]
	b := kir.NewBuilder("pause")
	tc.build(b)
	k := b.Kernel()
	d := New(tc.cfg)
	spec := LaunchSpec{Grid: tc.grid, Block: tc.block, Args: tc.setup(d, k)}
	p, _ := programFor(k, d.cfg)
	x := d.newTracedLaunch(k, &spec, p)
	defer x.close()
	var err error
	pauses := 0
	allocs := testing.AllocsPerRun(100, func() {
		x.begin(0)
		for {
			x.budget = x.steps + 3
			if err = x.run(); err != errPause {
				break
			}
			pauses++
		}
	})
	if err != nil || pauses == 0 || allocs != 0 {
		t.Fatalf("err %v after %d pauses, %v allocations per thread", err, pauses, allocs)
	}
}

// TestResumeRefusesBadCheckpoint: a checkpoint the thread does not have, or
// one past the launch's step budget (the launch would hang before reaching
// it), is a launch error, not a resume from somewhere else.
func TestResumeRefusesBadCheckpoint(t *testing.T) {
	defer CheckpointEvery(1)()
	g := recordCase(t, traceCases()["independent"])
	n := g.tr.Threads()
	last := g.tr.Checkpoints(0)
	spec := g.spec
	for _, c := range []struct {
		at     ResumeAt
		budget int
	}{
		{ResumeAt{Thread: 0, Checkpoint: last + 1}, 0},
		{ResumeAt{Thread: n, Checkpoint: 1}, 0},
		{ResumeAt{Thread: 0, Checkpoint: -1}, 0},
		{ResumeAt{Thread: 0, Checkpoint: last}, last - 1},
	} {
		spec.StepBudget = c.budget
		var le *LaunchError
		if _, _, err := g.d.Resume(g.k, spec, g.tr, c.at, -1, nil); !errors.As(err, &le) {
			t.Fatalf("resume from %+v under budget %d: %v, want *LaunchError", c.at, c.budget, err)
		}
	}
}
