package gpu

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hauberk/internal/kir"
)

// bcRecHooks records every hook callback for cross-engine comparison. With
// a non-zero flipMask it is also a miniature fault injector: Probe XORs
// the mask into the target of every odd thread, feeding the corrupted
// value back into the kernel.
type bcRecHooks struct {
	NopHooks
	log      []string
	flipMask uint32
}

func (h *bcRecHooks) Probe(tc ThreadCtx, site int, v *kir.Var, hw kir.HW, val uint32) (uint32, bool) {
	h.log = append(h.log, fmt.Sprintf("probe b%d t%d site%d %s hw%d %#x", tc.Block, tc.Thread, site, v.Name, hw, val))
	if h.flipMask != 0 && tc.Thread%2 == 1 {
		return val ^ h.flipMask, true
	}
	return val, false
}

func (h *bcRecHooks) CountExec(tc ThreadCtx, site int) {
	h.log = append(h.log, fmt.Sprintf("count b%d t%d site%d", tc.Block, tc.Thread, site))
}

func (h *bcRecHooks) RangeCheck(tc ThreadCtx, det int, val float64) {
	h.log = append(h.log, fmt.Sprintf("range b%d t%d det%d %#x", tc.Block, tc.Thread, det, math.Float64bits(val)))
}

func (h *bcRecHooks) EqualCheck(tc ThreadCtx, det int, count, expected int32) {
	h.log = append(h.log, fmt.Sprintf("equal b%d t%d det%d %d %d", tc.Block, tc.Thread, det, count, expected))
}

func (h *bcRecHooks) ProfileSample(tc ThreadCtx, det int, val float64) {
	h.log = append(h.log, fmt.Sprintf("sample b%d t%d det%d %#x", tc.Block, tc.Thread, det, math.Float64bits(val)))
}

func (h *bcRecHooks) SetSDC(tc ThreadCtx, det int, kind kir.DetectKind) {
	h.log = append(h.log, fmt.Sprintf("sdc b%d t%d det%d %v", tc.Block, tc.Thread, det, kind))
}

// diffCase is one crafted cross-engine differential: the kernel runs under
// every engine on identically prepared devices and every observable —
// outputs, bitwise cycle counts, memory traffic, hook sequence, error — must
// match.
type diffCase struct {
	cfg   Config
	grid  int
	block int
	build func(b *kir.Builder)
	// setup allocates buffers and returns launch args; called once per
	// engine on a fresh device. Defaults to a single 64-word F32 buffer
	// bound to every pointer parameter.
	setup func(d *Device, k *kir.Kernel) []Arg
	// fault, when set, installs a memory-fault overlay on every engine's
	// device before the launch.
	fault func(addr, val uint32) uint32
	// flipMask, when non-zero, makes the recording hooks corrupt probed
	// values (see bcRecHooks).
	flipMask uint32
	// stepBudget is the launch's LaunchSpec.StepBudget (0: the device's).
	stepBudget int
}

func defaultDiffSetup(d *Device, k *kir.Kernel) []Arg {
	args := make([]Arg, len(k.Params))
	for i, p := range k.Params {
		if p.Type == kir.Ptr {
			args[i] = BufArg(d.Alloc(p.Name, p.Elem, 64))
		} else {
			args[i] = U32Arg(uint32(i + 1))
		}
	}
	return args
}

// launchRun is everything observable about one launch.
type launchRun struct {
	res    *Result
	err    error
	arenas [][]uint32
	log    []string
}

// launchCase runs tc's kernel k once on a fresh device configured by cfg.
// It never touches testing.T, so concurrent tests may call it off the test
// goroutine.
func launchCase(tc diffCase, k *kir.Kernel, cfg Config) launchRun {
	d := New(cfg)
	if tc.fault != nil {
		d.SetMemFault(tc.fault)
	}
	args := tc.setup(d, k)
	hooks := &bcRecHooks{flipMask: tc.flipMask}
	res, err := d.Launch(k, LaunchSpec{Grid: tc.grid, Block: tc.block, Args: args, Hooks: hooks, StepBudget: tc.stepBudget})
	var arenas [][]uint32
	for _, buf := range d.Buffers() {
		arenas = append(arenas, d.ReadWords(buf))
	}
	return launchRun{res: res, err: err, arenas: arenas, log: hooks.log}
}

// diffRuns fails the test unless got matches want bit-for-bit in every
// observable.
func diffRuns(t *testing.T, wantName string, want launchRun, gotName string, got launchRun) {
	t.Helper()
	if fmt.Sprint(want.err) != fmt.Sprint(got.err) {
		t.Fatalf("error mismatch:\n  %s: %v\n  %s: %v", wantName, want.err, gotName, got.err)
	}
	if want.err != nil && reflect.TypeOf(want.err) != reflect.TypeOf(got.err) {
		t.Fatalf("error type mismatch: %s %T, %s %T", wantName, want.err, gotName, got.err)
	}
	if math.Float64bits(want.res.Cycles) != math.Float64bits(got.res.Cycles) ||
		math.Float64bits(want.res.LoopCycles) != math.Float64bits(got.res.LoopCycles) ||
		math.Float64bits(want.res.NonLoopCycles) != math.Float64bits(got.res.NonLoopCycles) {
		t.Fatalf("cycles not bit-identical:\n  %s: %+v\n  %s: %+v", wantName, want.res, gotName, got.res)
	}
	if want.res.Loads != got.res.Loads || want.res.Stores != got.res.Stores ||
		want.res.MaxLive != got.res.MaxLive || want.res.Spill != got.res.Spill ||
		want.res.MaxSteps != got.res.MaxSteps {
		t.Fatalf("result metadata mismatch:\n  %s: %+v\n  %s: %+v", wantName, want.res, gotName, got.res)
	}
	if !reflect.DeepEqual(want.arenas, got.arenas) {
		t.Fatalf("buffer contents differ between %s and %s runs", wantName, gotName)
	}
	if !reflect.DeepEqual(want.log, got.log) {
		t.Fatalf("hook sequences differ:\n  %s: %v\n  %s: %v", wantName, want.log, gotName, got.log)
	}
}

// diffEngines builds tc's kernel and holds the three engines — fused
// bytecode (what every production launch runs), the unfused bytecode
// stream, and the tree-walker oracle — to bit-identical observables. It
// returns tc with its defaults filled in, the kernel, and the fused run.
func diffEngines(t *testing.T, tc diffCase) (diffCase, *kir.Kernel, launchRun) {
	t.Helper()
	b := kir.NewBuilder("diff")
	tc.build(b)
	k := b.Kernel()
	if tc.grid == 0 {
		tc.grid = 1
	}
	if tc.block == 0 {
		tc.block = 1
	}
	if tc.setup == nil {
		tc.setup = defaultDiffSetup
	}
	unfused, tree := tc.cfg, tc.cfg
	unfused.DisableFusion = true
	tree.Interpreter = InterpreterTree

	fused := launchCase(tc, k, tc.cfg)
	diffRuns(t, "fused", fused, "unfused", launchCase(tc, k, unfused))
	diffRuns(t, "fused", fused, "tree", launchCase(tc, k, tree))
	if resumed, ok := resumeCase(t, tc, k); ok {
		diffRuns(t, "fused", fused, "resumed", resumed)
	}
	return tc, k, fused
}

// resumeCase runs tc through the resumable entry: the kernel is recorded
// with hooks that change nothing, then resumed from thread 0 with tc's
// hooks and no early exit, which must reproduce the full launch. ok is
// false when the launch is ineligible: an opaque overlay (Record must
// refuse) or a clean launch that fails.
func resumeCase(t *testing.T, tc diffCase, k *kir.Kernel) (run launchRun, ok bool) {
	t.Helper()
	d := New(tc.cfg)
	spec := LaunchSpec{Grid: tc.grid, Block: tc.block, Args: tc.setup(d, k), Hooks: &bcRecHooks{}}
	if tc.fault != nil {
		d.SetMemFault(tc.fault)
		if tr, _, err := d.Record(k, spec, nil); tr != nil || err == nil {
			t.Fatalf("Record on a device with an opaque overlay: trace %v, err %v", tr, err)
		}
		return launchRun{}, false
	}
	tr, _, _ := d.Record(k, spec, nil)
	if tr == nil {
		return launchRun{}, false
	}
	hooks := &bcRecHooks{flipMask: tc.flipMask}
	spec.Hooks, spec.StepBudget = hooks, tc.stepBudget
	res, _, err := d.Resume(k, spec, tr, 0, func() bool { return false })
	var arenas [][]uint32
	for _, buf := range d.Buffers() {
		arenas = append(arenas, d.ReadWords(buf))
	}
	return launchRun{res: res, err: err, arenas: arenas, log: hooks.log}, true
}

func runDiff(t *testing.T, tc diffCase) (*Result, error) {
	t.Helper()
	_, _, fused := diffEngines(t, tc)
	return fused.res, fused.err
}

func TestEnginesDiffCrashPaths(t *testing.T) {
	cases := map[string]diffCase{
		"div-by-zero": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			z := b.Def("z", kir.XSub(kir.I(1), kir.I(1)))
			v := b.Def("v", kir.XDiv(kir.I(7), kir.V(z)))
			b.Store(out, kir.I(0), kir.V(v))
		}},
		"rem-by-zero-in-loop": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			acc := b.Def("acc", kir.I(0))
			b.For("i", kir.I(0), kir.I(8), func(i *kir.Var) {
				b.Set(acc, kir.XAdd(kir.V(acc), kir.XRem(kir.I(100), kir.XSub(kir.I(4), kir.V(i)))))
			})
			b.Store(out, kir.I(0), kir.V(acc))
		}},
		"crash-in-for-limit": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			// The limit expression loads from far outside the device
			// address space: the tree-walker charges LoopOver for the head
			// evaluation even though it crashed (the errRegion path).
			out := b.PtrParam("out", kir.I32)
			acc := b.Def("acc", kir.I(0))
			b.For("i", kir.I(0), kir.ToI32(kir.Load{Base: out, Index: kir.I(1 << 27)}), func(i *kir.Var) {
				b.Set(acc, kir.XAdd(kir.V(acc), kir.V(i)))
			})
			b.Store(out, kir.I(0), kir.V(acc))
		}},
		"crash-in-while-cond": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			n := b.Def("n", kir.I(3))
			b.While(kir.XGt(kir.XDiv(kir.I(6), kir.V(n)), kir.I(0)), func() {
				b.Set(n, kir.XSub(kir.V(n), kir.I(1)))
			})
			b.Store(out, kir.I(0), kir.V(n))
		}},
		"crash-in-for-step": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			// Crashing in the step expression must NOT charge LoopOver
			// (unlike the limit expression).
			out := b.PtrParam("out", kir.I32)
			acc := b.Def("acc", kir.I(0))
			b.ForStep("i", kir.I(0), kir.I(8), kir.XDiv(kir.I(1), kir.V(acc)), func(i *kir.Var) {
				b.Set(acc, kir.XSub(kir.V(acc), kir.V(acc)))
			})
			b.Store(out, kir.I(0), kir.V(acc))
		}},
		"oob-store-gpu-silent": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			b.Store(out, kir.I(1<<20), kir.F(1)) // inside address space: silent
			b.Store(out, kir.I(0), kir.F(2))
		}},
		"oob-store-gpu-crash": {cfg: DefaultConfig(), build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			b.Store(out, kir.I(1<<27), kir.F(1)) // beyond address space
		}},
		"oob-load-cpu-crash": {cfg: func() Config { c := DefaultConfig(); c.Mode = ModeCPU; c.SMs = 1; return c }(),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.F32)
				v := b.Def("v", kir.Load{Base: out, Index: kir.I(5000)})
				b.Store(out, kir.I(0), kir.V(v))
			}},
		// Later blocks crash at earlier threads (block b at thread 24-8b),
		// so "first in (block, thread) order" and "lowest thread id"
		// disagree: the reported failure must be block 0, thread 24.
		"crash-first-in-block-order": {cfg: DefaultConfig(), grid: 4, block: 32,
			setup: bigDiffSetup(4, 32),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				acc := b.Def("acc", kir.F(0))
				b.For("i", kir.I(0), kir.I(4), func(i *kir.Var) {
					b.Accum(acc, kir.ToF32(kir.XAdd(kir.V(i), kir.TID())))
				})
				b.Emit(kir.CountExec{Site: 0})
				div := b.Def("div", kir.XSub(kir.TID(), kir.XSub(kir.I(24), kir.XMul(kir.I(8), kir.BID()))))
				v := b.Def("v", kir.XDiv(kir.I(100), kir.V(div)))
				b.Store(out, kir.GlobalID(), kir.V(v))
			}},
		// One thread of a middle block hangs against a tiny step budget;
		// the blocks before it complete and the ones after never start.
		"hang-middle-block": {cfg: func() Config { c := DefaultConfig(); c.StepBudget = 300; return c }(),
			grid: 4, block: 16, setup: bigDiffSetup(4, 16),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				n := b.Def("n", kir.I(0))
				b.If(kir.XLAnd(kir.XEq(kir.BID(), kir.I(2)), kir.XEq(kir.TID(), kir.I(5))), func() {
					b.Set(n, kir.I(1))
				}, nil)
				b.While(kir.XGt(kir.V(n), kir.I(0)), func() {
					b.Set(n, kir.XAdd(kir.V(n), kir.I(1)))
				})
				b.Store(out, kir.GlobalID(), kir.V(n))
			}},
		"hang-while": {cfg: func() Config { c := DefaultConfig(); c.StepBudget = 100; return c }(),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				n := b.Def("n", kir.I(1))
				b.While(kir.XGt(kir.V(n), kir.I(0)), func() {
					b.Set(n, kir.XAdd(kir.V(n), kir.I(1)))
				})
				b.Store(out, kir.I(0), kir.V(n))
			}},
		"hang-for": {cfg: func() Config { c := DefaultConfig(); c.StepBudget = 64; return c }(),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.I32)
				acc := b.Def("acc", kir.I(0))
				b.For("i", kir.I(0), kir.I(1<<30), func(i *kir.Var) {
					b.Set(acc, kir.XAdd(kir.V(acc), kir.V(i)))
				})
				b.Store(out, kir.I(0), kir.V(acc))
			}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := runDiff(t, tc)
			switch name {
			case "oob-store-gpu-silent":
				if err != nil {
					t.Fatalf("wild in-space store must be silent, got %v", err)
				}
			case "hang-while", "hang-for":
				if _, ok := err.(*HangError); !ok {
					t.Fatalf("want HangError, got %v", err)
				}
			case "hang-middle-block":
				if he, ok := err.(*HangError); !ok || he.Block != 2 || he.Thread != 5 {
					t.Fatalf("want HangError at block 2 thread 5, got %v", err)
				}
			case "crash-first-in-block-order":
				if ce, ok := err.(*CrashError); !ok || ce.Block != 0 || ce.Thread != 24 {
					t.Fatalf("want CrashError at block 0 thread 24, got %v", err)
				}
			case "div-by-zero", "rem-by-zero-in-loop", "crash-in-for-limit",
				"crash-in-while-cond", "crash-in-for-step",
				"oob-store-gpu-crash", "oob-load-cpu-crash":
				if _, ok := err.(*CrashError); !ok {
					t.Fatalf("want CrashError, got %v", err)
				}
			}
		})
	}
}

func TestEnginesDiffSemantics(t *testing.T) {
	spillCfg := DefaultConfig()
	spillCfg.RegsPerThread = 4
	cases := map[string]diffCase{
		"spill-charges": {cfg: spillCfg, grid: 2, block: 7, build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			a := b.Def("a", kir.ToF32(kir.GlobalID()))
			c := b.Def("c", kir.XMul(kir.V(a), kir.F(2)))
			d := b.Def("d", kir.XAdd(kir.V(a), kir.V(c)))
			e := b.Def("e", kir.XSub(kir.V(d), kir.V(c)))
			f := b.Def("f", kir.XSqrt(kir.XAbs(kir.V(e))))
			g := b.Def("g", kir.XMax(kir.V(f), kir.V(a)))
			b.Store(out, kir.GlobalID(), kir.XAdd(kir.V(g), kir.XMin(kir.V(d), kir.V(e))))
		}},
		"mixed-control-flow": {cfg: DefaultConfig(), grid: 2, block: 33, build: func(b *kir.Builder) {
			// 33 threads across warp boundaries; nested For + If/Else +
			// While, unsigned compares, logical ops, conversions.
			out := b.PtrParam("out", kir.U32)
			acc := b.Def("acc", kir.U(0))
			b.For("i", kir.I(0), kir.I(6), func(i *kir.Var) {
				b.For("j", kir.I(0), kir.XAdd(kir.V(i), kir.I(1)), func(j *kir.Var) {
					b.If(kir.XLAnd(kir.XGe(kir.V(j), kir.I(1)), kir.XNe(kir.V(i), kir.I(3))), func() {
						b.Set(acc, kir.XAdd(kir.V(acc), kir.AsU32(kir.XMul(kir.V(i), kir.V(j)))))
					}, func() {
						b.Set(acc, kir.XXor(kir.V(acc), kir.U(0x9e3779b9)))
					})
				})
			})
			n := b.Def("n", kir.I(4))
			b.While(kir.XGt(kir.V(n), kir.I(0)), func() {
				b.Set(acc, kir.XOr(kir.XShl(kir.V(acc), kir.I(1)), kir.XShr(kir.V(acc), kir.I(31))))
				b.Set(n, kir.XSub(kir.V(n), kir.I(1)))
			})
			b.Store(out, kir.GlobalID(), kir.V(acc))
		}},
		"fp-builtins": {cfg: DefaultConfig(), block: 8, build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			x := b.Def("x", kir.XAdd(kir.ToF32(kir.TID()), kir.F(0.5)))
			y := b.Def("y", kir.XAdd(kir.XSin(kir.V(x)), kir.XCos(kir.V(x))))
			z := b.Def("z", kir.XAdd(kir.XExp(kir.XNeg(kir.V(x))), kir.XLog(kir.V(x))))
			w := b.Def("w", kir.XAdd(kir.XRSqrt(kir.V(x)), kir.XFloor(kir.V(y))))
			b.Store(out, kir.TID(), kir.XAdd(kir.XAdd(kir.V(y), kir.V(z)), kir.V(w)))
		}},
		"hook-intrinsics": {cfg: DefaultConfig(), block: 3, build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			acc := b.Def("acc", kir.F(0))
			cnt := b.Def("cnt", kir.I(0))
			k := b.Kernel()
			b.For("i", kir.I(0), kir.I(5), func(i *kir.Var) {
				b.Accum(acc, kir.ToF32(kir.V(i)))
				b.Set(cnt, kir.XAdd(kir.V(cnt), kir.I(1)))
			})
			b.Emit(kir.RangeCheck{Detector: 0, Accum: acc, Count: cnt})
			b.Emit(kir.RangeCheck{Detector: 1, Accum: cnt}) // nil count
			b.Emit(kir.EqualCheck{Detector: 2, Count: cnt, Expected: kir.I(5)})
			b.Emit(kir.ProfileSample{Detector: 0, Accum: acc, Count: cnt})
			b.Emit(kir.CountExec{Site: 7})
			b.Emit(kir.FIProbe{Site: 3, Target: acc, HW: kir.HWFPU})
			b.If(kir.XGt(kir.V(acc), kir.F(100)), func() {
				b.Emit(kir.SetSDC{Detector: 1, Kind: kir.DetectRange})
			}, nil)
			b.Emit(kir.SetSDC{Detector: 0, Kind: kir.DetectChecksum})
			b.Sync()
			b.Store(out, kir.TID(), kir.V(acc))
			_ = k
		}},
	}
	// The same kernel under a mutating Probe (an armed injector): the
	// corrupted accumulator must reach the later range check, the SetSDC
	// branch, and the store identically on every engine.
	impure := cases["hook-intrinsics"]
	impure.flipMask = 0x7f800000
	cases["impure-probe"] = impure
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := runDiff(t, tc); err != nil {
				t.Fatalf("launch failed: %v", err)
			}
		})
	}
}

func TestProgramCache(t *testing.T) {
	resetProgramCache()
	t.Cleanup(resetProgramCache)

	b := kir.NewBuilder("cached")
	out := b.PtrParam("out", kir.F32)
	b.Store(out, kir.TID(), kir.ToF32(kir.TID()))
	k := b.Kernel()

	d := New(DefaultConfig())
	buf := d.Alloc("out", kir.F32, 64)
	spec := LaunchSpec{Grid: 1, Block: 4, Args: []Arg{BufArg(buf)}}

	for i := 0; i < 3; i++ {
		if _, err := d.Launch(k, spec); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, size := ProgramCacheStats()
	if misses != 1 || hits != 2 || size != 1 {
		t.Fatalf("after 3 launches: hits=%d misses=%d size=%d, want 2/1/1", hits, misses, size)
	}

	// A different register-file size changes the folded spill costs, so it
	// must compile a distinct program.
	cfg := DefaultConfig()
	cfg.RegsPerThread = 1
	d2 := New(cfg)
	buf2 := d2.Alloc("out", kir.F32, 64)
	if _, err := d2.Launch(k, LaunchSpec{Grid: 1, Block: 4, Args: []Arg{BufArg(buf2)}}); err != nil {
		t.Fatal(err)
	}
	hits, misses, size = ProgramCacheStats()
	if misses != 2 || hits != 2 || size != 2 {
		t.Fatalf("after config change: hits=%d misses=%d size=%d, want 2/2/2", hits, misses, size)
	}
}

// TestWarmLaunchDoesNotCompile pins the steady-state behaviour a 10k-launch
// campaign depends on: after the first launch, re-launching the same kernel
// never re-enters the compiler.
func TestWarmLaunchDoesNotCompile(t *testing.T) {
	resetProgramCache()
	t.Cleanup(resetProgramCache)

	b := kir.NewBuilder("warm")
	out := b.PtrParam("out", kir.F32)
	acc := b.Def("acc", kir.F(0))
	b.For("i", kir.I(0), kir.I(16), func(i *kir.Var) {
		b.Accum(acc, kir.ToF32(kir.V(i)))
	})
	b.Store(out, kir.TID(), kir.V(acc))
	k := b.Kernel()

	d := New(DefaultConfig())
	buf := d.Alloc("out", kir.F32, 64)
	spec := LaunchSpec{Grid: 1, Block: 2, Args: []Arg{BufArg(buf)}}
	if _, err := d.Launch(k, spec); err != nil {
		t.Fatal(err)
	}
	_, missesBefore, _ := ProgramCacheStats()
	for i := 0; i < 100; i++ {
		if _, err := d.Launch(k, spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, missesAfter, _ := ProgramCacheStats(); missesAfter != missesBefore {
		t.Fatalf("warm launches recompiled: misses %d -> %d", missesBefore, missesAfter)
	}
}
