package gpu

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hauberk/internal/kir"
)

// bigDiffSetup sizes every pointer buffer for one word per launched thread
// (plus slack for kernels that index a little past their own word).
func bigDiffSetup(grid, block int) func(d *Device, k *kir.Kernel) []Arg {
	return func(d *Device, k *kir.Kernel) []Arg {
		args := make([]Arg, len(k.Params))
		for i, p := range k.Params {
			if p.Type == kir.Ptr {
				args[i] = BufArg(d.Alloc(p.Name, p.Elem, grid*block+64))
			} else {
				args[i] = U32Arg(uint32(i + 1))
			}
		}
		return args
	}
}

// TestParallelSerialIdentical pins the concurrency contract campaign
// workers rely on: devices are private to a worker, but the compiled
// program and its pooled register files are shared process-wide. Launching
// the same kernel from several goroutines at once, each on its own device,
// must reproduce a lone serial launch bit-for-bit — outputs, cycle bits,
// memory traffic, and the hook sequence. Every case also runs through the
// three-engine differential first.
func TestParallelSerialIdentical(t *testing.T) {
	spillCfg := DefaultConfig()
	spillCfg.RegsPerThread = 4
	cases := map[string]diffCase{
		// Loops, FP accumulation, and one store per thread across 512
		// threads: the bread-and-butter shape of the benchmark kernels.
		"compute": {cfg: DefaultConfig(), grid: 8, block: 64,
			setup: bigDiffSetup(8, 64),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.F32)
				acc := b.Def("acc", kir.F(0))
				b.For("i", kir.I(0), kir.I(8), func(i *kir.Var) {
					b.Accum(acc, kir.XMul(kir.ToF32(kir.XAdd(kir.GlobalID(), kir.V(i))), kir.F(1.5)))
				})
				b.Store(out, kir.GlobalID(), kir.XSqrt(kir.XAbs(kir.V(acc))))
			}},
		// 33 threads per block straddles a warp boundary, so the
		// partial-warp max of the cycle model is on the line.
		"warp-straddle": {cfg: DefaultConfig(), grid: 5, block: 33,
			setup: bigDiffSetup(5, 33),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.U32)
				acc := b.Def("acc", kir.ConstU32(0))
				b.For("i", kir.I(0), kir.XAdd(kir.TID(), kir.I(1)), func(i *kir.Var) {
					b.Set(acc, kir.XXor(kir.XAdd(kir.V(acc), kir.AsU32(kir.V(i))), kir.ConstU32(0x9e3779b9)))
				})
				b.Store(out, kir.GlobalID(), kir.V(acc))
			}},
		// Block-dependent trip counts make block runtimes uneven.
		"uneven-blocks": {cfg: DefaultConfig(), grid: 16, block: 16,
			setup: bigDiffSetup(16, 16),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.F32)
				acc := b.Def("acc", kir.F(1))
				b.For("i", kir.I(0), kir.XMul(kir.BID(), kir.I(7)), func(i *kir.Var) {
					b.Set(acc, kir.XAdd(kir.XMul(kir.V(acc), kir.F(1.0001)), kir.XSin(kir.ToF32(kir.V(i)))))
				})
				b.Store(out, kir.GlobalID(), kir.V(acc))
			}},
		// Spill charges fold into the per-thread cycle counts.
		"spill": {cfg: spillCfg, grid: 4, block: 32,
			setup: bigDiffSetup(4, 32),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.F32)
				a := b.Def("a", kir.ToF32(kir.GlobalID()))
				c := b.Def("c", kir.XMul(kir.V(a), kir.F(2)))
				d := b.Def("d", kir.XAdd(kir.V(a), kir.V(c)))
				e := b.Def("e", kir.XSub(kir.V(d), kir.V(c)))
				f := b.Def("f", kir.XSqrt(kir.XAbs(kir.V(e))))
				b.Store(out, kir.GlobalID(), kir.XAdd(kir.V(f), kir.XMin(kir.V(d), kir.V(e))))
			}},
		// Every intrinsic hook kind fires, live, in (block, thread) order.
		"hooks": {cfg: DefaultConfig(), grid: 4, block: 16,
			setup: bigDiffSetup(4, 16),
			build: func(b *kir.Builder) {
				out := b.PtrParam("out", kir.F32)
				acc := b.Def("acc", kir.F(0))
				cnt := b.Def("cnt", kir.I(0))
				b.For("i", kir.I(0), kir.I(5), func(i *kir.Var) {
					b.Accum(acc, kir.ToF32(kir.XAdd(kir.V(i), kir.TID())))
					b.Set(cnt, kir.XAdd(kir.V(cnt), kir.I(1)))
				})
				b.Emit(kir.RangeCheck{Detector: 0, Accum: acc, Count: cnt})
				b.Emit(kir.EqualCheck{Detector: 1, Count: cnt, Expected: kir.I(5)})
				b.Emit(kir.ProfileSample{Detector: 0, Accum: acc, Count: cnt})
				b.Emit(kir.CountExec{Site: 2})
				b.Emit(kir.FIProbe{Site: 1, Target: acc, HW: kir.HWFPU})
				b.Emit(kir.SetSDC{Detector: 0, Kind: kir.DetectChecksum})
				b.Store(out, kir.GlobalID(), kir.V(acc))
			}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			tc, k, alone := diffEngines(t, tc)
			if alone.err != nil {
				t.Fatalf("launch failed: %v", alone.err)
			}

			const workers = 4
			runs := make([]launchRun, workers)
			var wg sync.WaitGroup
			for w := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ { // relaunch: recycle pooled register files
						runs[w] = launchCase(tc, k, engineFused)
					}
				}()
			}
			wg.Wait()
			for w, got := range runs {
				diffRuns(t, "alone", alone, fmt.Sprintf("concurrent worker %d", w), got)
			}
		})
	}
}

// TestWarpDivergenceShapes drives every structured divergence shape the
// compiler can emit — nested If/Else keyed on the thread id, loops with
// thread-dependent trip counts, else-less Ifs inside loops, While loops
// whose threads exit at different iterations — over 33-thread blocks (a
// full accounting warp plus a one-thread tail) and requires the fused,
// unfused, and tree engines to agree bit-for-bit: the warp cost is the
// slowest thread's, so divergence is exactly where the per-warp max shows.
func TestWarpDivergenceShapes(t *testing.T) {
	cases := map[string]func(b *kir.Builder){
		"if-else-parity": func(b *kir.Builder) {
			out := b.PtrParam("out", kir.U32)
			acc := b.Def("acc", kir.ConstU32(0))
			b.If(kir.XEq(kir.XRem(kir.TID(), kir.I(2)), kir.I(0)), func() {
				b.Set(acc, kir.XAdd(kir.V(acc), kir.ConstU32(1)))
				b.If(kir.XLt(kir.TID(), kir.I(8)), func() {
					b.Set(acc, kir.XMul(kir.V(acc), kir.ConstU32(3)))
				}, func() {
					b.Set(acc, kir.XXor(kir.V(acc), kir.ConstU32(0xff)))
				})
			}, func() {
				b.Set(acc, kir.XAdd(kir.V(acc), kir.ConstU32(2)))
			})
			b.Store(out, kir.GlobalID(), kir.V(acc))
		},
		"divergent-trip-counts": func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			acc := b.Def("acc", kir.F(0))
			b.For("i", kir.I(0), kir.TID(), func(i *kir.Var) {
				b.Accum(acc, kir.XMul(kir.ToF32(kir.V(i)), kir.F(0.25)))
			})
			b.Store(out, kir.GlobalID(), kir.V(acc))
		},
		"else-less-in-loop": func(b *kir.Builder) {
			out := b.PtrParam("out", kir.U32)
			acc := b.Def("acc", kir.ConstU32(0))
			b.For("i", kir.I(0), kir.I(8), func(i *kir.Var) {
				b.If(kir.XLt(kir.V(i), kir.XRem(kir.TID(), kir.I(4))), func() {
					b.Set(acc, kir.XXor(kir.V(acc), kir.Bin{Op: kir.Shl, L: kir.ConstU32(1), R: kir.V(i)}))
				}, nil)
			})
			b.Store(out, kir.GlobalID(), kir.V(acc))
		},
		"while-lane-exit": func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			n := b.Def("n", kir.XRem(kir.TID(), kir.I(5)))
			s := b.Def("s", kir.I(0))
			b.While(kir.XGt(kir.V(n), kir.I(0)), func() {
				b.Set(s, kir.XAdd(kir.V(s), kir.V(n)))
				b.Set(n, kir.XSub(kir.V(n), kir.I(1)))
			})
			b.Store(out, kir.GlobalID(), kir.V(s))
		},
		"nested-loop-branch-mix": func(b *kir.Builder) {
			out := b.PtrParam("out", kir.U32)
			acc := b.Def("acc", kir.ConstU32(0))
			b.For("i", kir.I(0), kir.I(4), func(i *kir.Var) {
				b.For("j", kir.I(0), kir.XAdd(kir.XRem(kir.TID(), kir.I(3)), kir.I(1)), func(j *kir.Var) {
					b.If(kir.XGt(kir.V(j), kir.V(i)), func() {
						b.Set(acc, kir.XAdd(kir.V(acc), kir.ConstU32(5)))
					}, func() {
						b.Set(acc, kir.Bin{Op: kir.Or, L: kir.Bin{Op: kir.Shl, L: kir.V(acc), R: kir.I(1)}, R: kir.ConstU32(1)})
					})
				})
			})
			b.Store(out, kir.GlobalID(), kir.V(acc))
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			tc := diffCase{cfg: DefaultConfig(), grid: 2, block: 33, setup: bigDiffSetup(2, 33), build: build}
			if _, err := runDiff(t, tc); err != nil {
				t.Fatalf("launch failed: %v", err)
			}
		})
	}
}

// TestWarpCrashLowestTidWins crashes two threads of the same warp at the
// same instruction (tid 5 and tid 9 both divide by zero). Threads run in
// (block, thread) order, so the attributed thread must be the lowest tid,
// with identical partial cycle accounting on every engine.
func TestWarpCrashLowestTidWins(t *testing.T) {
	_, err := runDiff(t, diffCase{cfg: DefaultConfig(), grid: 2, block: 16,
		setup: bigDiffSetup(2, 16),
		build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			den := b.Def("den", kir.XMul(kir.XSub(kir.TID(), kir.I(5)), kir.XSub(kir.TID(), kir.I(9))))
			v := b.Def("v", kir.XDiv(kir.I(100), kir.V(den)))
			b.Store(out, kir.GlobalID(), kir.V(v))
		}})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CrashError, got %v", err)
	}
	if ce.Block != 0 || ce.Thread != 5 {
		t.Fatalf("crash attributed to block %d thread %d, want block 0 thread 5 (lowest tid)", ce.Block, ce.Thread)
	}
}

// TestWarpHangAttribution hangs exactly one thread (tid 3 loops forever)
// while its warp siblings exit the While immediately. Every engine must
// report the same HangError — thread, block, and step count.
func TestWarpHangAttribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StepBudget = 256
	_, err := runDiff(t, diffCase{cfg: cfg, grid: 1, block: 16,
		setup: bigDiffSetup(1, 16),
		build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			n := b.Def("n", kir.I(1))
			b.While(kir.XLAnd(kir.XEq(kir.TID(), kir.I(3)), kir.XGt(kir.V(n), kir.I(0))), func() {
				b.Set(n, kir.XAdd(kir.V(n), kir.I(1)))
			})
			b.Store(out, kir.GlobalID(), kir.V(n))
		}})
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("want *HangError, got %v", err)
	}
	if he.Block != 0 || he.Thread != 3 {
		t.Fatalf("hang attributed to block %d thread %d, want block 0 thread 3", he.Block, he.Thread)
	}
}

// TestPerLaunchStepBudget pins the hang rule from the engine side. The
// kernel's loop bound is probed, so a fault makes the odd threads run k
// times their clean length and then finish. Under a per-launch budget of
// T = 10 times the clean launch's longest thread, k below T still
// classifies by its output and k above T is a HangError — the same one,
// step count included, from Device.Launch on every engine and from
// Record+Resume — although the device-wide backstop would have let it
// finish.
func TestPerLaunchStepBudget(t *testing.T) {
	tc := diffCase{cfg: DefaultConfig(), grid: 2, block: 8, setup: bigDiffSetup(2, 8),
		build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.I32)
			n := b.Def("n", kir.I(16))
			b.Emit(kir.FIProbe{Site: 0, Target: n, HW: kir.HWALU})
			s := b.Def("s", kir.I(0))
			b.For("i", kir.I(0), kir.V(n), func(i *kir.Var) {
				b.Set(s, kir.XAdd(kir.V(s), kir.V(i)))
			})
			b.Store(out, kir.GlobalID(), kir.V(s))
		}}
	clean, err := runDiff(t, tc)
	if err != nil || clean.MaxSteps == 0 {
		t.Fatalf("clean launch: MaxSteps %d, err %v", clean.MaxSteps, err)
	}
	tc.stepBudget = 10 * clean.MaxSteps

	tc.flipMask = 1 << 6 // n = 80: 5x the clean trip count
	slow, err := runDiff(t, tc)
	if err != nil {
		t.Fatalf("a thread 5x its clean length must finish under a 10x budget: %v", err)
	}
	if slow.MaxSteps <= 4*clean.MaxSteps || slow.MaxSteps >= tc.stepBudget {
		t.Fatalf("slow launch's longest thread ran %d steps, clean %d", slow.MaxSteps, clean.MaxSteps)
	}

	tc.flipMask = 1 << 9 // n = 528: 33x
	_, err = runDiff(t, tc)
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("a thread 33x its clean length under a 10x budget: %v, want *HangError", err)
	}
	if he.Block != 0 || he.Thread != 1 || he.Steps != tc.stepBudget+1 || he.Budget != tc.stepBudget {
		t.Fatalf("hang %+v, want block 0 thread 1 after %d steps", he, tc.stepBudget+1)
	}

	tc.stepBudget = 0 // the backstop alone lets the same fault finish
	if _, err := runDiff(t, tc); err != nil {
		t.Fatalf("the same fault under Config.StepBudget: %v", err)
	}
}

// TestMemFaultLaunchStaysDeterministic runs a launch with a memory-fault
// overlay whose result depends on the order loads observe it. Launches
// evaluate in serial (block, thread) order, so repeated runs — and the
// tree-walker oracle — must reproduce the same words.
func TestMemFaultLaunchStaysDeterministic(t *testing.T) {
	b := kir.NewBuilder("memfault")
	out := b.PtrParam("out", kir.U32)
	v := b.Def("v", kir.Load{Base: out, Index: kir.GlobalID()})
	b.Store(out, kir.GlobalID(), kir.XAdd(kir.V(v), kir.ConstU32(1)))
	k := b.Kernel()
	run := func(e engine) []uint32 {
		d := New(DefaultConfig())
		buf := d.Alloc("out", kir.U32, 512)
		calls := uint32(0)
		d.overlay = func(addr, val uint32) uint32 {
			calls++
			return val ^ (calls & 1) // value depends on the observation order
		}
		if _, err := d.launchOn(e, k, LaunchSpec{Grid: 8, Block: 64, Args: []Arg{BufArg(buf)}}); err != nil {
			t.Fatal(err)
		}
		return d.ReadWords(buf)
	}
	want := run(engineFused)
	if !reflect.DeepEqual(want, run(engineFused)) {
		t.Fatal("mem-fault launch is not reproducible run to run")
	}
	if !reflect.DeepEqual(want, run(engineUnfused)) {
		t.Fatal("mem-fault launch observes the overlay in a different order than the unfused stream")
	}
	if !reflect.DeepEqual(want, run(engineTree)) {
		t.Fatal("mem-fault launch observes the overlay in a different order than the tree-walker")
	}
	for i, w := range want {
		if w != uint32(i+1)&1+1 {
			t.Fatalf("word %d = %d: overlay not observed in global-thread order", i, w)
		}
	}
}

// launchAllocKernel builds a loop kernel plus a ready default-config
// device/spec for allocation and benchmark measurements.
func launchAllocKernel(tb testing.TB, grid, block int) (*Device, *kir.Kernel, LaunchSpec) {
	tb.Helper()
	b := kir.NewBuilder(fmt.Sprintf("alloc%dx%d", grid, block))
	out := b.PtrParam("out", kir.F32)
	acc := b.Def("acc", kir.F(0))
	b.For("i", kir.I(0), kir.I(16), func(i *kir.Var) {
		b.Accum(acc, kir.XMul(kir.ToF32(kir.V(i)), kir.F(0.5)))
	})
	b.Emit(kir.ProfileSample{Detector: 0, Accum: acc})
	b.Store(out, kir.GlobalID(), kir.V(acc))
	k := b.Kernel()
	d := New(DefaultConfig())
	buf := d.Alloc("out", kir.F32, grid*block)
	return d, k, LaunchSpec{Grid: grid, Block: block, Args: []Arg{BufArg(buf)}}
}

// sampleCounter is a profiler-shaped hook: it only observes.
type sampleCounter struct {
	NopHooks
	n int
}

func (h *sampleCounter) ProfileSample(ThreadCtx, int, float64) { h.n++ }

// TestLaunchAllocsScaleWithWorkersNotThreads pins the warm-launch
// allocation budget: a launch is one worker — the caller — so it allocates
// a small constant (the Result and the pooled register-file handle),
// independent of the thread count, hooked or not. The hooked rows are the
// profile-launch shape: a pure-observer hook on DefaultConfig() over a
// >= 256-thread grid is delivered live, with nothing buffered per callback.
func TestLaunchAllocsScaleWithWorkersNotThreads(t *testing.T) {
	measure := func(grid, block int, hooks *sampleCounter) float64 {
		d, k, spec := launchAllocKernel(t, grid, block)
		if hooks != nil {
			spec.Hooks = hooks
		}
		for i := 0; i < 3; i++ { // warm the program cache and the reg pool
			if _, err := d.Launch(k, spec); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := d.Launch(k, spec); err != nil {
				t.Fatal(err)
			}
		})
	}

	for _, shape := range []struct{ grid, block int }{{8, 32}, {8, 64}, {8, 128}} {
		// Under -race pooled register files are dropped at random (see
		// raceEnabled): the launches run, their counts are not judged.
		if clean := measure(shape.grid, shape.block, nil); clean > 4 && !raceEnabled {
			t.Fatalf("warm %dx%d launch allocates %.1f objects/launch, want <= 4", shape.grid, shape.block, clean)
		}
		hooks := &sampleCounter{}
		if hooked := measure(shape.grid, shape.block, hooks); hooked > 4 && !raceEnabled {
			t.Fatalf("warm hooked %dx%d launch allocates %.1f objects/launch, want <= 4", shape.grid, shape.block, hooked)
		}
		if hooks.n == 0 {
			t.Fatalf("%dx%d: profiler hook never fired", shape.grid, shape.block)
		}
	}
}

func BenchmarkLaunch(b *testing.B) {
	d, k, spec := launchAllocKernel(b, 64, 64)
	if _, err := d.Launch(k, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(k, spec); err != nil {
			b.Fatal(err)
		}
	}
}
