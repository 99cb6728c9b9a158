package gpu

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"hauberk/internal/kir"
)

func newTestDevice() *Device { return New(DefaultConfig()) }

// launchExpr runs a one-thread kernel computing out[0] = e over the given
// pre-defined statements and returns the raw result word.
func launchExpr(t *testing.T, build func(b *kir.Builder, out *kir.Var)) (uint32, error) {
	t.Helper()
	b := kir.NewBuilder("t")
	out := b.PtrParam("out", kir.F32)
	build(b, out)
	k := b.Kernel()
	if err := kir.Validate(k); err != nil {
		t.Fatalf("kernel invalid: %v", err)
	}
	d := newTestDevice()
	buf := d.Alloc("out", kir.F32, 4)
	_, err := d.Launch(k, LaunchSpec{Grid: 1, Block: 1, Args: []Arg{BufArg(buf)}})
	return d.ReadWords(buf)[0], err
}

func TestIntegerArithmetic(t *testing.T) {
	cases := []struct {
		name string
		e    kir.Expr
		want int32
	}{
		{"add", kir.XAdd(kir.I(3), kir.I(4)), 7},
		{"sub", kir.XSub(kir.I(3), kir.I(4)), -1},
		{"mul-wrap", kir.XMul(kir.I(1<<30), kir.I(4)), 0},
		{"div-trunc", kir.XDiv(kir.I(-7), kir.I(2)), -3},
		{"rem", kir.XRem(kir.I(7), kir.I(3)), 1},
		{"shr-arith", kir.XShr(kir.I(-8), kir.I(1)), -4},
		{"shl-mask", kir.Bin{Op: kir.Shl, L: kir.I(1), R: kir.I(33)}, 2},
		{"abs", kir.XAbs(kir.I(-5)), 5},
		{"min", kir.XMin(kir.I(2), kir.I(-9)), -9},
		{"max", kir.XMax(kir.I(2), kir.I(-9)), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := launchExpr(t, func(b *kir.Builder, out *kir.Var) {
				v := b.Def("v", tc.e)
				b.Store(out, kir.I(0), kir.Bitcast{To: kir.F32, X: kir.V(v)})
			})
			if err != nil {
				t.Fatal(err)
			}
			if int32(w) != tc.want {
				t.Fatalf("got %d, want %d", int32(w), tc.want)
			}
		})
	}
}

func TestFPDivideByZeroYieldsInfinity(t *testing.T) {
	// Section II.A: divide-by-zero in FP does not raise an exception; it
	// returns an infinite value.
	w, err := launchExpr(t, func(b *kir.Builder, out *kir.Var) {
		v := b.Def("v", kir.XDiv(kir.F(1), kir.F(0)))
		b.Store(out, kir.I(0), kir.V(v))
	})
	if err != nil {
		t.Fatalf("FP division by zero must not crash: %v", err)
	}
	if f := math.Float32frombits(w); !math.IsInf(float64(f), 1) {
		t.Fatalf("1/0 = %v, want +Inf", f)
	}
}

func TestIntegerDivideByZeroCrashes(t *testing.T) {
	_, err := launchExpr(t, func(b *kir.Builder, out *kir.Var) {
		z := b.Def("z", kir.XSub(kir.I(1), kir.I(1)))
		v := b.Def("v", kir.XDiv(kir.I(1), kir.V(z)))
		b.Store(out, kir.I(0), kir.Bitcast{To: kir.F32, X: kir.V(v)})
	})
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want CrashError, got %v", err)
	}
}

func TestConvertSaturation(t *testing.T) {
	cases := []struct {
		in   float32
		want int32
	}{
		{3.9, 3},
		{-3.9, -3},
		{1e20, math.MaxInt32},
		{-1e20, math.MinInt32},
		{float32(math.NaN()), 0},
	}
	for _, tc := range cases {
		w, err := launchExpr(t, func(b *kir.Builder, out *kir.Var) {
			v := b.Def("v", kir.ToI32(kir.F(tc.in)))
			b.Store(out, kir.I(0), kir.Bitcast{To: kir.F32, X: kir.V(v)})
		})
		if err != nil {
			t.Fatal(err)
		}
		if int32(w) != tc.want {
			t.Fatalf("toI32(%g) = %d, want %d", tc.in, int32(w), tc.want)
		}
	}
}

func TestGPUModeWildAccessIsSilentCPUModeCrashes(t *testing.T) {
	build := func() (*kir.Kernel, func(*Device) []Arg) {
		b := kir.NewBuilder("wild")
		in := b.PtrParam("in", kir.F32)
		out := b.PtrParam("out", kir.F32)
		// Read far beyond the buffer but inside the GPU address space.
		v := b.Def("v", kir.Ld(in, kir.I(500_000)))
		b.Store(out, kir.I(0), kir.V(v))
		k := b.Kernel()
		return k, func(d *Device) []Arg {
			inB := d.Alloc("in", kir.F32, 16)
			outB := d.Alloc("out", kir.F32, 16)
			return []Arg{BufArg(inB), BufArg(outB)}
		}
	}

	k, setup := build()
	gpuDev := New(DefaultConfig())
	_, err := gpuDev.Launch(k, LaunchSpec{Grid: 1, Block: 1, Args: setup(gpuDev)})
	if err != nil {
		t.Fatalf("GPU mode should silently tolerate the wild read: %v", err)
	}

	cfg := DefaultConfig()
	cfg.Mode = ModeCPU
	cpuDev := New(cfg)
	_, err = cpuDev.Launch(k, LaunchSpec{Grid: 1, Block: 1, Args: setup(cpuDev)})
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("CPU mode should segfault on the wild read, got %v", err)
	}
}

func TestGPUAddressSpaceBoundaryCrashes(t *testing.T) {
	b := kir.NewBuilder("oob")
	out := b.PtrParam("out", kir.F32)
	b.Store(out, kir.I(int32(VirtualWords)), kir.F(1))
	k := b.Kernel()
	d := newTestDevice()
	buf := d.Alloc("out", kir.F32, 4)
	_, err := d.Launch(k, LaunchSpec{Grid: 1, Block: 1, Args: []Arg{BufArg(buf)}})
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("access beyond the device address space must crash, got %v", err)
	}
}

func TestGuardPagesSeparateBuffersInCPUMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeCPU
	d := New(cfg)
	a := d.Alloc("a", kir.I32, 8)
	bBuf := d.Alloc("b", kir.I32, 8)
	if bBuf.Off-a.Off < PageWords {
		t.Fatalf("no guard page between allocations: %d vs %d", a.Off, bBuf.Off)
	}

	b := kir.NewBuilder("guard")
	in := b.PtrParam("in", kir.I32)
	out := b.PtrParam("out", kir.I32)
	// Index past the buffer's own (page-granular) mapping into the guard
	// page between the two allocations: within one page of the buffer the
	// protection unit cannot catch the error, beyond it it can.
	v := b.Def("v", kir.Ld(in, kir.I(PageWords+512)))
	b.Store(out, kir.I(0), kir.V(v))
	_, err := d.Launch(b.Kernel(), LaunchSpec{Grid: 1, Block: 1, Args: []Arg{BufArg(a), BufArg(bBuf)}})
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("guard-page access must segfault in CPU mode, got %v", err)
	}
}

func TestHangDetection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StepBudget = 10_000
	d := New(cfg)
	b := kir.NewBuilder("hang")
	out := b.PtrParam("out", kir.I32)
	x := b.Local("x", kir.I(1))
	b.While(kir.XGt(kir.V(x), kir.I(0)), func() {
		b.Set(x, kir.XAdd(kir.V(x), kir.I(1))) // never terminates (wraps eventually but slowly)
	})
	b.Store(out, kir.I(0), kir.V(x))
	buf := d.Alloc("out", kir.I32, 4)
	_, err := d.Launch(b.Kernel(), LaunchSpec{Grid: 1, Block: 1, Args: []Arg{BufArg(buf)}})
	var hang *HangError
	if !errors.As(err, &hang) {
		t.Fatalf("want HangError, got %v", err)
	}
}

func TestSpillPenaltyChargedAboveRegisterFile(t *testing.T) {
	mk := func(nvars int) float64 {
		b := kir.NewBuilder("regs")
		out := b.PtrParam("out", kir.F32)
		vars := make([]*kir.Var, nvars)
		for i := range vars {
			vars[i] = b.Def("v", kir.F(float32(i)))
		}
		acc := b.Local("acc", kir.F(0))
		b.For("i", kir.I(0), kir.I(32), func(i *kir.Var) {
			for _, v := range vars {
				b.Accum(acc, kir.V(v))
			}
		})
		b.Store(out, kir.I(0), kir.V(acc))
		d := newTestDevice()
		buf := d.Alloc("out", kir.F32, 4)
		res, err := d.Launch(b.Kernel(), LaunchSpec{Grid: 1, Block: 1, Args: []Arg{BufArg(buf)}})
		if err != nil {
			t.Fatal(err)
		}
		// Normalize per accumulated variable so the workloads compare.
		return res.Cycles / float64(nvars)
	}
	light := mk(4)
	heavy := mk(40) // way past the 20-register file
	if heavy <= light*1.05 {
		t.Fatalf("per-variable cycles %f (heavy) vs %f (light): spill penalty missing", heavy, light)
	}
}

func TestLoopCycleAttribution(t *testing.T) {
	b := kir.NewBuilder("attr")
	out := b.PtrParam("out", kir.F32)
	acc := b.Local("acc", kir.F(0))
	b.For("i", kir.I(0), kir.I(100), func(i *kir.Var) {
		b.Accum(acc, kir.ToF32(kir.V(i)))
	})
	b.Store(out, kir.I(0), kir.V(acc))
	d := newTestDevice()
	buf := d.Alloc("out", kir.F32, 4)
	res, err := d.Launch(b.Kernel(), LaunchSpec{Grid: 1, Block: 1, Args: []Arg{BufArg(buf)}})
	if err != nil {
		t.Fatal(err)
	}
	frac := res.LoopCycles / res.Cycles
	if frac < 0.7 {
		t.Fatalf("loop fraction %.2f too low for a loop-dominated kernel", frac)
	}
	if math.Abs(res.Cycles-(res.LoopCycles+res.NonLoopCycles)) > 1e-9 {
		t.Fatalf("cycle split does not sum: %f != %f + %f", res.Cycles, res.LoopCycles, res.NonLoopCycles)
	}
}

func TestSnapshotRestore(t *testing.T) {
	d := newTestDevice()
	buf := d.Alloc("buf", kir.I32, 8)
	d.WriteI32(buf, 0, []int32{1, 2, 3, 4})
	snap := d.Snapshot()
	d.WriteI32(buf, 0, []int32{9, 9, 9, 9})
	d.Restore(snap)
	got := d.ReadI32(buf, 0, 4)
	for i, v := range []int32{1, 2, 3, 4} {
		if got[i] != v {
			t.Fatalf("restore failed at %d: %d", i, got[i])
		}
	}
}

func TestMemFaultOverlay(t *testing.T) {
	d := newTestDevice()
	in := d.Alloc("in", kir.F32, 4)
	out := d.Alloc("out", kir.F32, 4)
	d.WriteF32(in, 0, []float32{1})
	d.overlay = func(addr, val uint32) uint32 { return val ^ (1 << 30) }

	b := kir.NewBuilder("mf")
	inP := b.PtrParam("in", kir.F32)
	outP := b.PtrParam("out", kir.F32)
	v := b.Def("v", kir.Ld(inP, kir.I(0)))
	b.Store(outP, kir.I(0), kir.V(v))
	if _, err := d.Launch(b.Kernel(), LaunchSpec{Grid: 1, Block: 1, Args: []Arg{BufArg(in), BufArg(out)}}); err != nil {
		t.Fatal(err)
	}
	if got := d.ReadF32(out, 0, 1)[0]; got == 1 {
		t.Fatalf("memory fault overlay not applied")
	}
}

// TestVolatileRegion: a store into a volatile buffer never reads back, on
// any engine or through Record+Resume; the tick behind it is device state
// that Snapshot and Restore carry.
func TestVolatileRegion(t *testing.T) {
	tc := diffCase{cfg: DefaultConfig(), grid: 2, block: 8,
		setup: func(d *Device, k *kir.Kernel) []Arg {
			args := bigDiffSetup(2, 8)(d, k)
			d.SetVolatile(args[1].Buf)
			return args
		},
		build: func(b *kir.Builder) {
			out := b.PtrParam("out", kir.U32)
			vol := b.PtrParam("vol", kir.U32)
			b.Store(vol, kir.GlobalID(), kir.ConstU32(7))
			first := b.Def("first", kir.Ld(vol, kir.GlobalID()))
			second := b.Def("second", kir.Ld(vol, kir.GlobalID()))
			b.Store(out, kir.GlobalID(), kir.XXor(kir.V(first), kir.V(second)))
		}}
	tc, k, run := diffEngines(t, tc)
	for i, w := range run.arenas[0][:16] {
		if w == 0 {
			t.Fatalf("thread %d read the same word twice from the volatile buffer", i)
		}
	}

	d := New(tc.cfg)
	spec := LaunchSpec{Grid: tc.grid, Block: tc.block, Args: tc.setup(d, k)}
	snap := d.Snapshot()
	launch := func() []uint32 {
		if _, err := d.Launch(k, spec); err != nil {
			t.Fatal(err)
		}
		return d.ReadWords(spec.Args[0].Buf)
	}
	first := launch()
	if reflect.DeepEqual(first, launch()) {
		t.Fatal("a second launch drew the same volatile values: the tick did not advance")
	}
	d.Restore(snap)
	if !reflect.DeepEqual(first, launch()) {
		t.Fatal("Restore did not reinstate the volatile tick")
	}
}

func TestLaunchArgValidation(t *testing.T) {
	b := kir.NewBuilder("args")
	out := b.PtrParam("out", kir.F32)
	b.Store(out, kir.I(0), kir.F(1))
	k := b.Kernel()
	d := newTestDevice()

	_, err := d.Launch(k, LaunchSpec{Grid: 1, Block: 1})
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("want LaunchError for missing args, got %v", err)
	}
	_, err = d.Launch(k, LaunchSpec{Grid: 0, Block: 1, Args: []Arg{I32Arg(0)}})
	if !errors.As(err, &le) {
		t.Fatalf("want LaunchError for zero grid, got %v", err)
	}
	d.Disabled = true
	buf := d.Alloc("out", kir.F32, 4)
	_, err = d.Launch(k, LaunchSpec{Grid: 1, Block: 1, Args: []Arg{BufArg(buf)}})
	if !errors.As(err, &le) {
		t.Fatalf("want LaunchError for disabled device, got %v", err)
	}
}

func TestThreadIndexing(t *testing.T) {
	b := kir.NewBuilder("idx")
	out := b.PtrParam("out", kir.I32)
	tid := b.Def("tid", kir.GlobalID())
	b.Store(out, kir.V(tid), kir.V(tid))
	d := newTestDevice()
	buf := d.Alloc("out", kir.I32, 64)
	if _, err := d.Launch(b.Kernel(), LaunchSpec{Grid: 4, Block: 16, Args: []Arg{BufArg(buf)}}); err != nil {
		t.Fatal(err)
	}
	got := d.ReadI32(buf, 0, 64)
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("thread %d wrote %d", i, v)
		}
	}
}

func TestPointerArithmetic(t *testing.T) {
	b := kir.NewBuilder("ptr")
	in := b.PtrParam("in", kir.I32)
	out := b.PtrParam("out", kir.I32)
	p := b.DefPtr("p", kir.I32, kir.XAdd(kir.V(in), kir.I(2)))
	v := b.Def("v", kir.Ld(p, kir.I(1))) // in[3]
	b.Store(out, kir.I(0), kir.V(v))
	d := newTestDevice()
	inB := d.Alloc("in", kir.I32, 8)
	outB := d.Alloc("out", kir.I32, 8)
	d.WriteI32(inB, 0, []int32{10, 11, 12, 13})
	if _, err := d.Launch(b.Kernel(), LaunchSpec{Grid: 1, Block: 1, Args: []Arg{BufArg(inB), BufArg(outB)}}); err != nil {
		t.Fatal(err)
	}
	if got := d.ReadI32(outB, 0, 1)[0]; got != 13 {
		t.Fatalf("pointer arithmetic read %d, want 13", got)
	}
}
