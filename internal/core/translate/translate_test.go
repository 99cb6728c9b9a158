package translate

import (
	"math/rand"
	"strings"
	"testing"

	"hauberk/internal/core/hrt"
	"hauberk/internal/gpu"
	"hauberk/internal/kir"
)

// fig8Kernel is the shape of Figure 8: non-loop definitions, a loop that
// reads (but does not update) one of them, and a kernel-exit store.
func fig8Kernel() *kir.Kernel {
	b := kir.NewBuilder("fig8")
	in := b.PtrParam("in", kir.F32)
	out := b.PtrParam("out", kir.F32)
	n := b.Param("n", kir.I32)
	tid := b.Def("tid", kir.GlobalID())
	r := b.Def("r", kir.XMul(kir.ToF32(kir.V(tid)), kir.F(2)))
	acc := b.Local("acc", kir.F(0))
	b.For("i", kir.I(0), kir.V(n), func(i *kir.Var) {
		x := b.Def("x", kir.XMul(kir.Ld(in, kir.V(i)), kir.V(r)))
		b.Accum(acc, kir.V(x))
	})
	b.Store(out, kir.V(tid), kir.V(acc))
	return b.Kernel()
}

func instrument(t *testing.T, k *kir.Kernel, opts Options) *Result {
	t.Helper()
	res, err := Instrument(k, opts)
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	return res
}

func TestFig8cChecksumStructure(t *testing.T) {
	res := instrument(t, fig8Kernel(), NewOptions(ModeFT))
	src := kir.Print(res.Kernel)

	// The shared checksum is defined once, XORed with each protected
	// variable twice, and validated at the kernel exit.
	if !strings.Contains(src, "u32 hbk_chksum = 0u;") {
		t.Fatalf("missing checksum definition:\n%s", src)
	}
	if n := strings.Count(src, "hbk_chksum = (hbk_chksum ^"); n%2 != 0 || n == 0 {
		t.Fatalf("checksum updates must pair up, got %d:\n%s", n, src)
	}
	if !strings.Contains(src, "if ((hbk_chksum != 0u))") {
		t.Fatalf("missing exit validation:\n%s", src)
	}
	// Duplicated computation with an immediate compare for variable r.
	if !strings.Contains(src, "f32 hbk_dup_r = ((f32)tid * 2f);") {
		t.Fatalf("missing duplicate of r:\n%s", src)
	}
	idxDup := strings.Index(src, "hbk_dup_r")
	idxCheck := strings.Index(src, "__bits<u32>(r) != __bits<u32>(hbk_dup_r)")
	if idxCheck < idxDup {
		t.Fatalf("compare must immediately follow the duplicate")
	}
	// r is used inside (and not updated by) the loop, so its second XOR
	// goes after the loop — i.e. after the range-check call.
	loopEnd := strings.Index(src, "HauberkCheckRange")
	lastRXor := strings.LastIndex(src, "__bits<u32>(r)")
	if lastRXor < loopEnd {
		t.Fatalf("second XOR of r must come after the loop:\n%s", src)
	}
}

func TestFig8LoopDetectorStructure(t *testing.T) {
	res := instrument(t, fig8Kernel(), NewOptions(ModeFT))
	src := kir.Print(res.Kernel)

	// acc is self-accumulating: no added accumulation inside the loop,
	// but an iteration counter and both post-loop checks appear.
	if !strings.Contains(src, "hbk_iter = (hbk_iter + 1)") {
		t.Fatalf("missing iteration counter:\n%s", src)
	}
	if !strings.Contains(src, "HauberkCheckRange(cb, ") {
		t.Fatalf("missing range check:\n%s", src)
	}
	if !strings.Contains(src, "HauberkCheckEqual(cb, ") {
		t.Fatalf("missing iteration-count check:\n%s", src)
	}
	if strings.Contains(src, "hbk_acc_acc") {
		t.Fatalf("self-accumulator must not get an extra accumulator:\n%s", src)
	}
}

func TestVariableUpdatedInLoopGetsPreLoopXor(t *testing.T) {
	// acc is defined in non-loop code and updated inside the loop: its
	// second checksum XOR must appear before the loop (the "uncovered
	// window"), leaving loop protection to the loop detector.
	res := instrument(t, fig8Kernel(), NewOptions(ModeFT))
	src := kir.Print(res.Kernel)
	loopStart := strings.Index(src, "for (int i")
	const xorPat = "(hbk_chksum ^ __bits<u32>(acc))"
	accXors := []int{}
	for idx := strings.Index(src, xorPat); idx >= 0; {
		accXors = append(accXors, idx)
		next := strings.Index(src[idx+1:], xorPat)
		if next < 0 {
			break
		}
		idx = idx + 1 + next
	}
	if len(accXors) != 2 {
		t.Fatalf("acc must be XORed exactly twice, got %d", len(accXors))
	}
	if accXors[1] > loopStart {
		t.Fatalf("acc's closing XOR must precede the loop")
	}
}

func TestParameterChecksumAtEntryAndExit(t *testing.T) {
	res := instrument(t, fig8Kernel(), NewOptions(ModeFT))
	src := kir.Print(res.Kernel)
	first := strings.Index(src, "__bits<u32>(in)")
	last := strings.LastIndex(src, "__bits<u32>(in)")
	validate := strings.Index(src, "if ((hbk_chksum != 0u))")
	if first == last {
		t.Fatalf("parameter must be XORed twice")
	}
	if !(first < strings.Index(src, "i32 tid") && last < validate && last > strings.Index(src, "out[tid]")) {
		t.Fatalf("parameter XORs must bracket the kernel body:\n%s", src)
	}
}

func TestSelectionPrefersLargestBackwardDependency(t *testing.T) {
	// Two loop outputs: "small" built from one input, "big" from a chain;
	// with no self-accumulators, the loop detector must pick "big".
	b := kir.NewBuilder("sel")
	in := b.PtrParam("in", kir.F32)
	out := b.PtrParam("out", kir.F32)
	n := b.Param("n", kir.I32)
	b.For("i", kir.I(0), kir.V(n), func(i *kir.Var) {
		a := b.Def("a", kir.Ld(in, kir.V(i)))
		bb := b.Def("b", kir.XMul(kir.V(a), kir.V(a)))
		c := b.Def("c", kir.XAdd(kir.V(bb), kir.Ld(in, kir.XAdd(kir.V(i), kir.I(1)))))
		big := b.Def("big", kir.XMul(kir.V(c), kir.V(bb)))
		small := b.Def("small", kir.ToF32(kir.V(i)))
		b.Store(out, kir.XMul(kir.V(i), kir.I(2)), kir.V(big))
		b.Store(out, kir.XAdd(kir.XMul(kir.V(i), kir.I(2)), kir.I(1)), kir.V(small))
	})
	res := instrument(t, b.Kernel(), NewOptions(ModeFT))
	var selected []string
	for _, d := range res.Detectors {
		if d.VarName != "<nonloop>" && d.VarName != "<iteration count>" {
			selected = append(selected, d.VarName)
		}
	}
	if len(selected) != 1 || selected[0] != "big" {
		t.Fatalf("selected %v, want [big]", selected)
	}
}

func TestMaxVarSelectsMoreAndExcludesCone(t *testing.T) {
	b := kir.NewBuilder("mv")
	in := b.PtrParam("in", kir.F32)
	out := b.PtrParam("out", kir.F32)
	n := b.Param("n", kir.I32)
	b.For("i", kir.I(0), kir.V(n), func(i *kir.Var) {
		a := b.Def("a", kir.Ld(in, kir.V(i)))
		deep := b.Def("deep", kir.XMul(kir.V(a), kir.V(a)))
		indep := b.Def("indep", kir.XAdd(kir.ToF32(kir.V(i)), kir.F(1)))
		b.Store(out, kir.V(i), kir.XAdd(kir.V(deep), kir.V(indep)))
	})
	opts := NewOptions(ModeFT)
	opts.MaxVar = 2
	res := instrument(t, b.Kernel(), opts)
	names := map[string]bool{}
	for _, d := range res.Detectors {
		names[d.VarName] = true
	}
	if !names["deep"] {
		t.Fatalf("deep (largest dependency) must be selected: %v", res.Detectors)
	}
	// 'a' feeds deep, so after deep is selected it is excluded; the second
	// pick must be the independent variable.
	if names["a"] {
		t.Fatalf("a is in deep's backward cone and must be excluded")
	}
	if !names["indep"] {
		t.Fatalf("indep should be the second selection: %v", res.Detectors)
	}
	if res.LoopProtected != 2 {
		t.Fatalf("LoopProtected = %d, want 2", res.LoopProtected)
	}
}

func TestSiteNumberingIdenticalAcrossModes(t *testing.T) {
	profiler := instrument(t, fig8Kernel(), NewOptions(ModeProfiler))
	fi := instrument(t, fig8Kernel(), NewOptions(ModeFI))
	fift := instrument(t, fig8Kernel(), NewOptions(ModeFIFT))
	if len(profiler.Sites) != len(fi.Sites) || len(fi.Sites) != len(fift.Sites) {
		t.Fatalf("site counts differ: %d / %d / %d", len(profiler.Sites), len(fi.Sites), len(fift.Sites))
	}
	for i := range fi.Sites {
		if profiler.Sites[i].VarName != fi.Sites[i].VarName || fi.Sites[i].VarName != fift.Sites[i].VarName {
			t.Fatalf("site %d names differ: %s / %s / %s", i,
				profiler.Sites[i].VarName, fi.Sites[i].VarName, fift.Sites[i].VarName)
		}
		if profiler.Sites[i].HW != fift.Sites[i].HW {
			t.Fatalf("site %d hw differ", i)
		}
	}
}

func TestModeMatrix(t *testing.T) {
	k := fig8Kernel()
	baselineStmts := countStmts(k.Body)

	prof := instrument(t, k, NewOptions(ModeProfiler))
	profSrc := kir.Print(prof.Kernel)
	if strings.Contains(profSrc, "HauberkCheckRange") || strings.Contains(profSrc, "hbk_chksum") {
		t.Fatalf("profiler binary must not contain FT checks:\n%s", profSrc)
	}
	if !strings.Contains(profSrc, "HauberkProfile") || !strings.Contains(profSrc, "HauberkCount") {
		t.Fatalf("profiler binary must profile ranges and exec counts:\n%s", profSrc)
	}

	fi := instrument(t, k, NewOptions(ModeFI))
	fiSrc := kir.Print(fi.Kernel)
	if !strings.Contains(fiSrc, "HauberkFI(") {
		t.Fatalf("FI binary must contain probes")
	}
	if strings.Contains(fiSrc, "hbk_chksum") {
		t.Fatalf("FI binary must not contain FT code")
	}

	fift := instrument(t, k, NewOptions(ModeFIFT))
	fiftSrc := kir.Print(fift.Kernel)
	for _, want := range []string{"HauberkFI(", "hbk_chksum", "HauberkCheckRange"} {
		if !strings.Contains(fiftSrc, want) {
			t.Fatalf("FI&FT binary missing %q", want)
		}
	}

	none := instrument(t, k, NewOptions(ModeNone))
	if countStmts(none.Kernel.Body) != baselineStmts {
		t.Fatalf("baseline clone must be untransformed")
	}
}

func TestHWClassification(t *testing.T) {
	res := instrument(t, fig8Kernel(), NewOptions(ModeFI))
	byName := map[string]Site{}
	for _, s := range res.Sites {
		byName[s.VarName] = s
	}
	if byName["r"].HW != kir.HWFPU {
		t.Errorf("r uses the FPU, got %s", byName["r"].HW)
	}
	if byName["tid"].HW != kir.HWALU {
		t.Errorf("tid uses the ALU, got %s", byName["tid"].HW)
	}
	if byName["i"].HW != kir.HWScheduler {
		t.Errorf("loop iterator models scheduler faults, got %s", byName["i"].HW)
	}
	if !byName["x"].InLoop || byName["r"].InLoop {
		t.Errorf("loop placement misclassified")
	}
}

func TestInstrumentRejectsInvalidKernel(t *testing.T) {
	k := kir.NewKernel("bad")
	v := k.NewVar("v", kir.I32)
	w := k.NewVar("w", kir.I32)
	k.Body = kir.Block{kir.Define{Dst: v, E: kir.VarRef{V: w}}}
	if _, err := Instrument(k, NewOptions(ModeFT)); err == nil {
		t.Fatalf("want validation error")
	}
}

// --- randomized semantic-preservation property ---------------------------

// randomKernel builds a random but valid kernel: a few non-loop defines, a
// counted loop with a dataflow chain and accumulator, and stores.
func randomKernel(rng *rand.Rand) (*kir.Kernel, int) {
	b := kir.NewBuilder("rand")
	in := b.PtrParam("in", kir.F32)
	out := b.PtrParam("out", kir.F32)
	n := b.Param("n", kir.I32)
	tid := b.Def("tid", kir.GlobalID())

	pool := []*kir.Var{tid}
	fpPool := []*kir.Var{}
	nNonLoop := 2 + rng.Intn(4)
	for i := 0; i < nNonLoop; i++ {
		var e kir.Expr
		if len(fpPool) > 0 && rng.Intn(2) == 0 {
			e = kir.XAdd(kir.V(fpPool[rng.Intn(len(fpPool))]), kir.F(float32(rng.Intn(5))+0.5))
		} else {
			e = kir.XMul(kir.ToF32(kir.V(pool[rng.Intn(len(pool))])), kir.F(float32(rng.Intn(3))+0.25))
		}
		v := b.Def("nl", e)
		fpPool = append(fpPool, v)
	}
	acc := b.Local("acc", kir.F(0))
	b.For("i", kir.I(0), kir.V(n), func(i *kir.Var) {
		x := b.Def("x", kir.Ld(in, kir.V(i)))
		cur := x
		depth := 1 + rng.Intn(3)
		for d := 0; d < depth; d++ {
			src := cur
			if rng.Intn(3) == 0 {
				src = fpPool[rng.Intn(len(fpPool))]
			}
			cur = b.Def("c", kir.XAdd(kir.XMul(kir.V(cur), kir.F(0.5)), kir.V(src)))
		}
		b.Accum(acc, kir.V(cur))
	})
	b.Store(out, kir.V(tid), kir.XAdd(kir.V(acc), kir.V(fpPool[rng.Intn(len(fpPool))])))
	return b.Kernel(), 8 + rng.Intn(24)
}

// TestPropertyInstrumentationPreservesSemantics instruments random kernels
// in every mode and checks that (a) the result validates, (b) the output
// is bit-identical to the baseline, and (c) a fault-free FT run raises no
// alarms.
func TestPropertyInstrumentationPreservesSemantics(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		k, n := randomKernel(rng)
		if err := kir.Validate(k); err != nil {
			t.Fatalf("trial %d: generator produced invalid kernel: %v", trial, err)
		}

		run := func(kk *kir.Kernel, hooks gpu.Hooks) []uint32 {
			d := gpu.New(gpu.DefaultConfig())
			inB := d.Alloc("in", kir.F32, n+4)
			outB := d.Alloc("out", kir.F32, 64)
			vals := make([]float32, n+4)
			for i := range vals {
				vals[i] = float32(i%7)*0.3 + 0.1
			}
			d.WriteF32(inB, 0, vals)
			_, err := d.Launch(kk, gpu.LaunchSpec{
				Grid: 2, Block: 16,
				Args:  []gpu.Arg{gpu.BufArg(inB), gpu.BufArg(outB), gpu.I32Arg(int32(n))},
				Hooks: hooks,
			})
			if err != nil {
				t.Fatalf("trial %d: launch: %v", trial, err)
			}
			return d.ReadWords(outB)
		}
		golden := run(k, nil)

		for _, mode := range []Mode{ModeProfiler, ModeFT, ModeFI, ModeFIFT} {
			res, err := Instrument(k, NewOptions(mode))
			if err != nil {
				t.Fatalf("trial %d mode %s: %v", trial, mode, err)
			}
			cb := hrt.NewControlBlock(res.Detectors, nil)
			var hooks gpu.Hooks
			if mode == ModeProfiler {
				hooks = hrt.NewProfiler(cb, len(res.Sites))
			} else {
				hooks = hrt.NewFT(cb)
			}
			got := run(res.Kernel, hooks)
			for i := range golden {
				if golden[i] != got[i] {
					t.Fatalf("trial %d mode %s: output %d differs: %#x vs %#x",
						trial, mode, i, golden[i], got[i])
				}
			}
			if cb.SDC() {
				t.Fatalf("trial %d mode %s: fault-free run raised alarms: %v", trial, mode, cb.Alarms())
			}
		}
	}
}

// countStmts counts all statements in b, including nested ones.
func countStmts(b kir.Block) int {
	n := 0
	kir.WalkStmts(b, func(kir.Stmt) bool { n++; return true })
	return n
}
