package gpu

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"hauberk/internal/kir"
)

// rmwCase is TPACF's histogram update in miniature: each thread bumps three
// bins through a pointer it derives per bin, retrying until the read-back
// matches, and range-checks the average of what it wrote. Sites: 0 bin,
// 1 old, 2 nv, 3 chk. mutant names one change that must make the bins'
// load sites opaque (kir's delta tests classify the same shapes): "lt" a
// signed < compare on the loaded value, "float" a float conversion of it,
// "escape" a store of it to another address, "const-store" a constant
// stored into the word between two compared loads, "alias" a second
// pointer to the word compared against the first, "facc" a float
// accumulator feeding a range check.
func rmwCase(mutant string, limit float64) traceCase {
	return traceCase{cfg: DefaultConfig(), grid: 2, block: 16, sites: 4, stepBudget: 4000, limit: limit,
		setup: perThreadSetup(2, 16),
		build: func(b *kir.Builder) {
			hist := b.PtrParam("hist", kir.I32)
			out := b.PtrParam("out", kir.I32)
			acc := b.Def("acc", kir.I(0))
			facc := b.Def("facc", kir.F(0))
			cnt := b.Def("cnt", kir.I(0))
			side := b.Def("side", kir.I(0))
			b.For("i", kir.I(0), kir.I(3), func(i *kir.Var) {
				bin := b.Def("bin", kir.XRem(kir.XAdd(kir.GlobalID(), kir.V(i)), kir.I(8)))
				b.Emit(kir.FIProbe{Site: 0, Target: bin, HW: kir.HWALU})
				hp := b.DefPtr("hp", kir.I32, kir.XAdd(kir.V(hist), kir.V(bin)))
				back := hp
				if mutant == "alias" {
					back = b.DefPtr("alias", kir.I32, kir.XAdd(kir.V(hist), kir.V(bin)))
				}
				done := b.Def("done", kir.I(0))
				b.While(kir.XEq(kir.V(done), kir.I(0)), func() {
					old := b.Def("old", kir.Ld(hp, kir.I(0)))
					b.Emit(kir.FIProbe{Site: 1, Target: old, HW: kir.HWRegister})
					nv := b.Def("nv", kir.XAdd(kir.V(old), kir.I(1)))
					b.Emit(kir.FIProbe{Site: 2, Target: nv, HW: kir.HWALU})
					b.Accum(acc, kir.V(nv))
					b.Set(cnt, kir.XAdd(kir.V(cnt), kir.I(1)))
					b.Store(hp, kir.I(0), kir.V(nv))
					chk := b.Def("chk", kir.Ld(back, kir.I(0)))
					b.Emit(kir.FIProbe{Site: 3, Target: chk, HW: kir.HWRegister})
					b.If(kir.XEq(kir.V(chk), kir.V(nv)), func() { b.Set(done, kir.I(1)) }, nil)
					switch mutant {
					case "lt":
						b.If(kir.XLt(kir.V(old), kir.I(12)), func() { b.Set(side, kir.XAdd(kir.V(side), kir.I(1))) }, nil)
					case "float":
						b.If(kir.XLt(kir.ToF32(kir.V(old)), kir.F(12)), func() { b.Set(side, kir.XAdd(kir.V(side), kir.I(1))) }, nil)
					case "escape":
						b.Store(out, kir.XAdd(kir.GlobalID(), kir.I(32)), kir.V(old))
					case "const-store":
						a := b.Def("a", kir.Ld(hp, kir.I(0)))
						b.Store(hp, kir.I(0), kir.I(9))
						c := b.Def("c", kir.Ld(hp, kir.I(0)))
						b.If(kir.XEq(kir.V(a), kir.V(c)), func() { b.Set(side, kir.XAdd(kir.V(side), kir.I(1))) }, nil)
						b.Store(hp, kir.I(0), kir.V(a))
					case "facc":
						b.Accum(facc, kir.ToF32(kir.V(nv)))
					}
				})
			})
			b.Emit(kir.RangeCheck{Detector: 0, Accum: acc, Count: cnt})
			b.Emit(kir.RangeCheck{Detector: 1, Accum: facc, Count: cnt})
			b.Emit(kir.EqualCheck{Detector: 2, Count: cnt, Expected: kir.I(3)})
			b.Store(out, kir.GlobalID(), kir.XAdd(kir.V(cnt), kir.V(side)))
		}}
}

// alarmsFrom returns the alarms of threads from serial on, for a block size.
func alarmsFrom(alarms []string, from, block int) map[string]bool {
	out := make(map[string]bool)
	for _, a := range alarms {
		var kind string
		var blk, thr int
		if _, err := fmt.Sscanf(a, "%s b%d t%d", &kind, &blk, &thr); err == nil && blk*block+thr >= from {
			out[a] = true
		}
	}
	return out
}

// TestResumeCarriesShiftedRangeChecks: a differing histogram word is
// carried through the later threads instead of re-executing them, and
// their range checks see the accumulator plus the carried shift — which
// turns alarms the golden run did not raise on, and ones it raised off,
// exactly as a full launch does.
func TestResumeCarriesShiftedRangeChecks(t *testing.T) {
	tc := rmwCase("", 11.5) // golden averages climb from ≈ 6 to ≈ 18
	g := recordCase(t, tc)
	carried, on, off := 0, 0, 0
	for _, f := range g.faultsFor() {
		want := tc.full(g.k, f)
		got, from, stop, carry := g.resumed(f)
		diffOutcomes(t, want, got)
		if !carry {
			continue
		}
		carried++
		if stop != from+1 && f.span == 1 {
			t.Fatalf("fault %+v carried after live threads [%d, %d)", f, from, stop)
		}
		golden, faulted := alarmsFrom(g.alarms, stop, tc.block), alarmsFrom(got.alarms, stop, tc.block)
		for a := range faulted {
			if !golden[a] {
				on++
			}
		}
		for a := range golden {
			if !faulted[a] {
				off++
			}
		}
	}
	t.Logf("%d of %d faults carried; carried shifts raised %d alarms and cleared %d", carried, len(g.faultsFor()), on, off)
	if carried == 0 || on == 0 || off == 0 {
		t.Fatalf("carried %d, alarms on %d, off %d: want all three", carried, on, off)
	}
}

// TestResumeRunsOpaqueMutantsLive: every mutant of the histogram update
// falls back to live execution — no launch is carried — and still equals
// a full launch.
func TestResumeRunsOpaqueMutantsLive(t *testing.T) {
	for _, mutant := range []string{"lt", "float", "escape", "const-store", "alias", "facc"} {
		t.Run(mutant, func(t *testing.T) {
			tc := rmwCase(mutant, 11.5)
			g := recordCase(t, tc)
			for _, f := range g.faultsFor() {
				got, from, stop, carried := g.resumed(f)
				diffOutcomes(t, tc.full(g.k, f), got)
				if carried {
					t.Fatalf("fault %+v: live threads [%d, %d), then carried through an opaque site", f, from, stop)
				}
			}
		})
	}
}

// genCarryCase generates a small histogram kernel from seed: bins bumped
// through a per-iteration pointer, by a retry loop or a single
// read-modify-write, feeding a range-checked accumulator — and, mixed in,
// one of the shapes the delta analysis must call opaque, an embedded load
// of the same bin, or nothing. A third buffer, which no clean thread
// reads, is sometimes volatile. FI probes sit on every value the update
// defines.
func genCarryCase(seed uint64) traceCase {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	grid, block := 1+r.IntN(2), 3+r.IntN(10)
	bins, iters, mul, step := 2+r.IntN(7), 1+r.IntN(4), 1+r.IntN(3), 1+r.IntN(3)
	retry, extra, inc := r.IntN(2) == 0, r.IntN(10), 1+r.IntN(3)
	volatile := r.IntN(4) == 0
	limit := 0.0
	if r.IntN(2) == 0 {
		limit = float64(2 + r.IntN(20))
	}
	tc := traceCase{cfg: DefaultConfig(), grid: grid, block: block, stepBudget: 4000, limit: limit,
		setup: func(d *Device, k *kir.Kernel) []Arg {
			args := perThreadSetup(grid, block)(d, k)
			if volatile {
				d.SetVolatile(args[2].Buf)
			}
			return args
		}}
	tc.build = func(b *kir.Builder) {
		hist := b.PtrParam("hist", kir.I32)
		out := b.PtrParam("out", kir.I32)
		b.PtrParam("vol", kir.I32)
		site := 0
		probe := func(v *kir.Var, hw kir.HW) {
			b.Emit(kir.FIProbe{Site: site, Target: v, HW: hw})
			site++
		}
		bump := func(v *kir.Var) { b.Set(v, kir.XAdd(kir.V(v), kir.I(1))) }
		acc := b.Def("acc", kir.I(0))
		facc := b.Def("facc", kir.F(0))
		cnt := b.Def("cnt", kir.I(0))
		side := b.Def("side", kir.I(0))
		b.For("i", kir.I(0), kir.I(int32(iters)), func(i *kir.Var) {
			bin := b.Def("bin", kir.XRem(kir.XAdd(kir.XMul(kir.GlobalID(), kir.I(int32(mul))), kir.XMul(kir.V(i), kir.I(int32(step)))), kir.I(int32(bins))))
			probe(bin, kir.HWALU)
			hp := b.DefPtr("hp", kir.I32, kir.XAdd(kir.V(hist), kir.V(bin)))
			probe(hp, kir.HWALU)
			back := hp
			if extra == 4 {
				back = b.DefPtr("alias", kir.I32, kir.XAdd(kir.V(hist), kir.V(bin)))
			}
			update := func() *kir.Var {
				old := b.Def("old", kir.Ld(hp, kir.I(0)))
				probe(old, kir.HWRegister)
				nv := b.Def("nv", kir.XAdd(kir.V(old), kir.I(int32(inc))))
				probe(nv, kir.HWALU)
				b.Accum(acc, kir.V(nv))
				bump(cnt)
				b.Store(hp, kir.I(0), kir.V(nv))
				switch extra {
				case 0:
					b.If(kir.XLt(kir.V(old), kir.I(10)), func() { bump(side) }, nil)
				case 1:
					b.If(kir.XGt(kir.ToF32(kir.V(nv)), kir.F(10)), func() { bump(side) }, nil)
				case 2:
					b.Store(out, kir.XAdd(kir.GlobalID(), kir.I(32)), kir.V(old))
				case 3:
					a := b.Def("a", kir.Ld(hp, kir.I(0)))
					b.Store(hp, kir.I(0), kir.I(9))
					c := b.Def("c", kir.Ld(hp, kir.I(0)))
					b.If(kir.XEq(kir.V(a), kir.V(c)), func() { bump(side) }, nil)
					b.Store(hp, kir.I(0), kir.V(a))
				case 5:
					b.Accum(facc, kir.ToF32(kir.V(nv)))
				case 6:
					b.Set(side, kir.XAdd(kir.V(side), kir.Ld(hist, kir.V(bin))))
				}
				return nv
			}
			if !retry {
				update()
				return
			}
			done := b.Def("done", kir.I(0))
			probe(done, kir.HWRegister)
			b.While(kir.XEq(kir.V(done), kir.I(0)), func() {
				nv := update()
				chk := b.Def("chk", kir.Ld(back, kir.I(0)))
				probe(chk, kir.HWRegister)
				b.If(kir.XEq(kir.V(chk), kir.V(nv)), func() {
					b.Set(done, kir.I(1))
					probe(done, kir.HWRegister)
				}, nil)
			})
		})
		b.Emit(kir.RangeCheck{Detector: 0, Accum: acc, Count: cnt})
		b.Emit(kir.RangeCheck{Detector: 1, Accum: facc})
		b.Emit(kir.EqualCheck{Detector: 2, Count: cnt, Expected: kir.I(int32(iters))})
		b.If(kir.XNe(kir.V(cnt), kir.I(int32(iters))), func() { b.Emit(kir.SetSDC{Detector: 3, Kind: kir.DetectDup}) }, nil)
		b.Store(out, kir.GlobalID(), kir.XAdd(kir.V(cnt), kir.V(side)))
	}
	b := kir.NewBuilder("count")
	tc.build(b)
	kir.WalkStmts(b.Kernel().Body, func(s kir.Stmt) bool {
		if _, ok := s.(kir.FIProbe); ok {
			tc.sites++
		}
		return true
	})
	return tc
}

// FuzzResumeCarry holds Resume to Device.Launch, bit for bit, on generated
// histogram kernels that mix transparent and opaque uses of the bins, with
// the fault drawn from (site, instance, mask): site's top bit makes it
// persistent. The kernels are recorded with a checkpoint before every
// statement, and the launch resumes from the ckpt-th (mod their count plus
// one; 0 is the thread's start) of the target thread's checkpoints that
// precede the target instance. The seed corpus is
// testdata/fuzz/FuzzResumeCarry.
func FuzzResumeCarry(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, site uint8, instance uint16, mask uint32, ckpt uint8) {
		defer CheckpointEvery(1)()
		tc := genCarryCase(seed)
		g := recordCase(t, tc)
		if err := kir.Validate(g.k); err != nil {
			t.Fatal(err)
		}
		fault := oneFault{site: int(site&0x7f) % (tc.sites + 1), instance: int64(instance) % 64, span: 1, mask: mask, persistent: site&0x80 != 0}
		at := g.resumePoint(fault)
		at.Checkpoint = int(ckpt) % (at.Checkpoint + 1)
		got, _ := g.resumeAt(fault, at, fault.site)
		diffOutcomes(t, tc.full(g.k, fault), got)
	})
}
