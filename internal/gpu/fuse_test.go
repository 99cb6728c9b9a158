package gpu

import (
	"math"
	"testing"

	"hauberk/internal/kir"
)

func buildKernel(name string, build func(b *kir.Builder)) *kir.Kernel {
	b := kir.NewBuilder(name)
	build(b)
	return b.Kernel()
}

// compileBoth compiles k under the default cost model with and without the
// fusion pass.
func compileBoth(k *kir.Kernel) (fused, unfused *program) {
	cfg := DefaultConfig()
	return compileProgram(k, cfg.RegsPerThread, true, nil),
		compileProgram(k, cfg.RegsPerThread, false, nil)
}

func hasOp(p *program, op opcode) bool {
	for i := range p.insts {
		if p.insts[i].op == op {
			return true
		}
	}
	return false
}

// totalCharges sums every charge slot in the program. Fusion moves charges
// between instructions and slots but must never create or destroy any.
func totalCharges(p *program) (cost, loop float64) {
	for i := range p.insts {
		cost += p.insts[i].cost + p.insts[i].cost2
		loop += p.insts[i].costLoop + p.insts[i].costLoop2
	}
	return
}

// TestFusionShrinksAndPreservesCharges compiles a kernel with FP mul-add
// chains, loads, a branch, and a loop, and checks the structural invariants
// of the fusion pass: the instruction stream shrinks, unfusedLen records
// the pre-fusion count, total charge mass is conserved, and every jump
// target and error-region bound stays in range after compaction.
func TestFusionShrinksAndPreservesCharges(t *testing.T) {
	k := buildKernel("fuse-shrink", func(b *kir.Builder) {
		in := b.PtrParam("in", kir.F32)
		out := b.PtrParam("out", kir.F32)
		acc := b.Def("acc", kir.F(0))
		b.For("i", kir.I(0), kir.I(8), func(i *kir.Var) {
			v := b.Def("v", kir.Ld(in, kir.V(i)))
			b.Set(acc, kir.XAdd(kir.V(acc), kir.XMul(kir.V(v), kir.F(1.5))))
		})
		b.If(kir.XGt(kir.V(acc), kir.F(3)), func() {
			b.Set(acc, kir.XSub(kir.V(acc), kir.F(1)))
		}, nil)
		b.Store(out, kir.TID(), kir.V(acc))
	})
	fused, unfused := compileBoth(k)

	if unfused.unfusedLen != len(unfused.insts) {
		t.Fatalf("unfused program: unfusedLen %d != len(insts) %d", unfused.unfusedLen, len(unfused.insts))
	}
	if fused.unfusedLen != len(unfused.insts) {
		t.Fatalf("fused.unfusedLen = %d, want pre-fusion count %d", fused.unfusedLen, len(unfused.insts))
	}
	if len(fused.insts) >= len(unfused.insts) {
		t.Fatalf("fusion did not shrink the program: fused %d insts, unfused %d", len(fused.insts), len(unfused.insts))
	}

	fc, fl := totalCharges(fused)
	uc, ul := totalCharges(unfused)
	if math.Abs(fc-uc) > 1e-9 || math.Abs(fl-ul) > 1e-9 {
		t.Fatalf("charge mass not conserved: fused (%v, %v), unfused (%v, %v)", fc, fl, uc, ul)
	}

	n := int32(len(fused.insts))
	for i := range fused.insts {
		in := &fused.insts[i]
		switch in.op {
		case opJmp, opJZ, opForTest, opCmpJZ:
			if in.a < 0 || in.a > n {
				t.Fatalf("inst %d: jump target %d out of range [0,%d]", i, in.a, n)
			}
		}
	}
	for ri, r := range fused.regions {
		if r.start < 0 || r.end < r.start || r.end > int(n) {
			t.Fatalf("region %d: bounds [%d,%d) out of range after compaction", ri, r.start, r.end)
		}
	}
	// Absorption moved at least one charge into a second slot, and never
	// minted new standalone opCharge instructions. (Some survive
	// legitimately: a charge that is a jump target cannot be absorbed.)
	var second float64
	charges := func(p *program) (n int) {
		for i := range p.insts {
			if p.insts[i].op == opCharge {
				n++
			}
		}
		return
	}
	for i := range fused.insts {
		second += fused.insts[i].cost2 + fused.insts[i].costLoop2
	}
	if second == 0 {
		t.Fatalf("no charge mass landed in cost2/costLoop2 slots")
	}
	if charges(fused) > charges(unfused) {
		t.Fatalf("fusion added opCharge instructions: %d > %d", charges(fused), charges(unfused))
	}
}

// fusionCase is one shape the fusion pass turns into a superinstruction.
type fusionCase struct {
	name  string
	op    opcode
	build func(b *kir.Builder)
}

// fusionCatalog returns one kernel shape per superinstruction.
func fusionCatalog() []fusionCase {
	return []fusionCase{
		{"mul-add-right", opMulAddF, func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			a := b.Def("a", kir.F(2))
			c := b.Def("c", kir.F(3))
			b.Store(out, kir.TID(), kir.XAdd(kir.V(a), kir.XMul(kir.V(c), kir.F(1.5))))
		}},
		{"mul-add-left", opMulAddFL, func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			a := b.Def("a", kir.F(2))
			c := b.Def("c", kir.F(3))
			b.Store(out, kir.TID(), kir.XAdd(kir.XMul(kir.V(c), kir.F(1.5)), kir.V(a)))
		}},
		{"mul-sub-right", opMulSubF, func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			a := b.Def("a", kir.F(2))
			c := b.Def("c", kir.F(3))
			b.Store(out, kir.TID(), kir.XSub(kir.V(a), kir.XMul(kir.V(c), kir.F(1.5))))
		}},
		{"mul-sub-left", opMulSubFL, func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			a := b.Def("a", kir.F(2))
			c := b.Def("c", kir.F(3))
			b.Store(out, kir.TID(), kir.XSub(kir.XMul(kir.V(c), kir.F(1.5)), kir.V(a)))
		}},
		{"load-indexed", opLoadIdx, func(b *kir.Builder) {
			in := b.PtrParam("in", kir.F32)
			out := b.PtrParam("out", kir.F32)
			v := b.Def("v", kir.Ld(in, kir.XAdd(kir.TID(), kir.I(1))))
			b.Store(out, kir.TID(), kir.V(v))
		}},
		{"load-op", opLoadOpF, func(b *kir.Builder) {
			in := b.PtrParam("in", kir.F32)
			out := b.PtrParam("out", kir.F32)
			acc := b.Def("acc", kir.F(1))
			b.Store(out, kir.TID(), kir.XAdd(kir.V(acc), kir.Ld(in, kir.TID())))
		}},
		{"cmp-jz", opCmpJZ, func(b *kir.Builder) {
			out := b.PtrParam("out", kir.F32)
			acc := b.Def("acc", kir.F(0))
			b.If(kir.XGt(kir.TID(), kir.I(3)), func() {
				b.Set(acc, kir.F(1))
			}, nil)
			b.Store(out, kir.TID(), kir.V(acc))
		}},
	}
}

// TestFusionCatalogFires pins that each superinstruction in the catalog is
// actually produced for the code shape it targets — guarding against the
// pass silently regressing into a no-op.
func TestFusionCatalogFires(t *testing.T) {
	cases := fusionCatalog()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fused, unfused := compileBoth(buildKernel(tc.name, tc.build))
			if !hasOp(fused, tc.op) {
				t.Fatalf("fusion produced no %v instruction for the %s shape", tc.op, tc.name)
			}
			if hasOp(unfused, tc.op) {
				t.Fatalf("unfused compile contains fused opcode %v", tc.op)
			}
		})
	}
}

// TestFusionDiffFaultOverlay routes a mul-add reduction with indexed loads
// through the fused, unfused, and tree engines under a memory-fault
// overlay that flips a bit of every loaded word at odd addresses. The
// corrupted figures, cycle bits, and hook sequences must stay identical
// across all engines: fusion must not change which loads see the overlay.
func TestFusionDiffFaultOverlay(t *testing.T) {
	tc := diffCase{
		cfg: DefaultConfig(), grid: 2, block: 8,
		build: func(b *kir.Builder) {
			in := b.PtrParam("in", kir.F32)
			out := b.PtrParam("out", kir.F32)
			acc := b.Def("acc", kir.F(0))
			b.For("i", kir.I(0), kir.I(4), func(i *kir.Var) {
				v := b.Def("v", kir.Ld(in, kir.XAdd(kir.V(i), kir.TID())))
				b.Set(acc, kir.XAdd(kir.V(acc), kir.XMul(kir.V(v), kir.F(0.5))))
			})
			b.Store(out, kir.GlobalID(), kir.V(acc))
		},
		fault: func(addr, val uint32) uint32 {
			if addr%2 == 1 {
				return val ^ 0x00400000 // flip a mantissa bit
			}
			return val
		},
	}
	if _, err := runDiff(t, tc); err != nil {
		t.Fatalf("overlay launch failed: %v", err)
	}
}

// TestFusionDiffIndexedCrash drives an out-of-bounds indexed load — the
// shape that fuses into opLoadIdx, the only fused instruction that can
// crash — through all three engines. Error class, crash position, and the
// cycle bits charged before the crash must be identical.
func TestFusionDiffIndexedCrash(t *testing.T) {
	tc := diffCase{
		cfg: DefaultConfig(), grid: 2, block: 8,
		build: func(b *kir.Builder) {
			in := b.PtrParam("in", kir.F32)
			out := b.PtrParam("out", kir.F32)
			// gid ≥ 8 lands at or past VirtualWords and segfaults.
			v := b.Def("v", kir.Ld(in, kir.XMul(kir.GlobalID(), kir.I(1<<23))))
			b.Store(out, kir.GlobalID(), kir.V(v))
		},
	}
	_, err := runDiff(t, tc)
	if _, ok := err.(*CrashError); !ok {
		t.Fatalf("want *CrashError from out-of-bounds indexed load, got %v", err)
	}
}
