package kir_test

import (
	"testing"

	"hauberk/internal/core/translate"
	"hauberk/internal/kir"
	"hauberk/internal/workloads"
)

// loadSites maps every variable a Define of an expression holding a load
// defines to whether the delta analysis calls that load site transparent.
func loadSites(k *kir.Kernel, d *kir.Delta) map[string]bool {
	out := make(map[string]bool)
	kir.WalkStmts(k.Body, func(s kir.Stmt) bool {
		if def, ok := s.(kir.Define); ok && hasLoad(def.E) {
			_, out[def.Dst.Name] = d.Load(def)
		}
		return true
	})
	return out
}

func hasLoad(e kir.Expr) bool {
	found := false
	kir.WalkExpr(e, func(x kir.Expr) bool {
		_, found = x.(kir.Load)
		return !found
	})
	return found
}

func stores(k *kir.Kernel) []kir.Store {
	var out []kir.Store
	kir.WalkStmts(k.Body, func(s kir.Stmt) bool {
		if st, ok := s.(kir.Store); ok {
			out = append(out, st)
		}
		return true
	})
	return out
}

func varNamed(k *kir.Kernel, name string) *kir.Var {
	for _, v := range k.Vars() {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// TestDeltaTPACF classifies the instrumented TPACF kernel the campaigns
// run: the retry loop's old and chk loads and its hptr[0] = nv store are
// transparent, the coordinate loads opaque, and in FI&FT mode the
// translator's hbk_acc_nv — fed nv, checked by HauberkCheckRange — is an
// admitted accumulator.
func TestDeltaTPACF(t *testing.T) {
	for _, mode := range []translate.Mode{translate.ModeFI, translate.ModeFIFT} {
		t.Run(mode.String(), func(t *testing.T) {
			tr, err := translate.Instrument(workloads.TPACF().Build(), translate.NewOptions(mode))
			if err != nil {
				t.Fatal(err)
			}
			k := tr.Kernel
			d := kir.AnalyzeDelta(k)
			sites := loadSites(k, d)
			for _, name := range []string{"old", "chk"} {
				if !sites[name] {
					t.Errorf("%s's load is opaque, want transparent", name)
				}
			}
			// xi/yi/zi (and their FT duplicates) load qx/qy/qz; dot loads
			// px/py/pz.
			for name, transparent := range sites {
				if name != "old" && name != "chk" && transparent {
					t.Errorf("%s's load is transparent, want opaque", name)
				}
			}
			if _, ok := sites["dot"]; !ok {
				t.Fatalf("no px/py/pz load site found among %v", sites)
			}
			st := stores(k)
			if len(st) != 1 || st[0].Base.Name != "hptr" || !d.Store(st[0]) {
				t.Errorf("stores %v: want hptr[0] = nv, transparent", st)
			}
			acc := varNamed(k, "hbk_acc_nv")
			if (acc != nil) != (mode == translate.ModeFIFT) {
				t.Fatalf("hbk_acc_nv present %v in %s", acc != nil, mode)
			}
			if acc != nil && !d.Accumulator(acc) {
				t.Error("hbk_acc_nv is not an admitted accumulator")
			}
			for _, name := range []string{"hbk_cnt_nv", "hbk_iter", "hbk_chksum"} {
				if v := varNamed(k, name); v != nil && d.Accumulator(v) {
					t.Errorf("%s sums no load, yet is an admitted accumulator", name)
				}
			}
		})
	}
}

// rmw builds TPACF's read-modify-write retry loop with an accumulator, or
// one mutant of it.
func rmw(mutant string) *kir.Kernel {
	b := kir.NewBuilder("rmw")
	hist := b.PtrParam("hist", kir.I32)
	out := b.PtrParam("out", kir.I32)
	acc := b.Def("acc", kir.I(0))
	facc := b.Def("facc", kir.F(0))
	cnt := b.Def("cnt", kir.I(0))
	side := b.Def("side", kir.I(0))
	b.For("i", kir.I(0), kir.I(4), func(i *kir.Var) {
		hp := b.DefPtr("hp", kir.I32, kir.XAdd(kir.V(hist), kir.XRem(kir.V(i), kir.I(8))))
		back := hp
		if mutant == "alias" {
			back = b.DefPtr("alias", kir.I32, kir.XAdd(kir.V(hist), kir.XRem(kir.V(i), kir.I(8))))
		}
		done := b.Def("done", kir.I(0))
		b.While(kir.XEq(kir.V(done), kir.I(0)), func() {
			old := b.Def("old", kir.Ld(hp, kir.I(0)))
			b.Emit(kir.FIProbe{Site: 0, Target: old, HW: kir.HWRegister})
			nv := b.Def("nv", kir.XAdd(kir.V(old), kir.I(1)))
			b.Accum(acc, kir.V(nv))
			b.Set(cnt, kir.XAdd(kir.V(cnt), kir.I(1)))
			b.Store(hp, kir.I(0), kir.V(nv))
			if mutant == "const-store" {
				b.Store(hp, kir.I(0), kir.I(7))
			}
			chk := b.Def("chk", kir.Ld(back, kir.I(0)))
			b.If(kir.XEq(kir.V(chk), kir.V(nv)), func() { b.Set(done, kir.I(1)) }, nil)
			switch mutant {
			case "lt":
				b.If(kir.XLt(kir.V(old), kir.I(100)), func() { b.Set(side, kir.I(1)) }, nil)
			case "float":
				b.Def("f", kir.ToF32(kir.V(old)))
			case "escape":
				b.Store(out, kir.I(0), kir.V(old))
			case "facc":
				b.Accum(facc, kir.ToF32(kir.V(nv)))
			}
		})
	})
	b.Emit(kir.RangeCheck{Detector: 0, Accum: acc, Count: cnt})
	b.Emit(kir.RangeCheck{Detector: 1, Accum: facc, Count: cnt})
	b.Store(out, kir.I(1), kir.V(side))
	return b.Kernel()
}

// TestDeltaMutants: each mutant of the read-modify-write idiom makes the
// loaded word's sites opaque — a signed < compare on the loaded value, a
// float conversion of it, a store of it to another address, a constant
// stored into the word between the two compared loads, two pointer
// variables aliasing the word compared against each other, a float
// accumulator fed from it — while the unmutated loop is transparent.
func TestDeltaMutants(t *testing.T) {
	for _, mutant := range []string{"", "lt", "float", "escape", "const-store", "alias", "facc"} {
		k := rmw(mutant)
		d := kir.AnalyzeDelta(k)
		sites := loadSites(k, d)
		want := mutant == ""
		if sites["old"] != want || sites["chk"] != want {
			t.Errorf("mutant %q: old transparent %v, chk %v, want %v", mutant, sites["old"], sites["chk"], want)
		}
		if got := d.Accumulator(varNamed(k, "acc")); got != want {
			t.Errorf("mutant %q: acc admitted %v, want %v", mutant, got, want)
		}
		if d.Accumulator(varNamed(k, "facc")) {
			t.Errorf("mutant %q: the float accumulator is admitted", mutant)
		}
		for _, st := range stores(k) {
			if d.Store(st) && (!want || st.Base.Name != "hp") {
				t.Errorf("mutant %q: store to %s transparent", mutant, st.Base.Name)
			}
		}
	}
}

// TestDeltaScope: a shifted value used where its pointer may name another
// word makes the load opaque — here a pointer redefined between the load
// and the store back, and a value read after the loop that redefines its
// pointer every trip.
func TestDeltaScope(t *testing.T) {
	b := kir.NewBuilder("redefined")
	hist := b.PtrParam("hist", kir.I32)
	hp := b.Kernel().NewPtrVar("hp", kir.I32)
	b.For("i", kir.I(0), kir.I(4), func(i *kir.Var) {
		old := b.Def("old", kir.Ld(hp, kir.I(0))) // the previous trip's word
		b.Emit(kir.Define{Dst: hp, E: kir.XAdd(kir.V(hist), kir.V(i))})
		b.Store(hp, kir.I(0), kir.XAdd(kir.V(old), kir.I(1)))
	})
	k := b.Kernel()
	if loadSites(k, kir.AnalyzeDelta(k))["old"] {
		t.Error("a load stored back through its redefined pointer is transparent")
	}

	b = kir.NewBuilder("outlives")
	hist = b.PtrParam("hist", kir.I32)
	acc := b.Def("acc", kir.I(0))
	var old *kir.Var
	b.For("i", kir.I(0), kir.I(4), func(i *kir.Var) {
		hp := b.DefPtr("hp", kir.I32, kir.XAdd(kir.V(hist), kir.V(i)))
		old = b.Def("old", kir.Ld(hp, kir.I(0)))
		b.Store(hp, kir.I(0), kir.XAdd(kir.V(old), kir.I(1)))
	})
	b.Accum(acc, kir.V(old))
	b.Emit(kir.RangeCheck{Detector: 0, Accum: acc})
	k = b.Kernel()
	if d := kir.AnalyzeDelta(k); loadSites(k, d)["old"] || d.Accumulator(acc) {
		t.Error("a load whose value outlives its block is transparent")
	}
}
