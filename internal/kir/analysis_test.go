package kir

import "testing"

// buildCoulombic mirrors Figure 9 of the paper: a loop computing two
// output variables where energyx2's cumulative backward dataflow
// dependency exceeds energyx1's, so the selection algorithm prefers it.
func buildCoulombic() (*Kernel, map[string]*Var) {
	b := NewBuilder("fig9")
	atominfo := b.PtrParam("atominfo", F32)
	out := b.PtrParam("out", F32)
	numatoms := b.Param("numatoms", I32)
	gridspacing := b.Def("gridspacing_u", F(0.1))
	coorx := b.Def("coorx", XMul(ToF32(GlobalID()), V(gridspacing)))
	coory := b.Def("coory", XMul(ToF32(GlobalID()), F(0.2)))

	e1 := b.Local("energyx1", F(0))
	e2 := b.Local("energyx2", F(0))
	b.For("atomid", I(0), V(numatoms), func(atomid *Var) {
		base := b.Def("abase", XMul(V(atomid), I(4)))
		dy := b.Def("dy", XSub(V(coory), Ld(atominfo, V(base))))
		dyz2 := b.Def("dyz2", XAdd(XMul(V(dy), V(dy)), Ld(atominfo, XAdd(V(base), I(1)))))
		dx1 := b.Def("dx1", XSub(V(coorx), Ld(atominfo, XAdd(V(base), I(2)))))
		// dx2 depends on dx1 plus one more input: a longer backward chain.
		dx2 := b.Def("dx2", XAdd(V(dx1), V(gridspacing)))
		q := b.Def("q", Ld(atominfo, XAdd(V(base), I(3))))
		t1 := b.Def("t1", XAdd(XMul(V(dx1), V(dx1)), V(dyz2)))
		t2 := b.Def("t2", XAdd(XMul(V(dx2), V(dx2)), V(dyz2)))
		s1 := b.Def("s1", XDiv(F(1), XSqrt(V(t1))))
		s2 := b.Def("s2", XDiv(F(1), XSqrt(V(t2))))
		b.Accum(e1, XMul(V(q), V(s1)))
		b.Accum(e2, XMul(V(q), V(s2)))
	})
	b.Store(out, I(0), V(e1))
	b.Store(out, I(1), V(e2))
	k := b.Kernel()
	names := map[string]*Var{}
	for _, v := range k.Vars() {
		names[v.Name] = v
	}
	return k, names
}

func TestAnalyzeFindsLoopRegions(t *testing.T) {
	k, names := buildCoulombic()
	a := Analyze(k)
	if len(a.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(a.Loops))
	}
	li := a.Loops[0]
	if li.For == nil {
		t.Fatalf("counted loop not recognized")
	}
	if !li.regionVars[names["dy"]] || !li.regionVars[names["energyx2"]] {
		t.Fatalf("region variables not identified")
	}
	if li.regionVars[names["coorx"]] {
		t.Fatalf("coorx is defined outside the loop")
	}
}

func TestSelfAccumulators(t *testing.T) {
	k, names := buildCoulombic()
	a := Analyze(k)
	li := a.Loops[0]
	want := map[*Var]bool{names["energyx1"]: true, names["energyx2"]: true}
	if len(li.SelfAccum) != 2 {
		t.Fatalf("self-accumulators = %v, want energyx1 and energyx2", li.SelfAccum)
	}
	for _, v := range li.SelfAccum {
		if !want[v] {
			t.Fatalf("unexpected self-accumulator %s", v)
		}
	}
}

// TestFig9BackwardDependency asserts the Figure 9 ordering: energyx2's
// cumulative backward dataflow dependency (12 vs 13 in the paper) exceeds
// energyx1's because dx2's chain is one definition longer.
func TestFig9BackwardDependency(t *testing.T) {
	k, names := buildCoulombic()
	a := Analyze(k)
	li := a.Loops[0]
	d1 := li.BackwardDep(names["energyx1"])
	d2 := li.BackwardDep(names["energyx2"])
	if d2 <= d1 {
		t.Fatalf("BackwardDep(energyx2)=%d should exceed BackwardDep(energyx1)=%d", d2, d1)
	}
	if d1 < 5 {
		t.Fatalf("energyx1 dependency %d implausibly small", d1)
	}
}

func TestBackwardConeAndForwardDependents(t *testing.T) {
	k, names := buildCoulombic()
	li := Analyze(k).Loops[0]
	cone := li.BackwardCone(names["energyx2"])
	for _, feed := range []string{"dx2", "dx1", "t2", "s2", "q", "dyz2", "dy"} {
		if !cone[names[feed]] {
			t.Errorf("%s should be in energyx2's backward cone", feed)
		}
	}
	if cone[names["s1"]] {
		t.Errorf("s1 does not feed energyx2")
	}
}

func TestLoopOutputs(t *testing.T) {
	k, names := buildCoulombic()
	li := Analyze(k).Loops[0]
	found := map[*Var]bool{}
	for _, o := range li.Outputs {
		found[o] = true
	}
	if !found[names["energyx1"]] || !found[names["energyx2"]] {
		t.Fatalf("energy variables should be loop outputs, got %v", li.Outputs)
	}
	if found[names["t1"]] {
		t.Fatalf("t1 neither escapes nor is stored")
	}
}

func TestTripCountDerivable(t *testing.T) {
	k, _ := buildCoulombic()
	li := Analyze(k).Loops[0]
	if li.TripCount() == nil {
		t.Fatalf("trip count should be derivable for a param-bounded loop")
	}
}

func TestTripCountNotDerivableWhenBoundMutates(t *testing.T) {
	b := NewBuilder("mut")
	n := b.Param("n", I32)
	lim := b.Def("lim", V(n))
	acc := b.Local("acc", I(0))
	b.For("i", I(0), V(lim), func(i *Var) {
		b.Set(lim, XSub(V(lim), I(1))) // shrinking bound
		b.Accum(acc, V(i))
	})
	k := b.Kernel()
	li := Analyze(k).Loops[0]
	if li.TripCount() != nil {
		t.Fatalf("trip count must not be derivable when the bound mutates inside the loop")
	}
}

func TestWhileLoopRegion(t *testing.T) {
	b := NewBuilder("w")
	out := b.PtrParam("out", I32)
	x := b.Local("x", I(10))
	b.While(XGt(V(x), I(0)), func() {
		b.Set(x, XSub(V(x), I(1)))
	})
	b.Store(out, I(0), V(x))
	a := Analyze(b.Kernel())
	if len(a.Loops) != 1 {
		t.Fatalf("while loop not a region")
	}
	if a.Loops[0].For != nil {
		t.Fatalf("while loop misclassified as counted")
	}
	if a.Loops[0].TripCount() != nil {
		t.Fatalf("while loops have no derivable trip count")
	}
}

func TestMaxLiveGrowsWithLongLivedVars(t *testing.T) {
	mk := func(extra int) int {
		b := NewBuilder("p")
		out := b.PtrParam("out", F32)
		vars := make([]*Var, extra)
		for i := range vars {
			vars[i] = b.Def("v", F(float32(i)))
		}
		acc := b.Local("acc", F(0))
		b.For("i", I(0), I(4), func(i *Var) {
			for _, v := range vars {
				b.Accum(acc, V(v)) // keeps all vars live through the loop
			}
		})
		b.Store(out, I(0), V(acc))
		return Analyze(b.Kernel()).MaxLive
	}
	small, big := mk(2), mk(12)
	if big <= small {
		t.Fatalf("MaxLive(12 vars)=%d not above MaxLive(2 vars)=%d", big, small)
	}
	if big-small < 8 {
		t.Fatalf("MaxLive should grow roughly with long-lived variables: %d vs %d", small, big)
	}
}

func TestLastTopUseAndAssignedInLoop(t *testing.T) {
	k, names := buildCoulombic()
	a := Analyze(k)
	// coorx's last top-level use is the loop statement (inside the body).
	li := a.Loops[0]
	if got := a.LastTopUse[names["coorx"]]; got != li.TopIndex {
		t.Fatalf("LastTopUse(coorx) = %d, want loop index %d", got, li.TopIndex)
	}
	if !a.AssignedInLoop[names["energyx1"]] {
		t.Fatalf("energyx1 is assigned in the loop")
	}
	if a.AssignedInLoop[names["coorx"]] {
		t.Fatalf("coorx is never assigned")
	}
	if !a.UsedInLoop[names["coorx"]] {
		t.Fatalf("coorx is used in the loop")
	}
}
