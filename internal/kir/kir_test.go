package kir

import (
	"strings"
	"testing"
)

// buildSample returns a kernel shaped like the paper's running example:
// non-loop defines, one counted loop with a self-accumulator and a chain
// of loop-local virtual variables, and a store after the loop.
func buildSample() *Kernel {
	b := NewBuilder("sample")
	in := b.PtrParam("in", F32)
	out := b.PtrParam("out", F32)
	n := b.Param("n", I32)

	tid := b.Def("tid", GlobalID())
	scale := b.Def("scale", XMul(ToF32(V(tid)), F(0.5)))
	acc := b.Local("acc", F(0))
	b.For("i", I(0), V(n), func(i *Var) {
		x := b.Def("x", Ld(in, XAdd(XMul(V(tid), V(n)), V(i))))
		y := b.Def("y", XMul(V(x), V(scale)))
		b.Accum(acc, V(y))
	})
	b.Store(out, V(tid), V(acc))
	return b.Kernel()
}

func TestBuilderProducesValidKernel(t *testing.T) {
	k := buildSample()
	if err := Validate(k); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(k.Params); got != 3 {
		t.Fatalf("params = %d, want 3", got)
	}
	if k.VarByName("acc") == nil {
		t.Fatalf("acc variable missing")
	}
}

func TestBuilderUniqueNames(t *testing.T) {
	b := NewBuilder("dups")
	v1 := b.Def("v", I(1))
	v2 := b.Def("v", I(2))
	if v1.Name == v2.Name {
		t.Fatalf("duplicate variable names %q", v1.Name)
	}
}

func TestValidateRejectsUseBeforeDef(t *testing.T) {
	k := NewKernel("bad")
	v := k.NewVar("v", I32)
	w := k.NewVar("w", I32)
	k.Body = Block{
		Define{Dst: v, E: VarRef{V: w}}, // w never defined
	}
	if err := Validate(k); err == nil {
		t.Fatalf("want use-before-def error")
	}
}

func TestValidateRejectsDoubleDefine(t *testing.T) {
	k := NewKernel("bad")
	v := k.NewVar("v", I32)
	k.Body = Block{
		Define{Dst: v, E: ConstI32(1)},
		Define{Dst: v, E: ConstI32(2)},
	}
	if err := Validate(k); err == nil {
		t.Fatalf("want double-define error")
	}
}

func TestValidateRejectsTypeMismatch(t *testing.T) {
	k := NewKernel("bad")
	v := k.NewVar("v", F32)
	k.Body = Block{Define{Dst: v, E: ConstI32(1)}}
	if err := Validate(k); err == nil {
		t.Fatalf("want type mismatch error")
	}
}

func TestValidateRejectsForeignVariable(t *testing.T) {
	k1 := NewKernel("a")
	k2 := NewKernel("b")
	alien := k2.NewVar("alien", I32)
	v := k1.NewVar("v", I32)
	k1.Body = Block{
		Define{Dst: alien, E: ConstI32(1)},
		Define{Dst: v, E: ConstI32(2)},
	}
	if err := Validate(k1); err == nil {
		t.Fatalf("want foreign-variable error")
	}
}

func TestValidateRejectsNonBoolCondition(t *testing.T) {
	k := NewKernel("bad")
	k.Body = Block{&If{Cond: ConstI32(1)}}
	if err := Validate(k); err == nil {
		t.Fatalf("want non-bool condition error")
	}
}

func TestValidateRejectsF32Rem(t *testing.T) {
	k := NewKernel("bad")
	v := k.NewVar("v", F32)
	k.Body = Block{Define{Dst: v, E: Bin{Op: Rem, L: ConstF32(1), R: ConstF32(2)}}}
	if err := Validate(k); err == nil {
		t.Fatalf("want f32 %% error")
	}
}

func TestCloneIsDeepAndIndependent(t *testing.T) {
	k := buildSample()
	c, vm := Clone(k)
	if err := Validate(c); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if Print(k) != Print(c) {
		t.Fatalf("clone prints differently:\n%s\nvs\n%s", Print(k), Print(c))
	}
	// Vars must be distinct objects.
	for orig, cl := range vm {
		if orig == cl {
			t.Fatalf("variable %s shared between kernels", orig)
		}
	}
	// Mutating the clone must not affect the original.
	c.Body = append(c.Body, Sync{})
	if strings.Contains(Print(k), "__syncthreads") {
		t.Fatalf("mutating clone affected original")
	}
}

func TestPrintGolden(t *testing.T) {
	b := NewBuilder("mini")
	out := b.PtrParam("out", F32)
	x := b.Def("x", XAdd(F(1), F(2)))
	b.Store(out, I(0), V(x))
	got := Print(b.Kernel())
	want := `__global__ void mini(f32 *out) {
  f32 x = (1f + 2f);
  out[0] = x;
}
`
	if got != want {
		t.Fatalf("Print:\n%s\nwant:\n%s", got, want)
	}
}

func TestWalkStmtsVisitsNested(t *testing.T) {
	k := buildSample()
	count := 0
	loops := 0
	WalkStmts(k.Body, func(s Stmt) bool {
		count++
		if _, ok := s.(*For); ok {
			loops++
		}
		return true
	})
	if loops != 1 {
		t.Fatalf("loops = %d, want 1", loops)
	}
	// Pruning skips the loop body.
	pruned := 0
	WalkStmts(k.Body, func(s Stmt) bool {
		pruned++
		_, isLoop := s.(*For)
		return !isLoop
	})
	if pruned >= count {
		t.Fatalf("pruning did not reduce visits: %d >= %d", pruned, count)
	}
}

func TestExprUsesAndReadsVar(t *testing.T) {
	k := buildSample()
	x := k.VarByName("x")
	y := k.VarByName("y")
	scale := k.VarByName("scale")
	var yDef Define
	WalkStmts(k.Body, func(s Stmt) bool {
		if d, ok := s.(Define); ok && d.Dst == y {
			yDef = d
		}
		return true
	})
	uses := ExprUses(nil, yDef.E)
	has := func(v *Var) bool {
		for _, u := range uses {
			if u == v {
				return true
			}
		}
		return false
	}
	if !has(x) || !has(scale) {
		t.Fatalf("y's uses missing x or scale: %v", uses)
	}
	if !ReadsVar(yDef.E, x) || ReadsVar(yDef.E, y) {
		t.Fatalf("ReadsVar misclassified")
	}
}

func TestConstRoundTrips(t *testing.T) {
	if ConstF32(3.25).Float() != 3.25 {
		t.Fatalf("F32 round trip")
	}
	if ConstI32(-7).Int() != -7 {
		t.Fatalf("I32 round trip")
	}
}

func TestClassOf(t *testing.T) {
	cases := map[Type]DataClass{
		Ptr: ClassPointer,
		F32: ClassFloat,
		I32: ClassInteger,
		U32: ClassInteger,
	}
	for ty, want := range cases {
		if got := ClassOf(ty); got != want {
			t.Errorf("ClassOf(%s) = %s, want %s", ty, got, want)
		}
	}
}

func TestPrintCoversAllStatementKinds(t *testing.T) {
	b := NewBuilder("all")
	in := b.PtrParam("in", I32)
	out := b.PtrParam("out", I32)
	x := b.Def("x", Ld(in, I(0)))
	b.If(XGt(V(x), I(0)), func() {
		b.Set(x, XSub(V(x), I(1)))
	}, func() {
		b.Set(x, I(0))
	})
	b.While(XGt(V(x), I(0)), func() {
		b.Set(x, XShr(V(x), I(1)))
	})
	b.emit(Sync{})
	b.Store(out, I(0), V(x))
	k := b.Kernel()
	k.Body = append(k.Body,
		FIProbe{Site: 3, Target: x, HW: HWALU},
		CountExec{Site: 3},
		RangeCheck{Detector: 1, Accum: x},
		EqualCheck{Detector: 2, Count: x, Expected: I(5)},
		ProfileSample{Detector: 1, Accum: x},
		SetSDC{Detector: 0, Kind: DetectChecksum},
	)
	src := Print(k)
	for _, want := range []string{
		"if ((x > 0)) {", "} else {", "while ((x > 0)) {", "__syncthreads();",
		"HauberkFI(cb, /*site*/3, &x, i32, ALU);",
		"HauberkCount(cb, /*site*/3);",
		"HauberkCheckRange(cb, 1, x);",
		"HauberkCheckEqual(cb, 2, x, 5);",
		"HauberkProfile(cb, 1, x);",
		"HauberkSetSDC(cb, 0, /*checksum*/);",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("Print missing %q:\n%s", want, src)
		}
	}
}

func TestExprStringOperators(t *testing.T) {
	cases := map[string]Expr{
		"(1 % 2)":         XRem(I(1), I(2)),
		"(1u | 2u)":       Bin{Op: Or, L: ConstU32(1), R: ConstU32(2)},
		"(1 << 2)":        Bin{Op: Shl, L: I(1), R: I(2)},
		"-x":              XNeg(VarRef{V: &Var{Name: "x", Type: I32}}),
		"min(1f, 2f)":     XMin(F(1), F(2)),
		"floor(1.5f)":     Call{Fn: Floor, Args: []Expr{F(1.5)}},
		"(i32)1.5f":       ToI32(F(1.5)),
		"__bits<u32>(1f)": AsU32(F(1)),
		"(true && false)": XLAnd(Const{T: Bool, Bits: 1}, Const{T: Bool}),
		"blockDim.x":      BDim(),
		"gridDim.x":       Special{Kind: GridDim},
	}
	for want, e := range cases {
		if got := ExprString(e); got != want {
			t.Errorf("ExprString = %q, want %q", got, want)
		}
	}
}
