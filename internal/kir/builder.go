package kir

import "fmt"

// Builder assembles a kernel with nested control flow. Workload authors use
// it like a tiny embedded language:
//
//	b := kir.NewBuilder("cp")
//	atoms := b.PtrParam("atominfo", kir.F32)
//	n := b.Param("numatoms", kir.I32)
//	energy := b.Local("energy", kir.ConstF32(0))
//	b.For("atomid", kir.ConstI32(0), n, func(i *Var) {
//	    dx := b.Def("dx", kir.FSub(kir.Ld(atoms, i), ...))
//	    b.Add(energy, dx)
//	})
//
// Expression helpers (X*, Ld, V, F, I, ...) live in exprhelp.go.
type Builder struct {
	k     *Kernel
	stack []*Block
	names map[string]int
}

// NewBuilder starts a kernel.
func NewBuilder(name string) *Builder {
	b := &Builder{k: NewKernel(name), names: make(map[string]int)}
	b.stack = []*Block{&b.k.Body}
	return b
}

// Kernel finalizes and returns the kernel under construction.
func (b *Builder) Kernel() *Kernel { return b.k }

func (b *Builder) cur() *Block { return b.stack[len(b.stack)-1] }

func (b *Builder) emit(s Stmt) { *b.cur() = append(*b.cur(), s) }

// unique returns name, suffixed if already used.
func (b *Builder) unique(name string) string {
	n := b.names[name]
	b.names[name] = n + 1
	if n == 0 {
		return name
	}
	return fmt.Sprintf("%s.%d", name, n)
}

// Param declares a scalar kernel parameter.
func (b *Builder) Param(name string, t Type) *Var {
	v := b.k.NewVar(b.unique(name), t)
	b.k.AddParam(v)
	return v
}

// PtrParam declares a pointer kernel parameter over elem-typed elements.
func (b *Builder) PtrParam(name string, elem Type) *Var {
	v := b.k.NewPtrVar(b.unique(name), elem)
	b.k.AddParam(v)
	return v
}

// Def defines a new virtual variable initialized to e and returns it.
func (b *Builder) Def(name string, e Expr) *Var {
	v := b.k.NewVar(b.unique(name), e.ResultType())
	b.emit(Define{Dst: v, E: e})
	return v
}

// DefPtr defines a new pointer-typed virtual variable (pointer arithmetic).
func (b *Builder) DefPtr(name string, elem Type, e Expr) *Var {
	v := b.k.NewPtrVar(b.unique(name), elem)
	b.emit(Define{Dst: v, E: e})
	return v
}

// Local is Def with a clearer name for mutable state (accumulators).
func (b *Builder) Local(name string, init Expr) *Var { return b.Def(name, init) }

// Set re-assigns v.
func (b *Builder) Set(v *Var, e Expr) { b.emit(Assign{Dst: v, E: e}) }

// Accum emits the self-accumulation v = v + e.
func (b *Builder) Accum(v *Var, e Expr) {
	b.emit(Assign{Dst: v, E: Bin{Op: Add, L: VarRef{V: v}, R: e}})
}

// Store writes base[idx] = val.
func (b *Builder) Store(base *Var, idx, val Expr) {
	b.emit(Store{Base: base, Index: idx, Val: val})
}

// For emits a counted loop for iter = init; iter < limit; iter++ and runs
// body to populate it. It returns the iterator variable.
func (b *Builder) For(iter string, init, limit Expr, body func(i *Var)) *Var {
	return b.ForStep(iter, init, limit, ConstI32(1), body)
}

// ForStep is For with an explicit step expression.
func (b *Builder) ForStep(iter string, init, limit, step Expr, body func(i *Var)) *Var {
	iv := b.k.NewVar(b.unique(iter), I32)
	loop := &For{Iter: iv, Init: init, Limit: limit, Step: step}
	b.stack = append(b.stack, &loop.Body)
	body(iv)
	b.stack = b.stack[:len(b.stack)-1]
	b.emit(loop)
	return iv
}

// While emits a while loop.
func (b *Builder) While(cond Expr, body func()) {
	loop := &While{Cond: cond}
	b.stack = append(b.stack, &loop.Body)
	body()
	b.stack = b.stack[:len(b.stack)-1]
	b.emit(loop)
}

// If emits a conditional; els may be nil.
func (b *Builder) If(cond Expr, then func(), els func()) {
	s := &If{Cond: cond}
	b.stack = append(b.stack, &s.Then)
	then()
	b.stack = b.stack[:len(b.stack)-1]
	if els != nil {
		b.stack = append(b.stack, &s.Else)
		els()
		b.stack = b.stack[:len(b.stack)-1]
	}
	b.emit(s)
}

// Emit appends an arbitrary statement at the current position. It is how
// callers place the Hauberk intrinsic statements (RangeCheck, FIProbe, ...)
// that have no dedicated builder verb.
func (b *Builder) Emit(s Stmt) { b.emit(s) }
