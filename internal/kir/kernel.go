package kir

import "fmt"

// Kernel is one GPU kernel: an entry function callable from the CPU side,
// with typed parameters and a statement body. Kernels own their variables;
// Var.ID indexes into the kernel's variable table, which the interpreter
// uses as the per-thread register file layout.
type Kernel struct {
	Name   string
	Params []*Var
	Body   Block

	vars []*Var // all variables ever created, indexed by ID
}

// NewKernel returns an empty kernel.
func NewKernel(name string) *Kernel { return &Kernel{Name: name} }

// NewVar creates a fresh kernel variable. Names must be unique for
// printing; uniqueness is the caller's concern (the Builder suffixes
// duplicates).
func (k *Kernel) NewVar(name string, t Type) *Var {
	v := &Var{ID: len(k.vars), Name: name, Type: t}
	k.vars = append(k.vars, v)
	return v
}

// NewPtrVar creates a pointer variable over elements of type elem.
func (k *Kernel) NewPtrVar(name string, elem Type) *Var {
	v := k.NewVar(name, Ptr)
	v.Elem = elem
	return v
}

// AddParam appends a previously created variable to the parameter list.
func (k *Kernel) AddParam(v *Var) {
	v.Param = true
	k.Params = append(k.Params, v)
}

// NumVars is the size of the register file one thread needs.
func (k *Kernel) NumVars() int { return len(k.vars) }

// Vars returns the kernel's variable table. The slice is shared; callers
// must not mutate it.
func (k *Kernel) Vars() []*Var { return k.vars }

// VarByName finds a variable by name, or nil.
func (k *Kernel) VarByName(name string) *Var {
	for _, v := range k.vars {
		if v.Name == name {
			return v
		}
	}
	return nil
}

func (k *Kernel) String() string {
	return fmt.Sprintf("kernel %s (%d params, %d vars)", k.Name, len(k.Params), len(k.vars))
}
