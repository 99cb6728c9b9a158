package kir

import (
	"fmt"
	"math"
)

// Expr is an IR expression node. Expressions are trees; they never contain
// statements and have no side effects (loads read memory but do not write).
type Expr interface {
	// ResultType is the static type of the value the expression produces.
	ResultType() Type
	isExpr()
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Rem // integer remainder
	And
	Or
	Xor
	Shl
	Shr
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	LAnd // logical and (Bool operands)
	LOr  // logical or
)

var binNames = [...]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Rem: "%",
	And: "&", Or: "|", Xor: "^", Shl: "<<", Shr: ">>",
	Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
	LAnd: "&&", LOr: "||",
}

func (op BinOp) String() string {
	if int(op) < len(binNames) {
		return binNames[op]
	}
	return fmt.Sprintf("binop(%d)", uint8(op))
}

// Comparison reports whether the operator yields a Bool.
func (op BinOp) Comparison() bool { return op >= Eq && op <= Ge }

// Logical reports whether the operator combines Bool operands.
func (op BinOp) Logical() bool { return op == LAnd || op == LOr }

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	Neg UnOp = iota
	Not      // logical not
	BNot
)

func (op UnOp) String() string {
	switch op {
	case Neg:
		return "-"
	case Not:
		return "!"
	case BNot:
		return "~"
	}
	return fmt.Sprintf("unop(%d)", uint8(op))
}

// Builtin enumerates intrinsic math functions. They model the GPU special
// function units the paper's FPU fault class covers.
type Builtin uint8

// Builtin functions.
const (
	Sqrt Builtin = iota
	RSqrt
	Exp
	Log
	Sin
	Cos
	Abs
	Floor
	Min
	Max
)

var builtinNames = [...]string{
	Sqrt: "sqrt", RSqrt: "rsqrt", Exp: "exp", Log: "log",
	Sin: "sin", Cos: "cos", Abs: "abs", Floor: "floor",
	Min: "min", Max: "max",
}

func (b Builtin) String() string {
	if int(b) < len(builtinNames) {
		return builtinNames[b]
	}
	return fmt.Sprintf("builtin(%d)", uint8(b))
}

// arity returns the number of arguments the builtin takes.
func (b Builtin) arity() int {
	if b == Min || b == Max {
		return 2
	}
	return 1
}

// SpecialKind identifies a hardware index register.
type SpecialKind uint8

// Special values available to every thread.
const (
	ThreadIdx SpecialKind = iota // index of the thread within its block
	BlockIdx                     // index of the block within the grid
	BlockDim                     // threads per block
	GridDim                      // blocks in the grid
)

func (s SpecialKind) String() string {
	switch s {
	case ThreadIdx:
		return "threadIdx.x"
	case BlockIdx:
		return "blockIdx.x"
	case BlockDim:
		return "blockDim.x"
	case GridDim:
		return "gridDim.x"
	}
	return fmt.Sprintf("special(%d)", uint8(s))
}

// Const is a typed literal. The value is stored as raw 32-bit payload in
// Bits (sign-extended integers use the low 32 bits).
type Const struct {
	T    Type
	Bits uint32
}

func (c Const) ResultType() Type { return c.T }
func (Const) isExpr()            {}

// Float returns the F32 payload of the constant.
func (c Const) Float() float32 { return math.Float32frombits(c.Bits) }

// Int returns the I32 payload of the constant.
func (c Const) Int() int32 { return int32(c.Bits) }

// VarRef reads a variable.
type VarRef struct{ V *Var }

func (r VarRef) ResultType() Type { return r.V.Type }
func (VarRef) isExpr()            {}

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	L, R Expr
}

func (b Bin) ResultType() Type {
	if b.Op.Comparison() || b.Op.Logical() {
		return Bool
	}
	return b.L.ResultType()
}
func (Bin) isExpr() {}

// Un applies a unary operator.
type Un struct {
	Op UnOp
	X  Expr
}

func (u Un) ResultType() Type {
	if u.Op == Not {
		return Bool
	}
	return u.X.ResultType()
}
func (Un) isExpr() {}

// Load reads one element from device memory: Base[Index]. Base must be a
// pointer-typed variable; the element type is Base.Elem.
type Load struct {
	Base  *Var
	Index Expr
}

func (l Load) ResultType() Type { return l.Base.Elem }
func (Load) isExpr()            {}

// Call invokes a builtin math function.
type Call struct {
	Fn   Builtin
	Args []Expr
}

func (c Call) ResultType() Type {
	if len(c.Args) > 0 {
		return c.Args[0].ResultType()
	}
	return F32
}
func (Call) isExpr() {}

// Special reads a hardware index register; always I32.
type Special struct{ Kind SpecialKind }

func (Special) ResultType() Type { return I32 }
func (Special) isExpr()          {}

// Convert performs a value conversion between numeric types (e.g. i32 to
// f32 rounds, f32 to i32 truncates toward zero).
type Convert struct {
	To Type
	X  Expr
}

func (c Convert) ResultType() Type { return c.To }
func (Convert) isExpr()            {}

// Bitcast reinterprets the 32-bit payload as another type without changing
// bits. The paper's checksum technique XORs the raw 4-byte image of each
// protected variable; Bitcast(U32, x) is how the translator expresses that.
type Bitcast struct {
	To Type
	X  Expr
}

func (b Bitcast) ResultType() Type { return b.To }
func (Bitcast) isExpr()            {}

// --- convenience constructors -------------------------------------------

// ConstF32 builds an F32 literal.
func ConstF32(v float32) Const { return Const{T: F32, Bits: math.Float32bits(v)} }

// ConstI32 builds an I32 literal.
func ConstI32(v int32) Const { return Const{T: I32, Bits: uint32(v)} }

// ConstU32 builds a U32 literal.
func ConstU32(v uint32) Const { return Const{T: U32, Bits: v} }
