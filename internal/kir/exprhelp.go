package kir

// Expression helper constructors. They keep workload kernels readable:
// binary helpers take Expr operands; V wraps a variable, F/I/U wrap
// literals.

// V reads a variable.
func V(v *Var) Expr { return VarRef{V: v} }

// F builds an F32 literal.
func F(v float32) Expr { return ConstF32(v) }

// I builds an I32 literal.
func I(v int32) Expr { return ConstI32(v) }

// XAdd returns l + r.
func XAdd(l, r Expr) Expr { return Bin{Op: Add, L: l, R: r} }

// XSub returns l - r.
func XSub(l, r Expr) Expr { return Bin{Op: Sub, L: l, R: r} }

// XMul returns l * r.
func XMul(l, r Expr) Expr { return Bin{Op: Mul, L: l, R: r} }

// XDiv returns l / r.
func XDiv(l, r Expr) Expr { return Bin{Op: Div, L: l, R: r} }

// XRem returns l % r.
func XRem(l, r Expr) Expr { return Bin{Op: Rem, L: l, R: r} }

// XAnd returns l & r.
func XAnd(l, r Expr) Expr { return Bin{Op: And, L: l, R: r} }

// XXor returns l ^ r.
func XXor(l, r Expr) Expr { return Bin{Op: Xor, L: l, R: r} }

// XShr returns l >> r.
func XShr(l, r Expr) Expr { return Bin{Op: Shr, L: l, R: r} }

// XEq returns l == r.
func XEq(l, r Expr) Expr { return Bin{Op: Eq, L: l, R: r} }

// XNe returns l != r.
func XNe(l, r Expr) Expr { return Bin{Op: Ne, L: l, R: r} }

// XLt returns l < r.
func XLt(l, r Expr) Expr { return Bin{Op: Lt, L: l, R: r} }

// XGt returns l > r.
func XGt(l, r Expr) Expr { return Bin{Op: Gt, L: l, R: r} }

// XLAnd returns l && r.
func XLAnd(l, r Expr) Expr { return Bin{Op: LAnd, L: l, R: r} }

// XNeg returns -x.
func XNeg(x Expr) Expr { return Un{Op: Neg, X: x} }

// Ld reads base[idx].
func Ld(base *Var, idx Expr) Expr { return Load{Base: base, Index: idx} }

// XSqrt returns sqrt(x).
func XSqrt(x Expr) Expr { return Call{Fn: Sqrt, Args: []Expr{x}} }

// XRSqrt returns 1/sqrt(x).
func XRSqrt(x Expr) Expr { return Call{Fn: RSqrt, Args: []Expr{x}} }

// XExp returns exp(x).
func XExp(x Expr) Expr { return Call{Fn: Exp, Args: []Expr{x}} }

// XLog returns log(x).
func XLog(x Expr) Expr { return Call{Fn: Log, Args: []Expr{x}} }

// XSin returns sin(x).
func XSin(x Expr) Expr { return Call{Fn: Sin, Args: []Expr{x}} }

// XCos returns cos(x).
func XCos(x Expr) Expr { return Call{Fn: Cos, Args: []Expr{x}} }

// XAbs returns |x|.
func XAbs(x Expr) Expr { return Call{Fn: Abs, Args: []Expr{x}} }

// XMin returns min(l, r).
func XMin(l, r Expr) Expr { return Call{Fn: Min, Args: []Expr{l, r}} }

// XMax returns max(l, r).
func XMax(l, r Expr) Expr { return Call{Fn: Max, Args: []Expr{l, r}} }

// ToF32 converts a numeric value to F32.
func ToF32(x Expr) Expr { return Convert{To: F32, X: x} }

// ToI32 converts a numeric value to I32 (truncating).
func ToI32(x Expr) Expr { return Convert{To: I32, X: x} }

// AsU32 reinterprets the 32-bit payload as U32 (the checksum view).
func AsU32(x Expr) Expr { return Bitcast{To: U32, X: x} }

// TID is threadIdx.x.
func TID() Expr { return Special{Kind: ThreadIdx} }

// BID is blockIdx.x.
func BID() Expr { return Special{Kind: BlockIdx} }

// BDim is blockDim.x.
func BDim() Expr { return Special{Kind: BlockDim} }

// GlobalID is blockIdx.x*blockDim.x + threadIdx.x.
func GlobalID() Expr { return XAdd(XMul(BID(), BDim()), TID()) }
