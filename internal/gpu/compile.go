package gpu

import (
	"fmt"

	"hauberk/internal/kir"
)

// compileProgram lowers a kernel into a flat bytecode program with cycle
// costs folded in for the given cost model and register file size.
//
// The lowering preserves the observable semantics of the tree-walking
// oracle (oracle_test.go) exactly:
//
//   - Charge order. Each charge() call of the tree-walker maps to exactly
//     one cost field of one instruction (or an opCharge), in program order.
//     Charges that are statically zero (spill reads of a non-spilling
//     kernel) are omitted — a bitwise identity on the non-negative cycle
//     accumulators.
//   - Step counting. The first instruction emitted for each statement and
//     each loop iteration head carries fStep, so hang detection trips at the
//     same statement with the same step count.
//   - Crash points. Division by zero charges before crashing; memory ops
//     check the address before charging Mem; malformed IR nodes compile to
//     opCrash instructions that reproduce the tree-walker's runtime crash
//     (including any charge it would have issued first).
//   - Loop attribution. costLoop duplicates cost for charge sites at
//     compile-time loop nesting depth > 0; For initializers charge at the
//     enclosing depth, loop heads and bodies one deeper, matching the
//     interpreter's depth bookkeeping.
//
// When fuse is set the lowered program additionally runs the
// superinstruction fusion pass (fuse.go), which preserves all of the above
// by construction. Production always fuses (programFor); the unfused
// stream is compiled only by the differential tests.
//
// With a delta analysis the program is Record's: every memory access,
// accumulator update and detector call is preceded or followed by an
// opNote for the trace recorder, which charges nothing and counts no step,
// so the launch is otherwise the one every other program runs.
func compileProgram(k *kir.Kernel, costs CostModel, regsPerThread int, fuse bool, delta *kir.Delta) *program {
	an := kir.Analyze(k)
	spill := 0.0
	if an.MaxLive > regsPerThread {
		frac := float64(an.MaxLive-regsPerThread) / float64(an.MaxLive)
		spill = costs.SpillPenalty * frac
	}
	c := &compiler{
		costs:     costs,
		spill:     spill,
		wcost:     costs.RegMove + spill,
		nv:        k.NumVars(),
		constSlot: make(map[uint32]int32),
		delta:     delta,
	}
	collectConsts(k.Body, c)
	c.tempBase = c.nv + len(c.consts)
	c.block(k.Body)
	p := &program{
		insts:      c.insts,
		consts:     c.consts,
		vars:       k.Vars(),
		nv:         c.nv,
		nslots:     c.tempBase + c.maxTemp,
		maxLive:    an.MaxLive,
		spillExtra: spill,
		crashMsgs:  c.crashMsgs,
		regions:    c.regions,
		unfusedLen: len(c.insts),
	}
	if fuse {
		fuseProgram(p)
	}
	return p
}

type compiler struct {
	costs CostModel
	spill float64 // per-register-access spill charge (readReg)
	wcost float64 // writeReg charge: RegMove + spill, one addition

	insts     []inst
	crashMsgs []string
	regions   []errRegion

	nv        int
	consts    []uint32
	constSlot map[uint32]int32
	tempBase  int
	tempTop   int
	maxTemp   int

	loopDepth int
	pendStep  bool

	// delta, when set, makes this Record's program (see note); transparent
	// marks the Load being compiled as a transparent site.
	delta       *kir.Delta
	transparent bool
}

// note appends a recorder note when compiling Record's program. It leaves
// a pending statement step to the next real instruction.
func (c *compiler) note(kind int32, in inst) {
	if c.delta != nil {
		in.op, in.d, in.cost = opNote, kind, 0
		c.insts = append(c.insts, in)
	}
}

// noteDef follows a definition of dst = e: an admitted accumulator
// restarts on a constant and sums a transparent load's word on a shifted
// term.
func (c *compiler) noteDef(dst *kir.Var, e kir.Expr) {
	if c.delta == nil || !c.delta.Accumulator(dst) {
		return
	}
	if _, ok := e.(kir.Const); ok {
		c.note(noteReset, inst{a: int32(dst.ID)})
	} else if key, ok := c.delta.Term(dst, e); ok {
		c.note(noteAcc, inst{a: int32(dst.ID), b: int32(key.Base.ID), imm: key.Index})
	}
}

// collectConsts assigns constant-pool slots in a deterministic pre-order
// walk, deduplicated by bit pattern (regs carry raw payloads, so two
// constants with equal bits share a slot regardless of type).
func collectConsts(b kir.Block, c *compiler) {
	for _, s := range b {
		switch n := s.(type) {
		case kir.Define:
			collectExprConsts(n.E, c)
		case kir.Assign:
			collectExprConsts(n.E, c)
		case kir.Store:
			collectExprConsts(n.Index, c)
			collectExprConsts(n.Val, c)
		case *kir.If:
			collectExprConsts(n.Cond, c)
			collectConsts(n.Then, c)
			collectConsts(n.Else, c)
		case *kir.For:
			collectExprConsts(n.Init, c)
			collectExprConsts(n.Limit, c)
			collectExprConsts(n.Step, c)
			collectConsts(n.Body, c)
		case *kir.While:
			collectExprConsts(n.Cond, c)
			collectConsts(n.Body, c)
		case kir.EqualCheck:
			collectExprConsts(n.Expected, c)
		}
	}
}

func collectExprConsts(e kir.Expr, c *compiler) {
	switch n := e.(type) {
	case kir.Const:
		if _, ok := c.constSlot[n.Bits]; !ok {
			c.constSlot[n.Bits] = int32(c.nv + len(c.consts))
			c.consts = append(c.consts, n.Bits)
		}
	case kir.Bin:
		collectExprConsts(n.L, c)
		collectExprConsts(n.R, c)
	case kir.Un:
		collectExprConsts(n.X, c)
	case kir.Load:
		collectExprConsts(n.Index, c)
	case kir.Call:
		for _, a := range n.Args {
			collectExprConsts(a, c)
		}
	case kir.Convert:
		collectExprConsts(n.X, c)
	case kir.Bitcast:
		collectExprConsts(n.X, c)
	}
}

// emit appends an instruction, consuming any pending statement-entry step
// flag and stamping the loop-attribution charge (costLoop mirrors cost for
// charge sites inside a loop). It returns the instruction index for jump
// patching.
func (c *compiler) emit(in inst) int {
	if c.pendStep {
		in.flags |= fStep
		c.pendStep = false
	}
	if c.loopDepth > 0 {
		in.costLoop = in.cost
	}
	c.insts = append(c.insts, in)
	return len(c.insts) - 1
}

// flushPending emits an opNop when a statement-entry step is pending but
// the next emitted instruction must not absorb it (While loop heads count
// their own per-iteration step on top of the statement-entry step).
func (c *compiler) flushPending() {
	if c.pendStep {
		c.emit(inst{op: opNop})
	}
}

// chargeSpill emits the readReg spill charge, omitted entirely when the
// kernel does not spill (the tree-walker's charge(0) is a bitwise no-op).
func (c *compiler) chargeSpill() {
	if c.spill != 0 {
		c.emit(inst{op: opCharge, cost: c.spill})
	}
}

func (c *compiler) temp() int32 {
	s := c.tempBase + c.tempTop
	c.tempTop++
	if c.tempTop > c.maxTemp {
		c.maxTemp = c.tempTop
	}
	return int32(s)
}

func (c *compiler) crashInst(cost float64, msg string) {
	c.crashMsgs = append(c.crashMsgs, msg)
	c.emit(inst{op: opCrash, imm: uint32(len(c.crashMsgs) - 1), cost: cost})
}

func (c *compiler) block(b kir.Block) {
	for _, s := range b {
		c.stmt(s)
	}
}

func (c *compiler) stmt(s kir.Stmt) {
	c.pendStep = true // every statement entry counts one interpreter step
	switch n := s.(type) {
	case kir.Define:
		if c.delta != nil {
			_, c.transparent = c.delta.Load(n)
		}
		c.exprTo(int32(n.Dst.ID), n.E)
		c.noteDef(n.Dst, n.E)
	case kir.Assign:
		c.exprTo(int32(n.Dst.ID), n.E)
		c.noteDef(n.Dst, n.E)
	case kir.Store:
		mark := c.tempTop
		ia := c.operand(n.Index)
		va := c.operand(n.Val)
		c.chargeSpill() // base pointer readReg
		kind := noteStore
		if c.delta != nil && c.delta.Store(n) {
			kind = noteStoreT
		}
		c.note(kind, inst{b: int32(n.Base.ID), c: ia})
		c.emit(inst{op: opStore, a: int32(n.Base.ID), b: ia, c: va, cost: c.costs.Mem})
		c.tempTop = mark
	case *kir.If:
		// The Branch cost is charged before the condition evaluates; the
		// charge carrier also consumes the statement-entry step.
		c.emit(inst{op: opCharge, cost: c.costs.Branch})
		mark := c.tempTop
		sa := c.operand(n.Cond)
		jz := c.emit(inst{op: opJZ, b: sa})
		c.tempTop = mark
		c.block(n.Then)
		if len(n.Else) > 0 {
			j := c.emit(inst{op: opJmp})
			c.insts[jz].a = int32(len(c.insts))
			c.block(n.Else)
			c.insts[j].a = int32(len(c.insts))
		} else {
			c.insts[jz].a = int32(len(c.insts))
		}
	case *kir.For:
		c.exprTo(int32(n.Iter.ID), n.Init) // init + writeReg at outer depth
		c.loopDepth++
		head := len(c.insts)
		c.pendStep = true // per-iteration step at the loop head
		mark := c.tempTop
		rstart := len(c.insts)
		la := c.operand(n.Limit)
		if rend := len(c.insts); rend > rstart {
			c.regions = append(c.regions, errRegion{start: rstart, end: rend, charge: c.costs.LoopOver})
		}
		test := c.emit(inst{op: opForTest, b: int32(n.Iter.ID), c: la, cost: c.costs.LoopOver})
		c.tempTop = mark
		c.block(n.Body)
		sa := c.operand(n.Step)
		c.emit(inst{op: opForInc, a: int32(n.Iter.ID), b: sa, cost: c.costs.IntOp})
		c.tempTop = mark
		c.emit(inst{op: opJmp, a: int32(head)})
		c.insts[test].a = int32(len(c.insts))
		c.loopDepth--
	case *kir.While:
		c.flushPending() // statement-entry step, separate from the head step
		c.loopDepth++
		head := len(c.insts)
		c.pendStep = true
		mark := c.tempTop
		rstart := len(c.insts)
		sa := c.operand(n.Cond)
		if rend := len(c.insts); rend > rstart {
			c.regions = append(c.regions, errRegion{start: rstart, end: rend, charge: c.costs.LoopOver})
		}
		jz := c.emit(inst{op: opJZ, b: sa, cost: c.costs.LoopOver})
		c.tempTop = mark
		c.block(n.Body)
		c.emit(inst{op: opJmp, a: int32(head)})
		c.insts[jz].a = int32(len(c.insts))
		c.loopDepth--
	case kir.Sync:
		c.emit(inst{op: opSync, cost: c.costs.Sync})
	case kir.FIProbe:
		c.emit(inst{op: opProbe, a: int32(n.Target.ID), b: int32(n.HW), imm: uint32(n.Site)})
	case kir.CountExec:
		c.emit(inst{op: opCountExec, imm: uint32(n.Site)})
	case kir.RangeCheck:
		cost := c.costs.RangeCheckInt
		if n.Accum.Type == kir.F32 {
			cost = c.costs.RangeCheckFP
		}
		in := inst{op: opRangeCheck, a: int32(n.Accum.ID), b: countSlot(n.Count),
			c: avgKindOf(n.Accum.Type), imm: uint32(n.Detector), cost: cost}
		c.note(noteRange, in)
		c.emit(in)
	case kir.EqualCheck:
		// The check cost is charged before Expected evaluates.
		c.emit(inst{op: opCharge, cost: c.costs.EqualCheck})
		mark := c.tempTop
		ea := c.operand(n.Expected)
		in := inst{op: opEqualCheck, a: int32(n.Count.ID), b: ea, imm: uint32(n.Detector)}
		c.note(noteEqual, in)
		c.emit(in)
		c.tempTop = mark
	case kir.ProfileSample:
		in := inst{op: opProfileSample, a: int32(n.Accum.ID), b: countSlot(n.Count),
			c: avgKindOf(n.Accum.Type), imm: uint32(n.Detector)}
		c.note(noteProfile, in)
		c.emit(in)
	case kir.SetSDC:
		in := inst{op: opSetSDC, a: int32(n.Kind), imm: uint32(n.Detector), cost: c.costs.SetSDC}
		c.note(noteSDC, in)
		c.emit(in)
	default:
		c.crashInst(0, fmt.Sprintf("unknown statement %T", s))
	}
}

func countSlot(v *kir.Var) int32 {
	if v == nil {
		return -1
	}
	return int32(v.ID)
}

func avgKindOf(t kir.Type) int32 {
	switch t {
	case kir.F32:
		return avgF32
	case kir.U32:
		return avgU32
	default:
		return avgI32
	}
}

// exprTo compiles "dst = e" including the writeReg charge (RegMove + spill
// in a single addition, as the tree-walker issues it).
func (c *compiler) exprTo(dst int32, e kir.Expr) {
	switch n := e.(type) {
	case kir.Const:
		c.emit(inst{op: opMove, a: dst, b: c.constSlot[n.Bits], cost: c.wcost})
	case kir.VarRef:
		c.chargeSpill()
		c.emit(inst{op: opMove, a: dst, b: int32(n.V.ID), cost: c.wcost})
	default:
		c.exprInto(dst, e)
		c.emit(inst{op: opCharge, cost: c.wcost})
	}
}

// operand compiles an expression used as an ALU operand and returns its
// slot. Leaves map straight to their variable or constant-pool slot (with
// the readReg spill charge emitted at the leaf's evaluation position);
// anything else evaluates into a fresh temporary. Callers release
// temporaries by restoring tempTop after emitting the consuming op.
func (c *compiler) operand(e kir.Expr) int32 {
	switch n := e.(type) {
	case kir.Const:
		return c.constSlot[n.Bits]
	case kir.VarRef:
		c.chargeSpill()
		return int32(n.V.ID)
	default:
		t := c.temp()
		c.exprInto(t, e)
		return t
	}
}

// exprInto compiles a non-leaf expression into slot d without any writeback
// charge (the value lands in a slot where the tree-walker kept it on the Go
// stack; only the op's own charges are issued).
func (c *compiler) exprInto(d int32, e kir.Expr) {
	switch n := e.(type) {
	case kir.Const:
		c.emit(inst{op: opMove, a: d, b: c.constSlot[n.Bits]})
	case kir.VarRef:
		c.chargeSpill()
		c.emit(inst{op: opMove, a: d, b: int32(n.V.ID)})
	case kir.Bin:
		opType := n.L.ResultType()
		var cost float64
		if n.Op.Comparison() || !n.Op.Logical() {
			cost = c.costs.binCost(n.Op, opType)
		} else {
			cost = c.costs.IntOp
		}
		mark := c.tempTop
		la := c.operand(n.L)
		ra := c.operand(n.R)
		if op, ok := binOpcode(n.Op, opType); ok {
			c.emit(inst{op: op, a: d, b: la, c: ra, cost: cost})
		} else if opType == kir.F32 && !n.Op.Logical() {
			c.crashInst(cost, fmt.Sprintf("op %v not defined on f32", n.Op))
		} else {
			c.crashInst(cost, fmt.Sprintf("unknown binary op %v", n.Op))
		}
		c.tempTop = mark
	case kir.Un:
		mark := c.tempTop
		xa := c.operand(n.X)
		switch n.Op {
		case kir.Neg:
			if n.X.ResultType() == kir.F32 {
				c.emit(inst{op: opNegF, a: d, b: xa, cost: c.costs.FPOp})
			} else {
				c.emit(inst{op: opNegI, a: d, b: xa, cost: c.costs.IntOp})
			}
		case kir.Not:
			c.emit(inst{op: opNotL, a: d, b: xa, cost: c.costs.IntOp})
		case kir.BNot:
			c.emit(inst{op: opBNot, a: d, b: xa, cost: c.costs.IntOp})
		default:
			c.crashInst(0, fmt.Sprintf("unknown unary op %v", n.Op))
		}
		c.tempTop = mark
	case kir.Load:
		mark := c.tempTop
		ia := c.operand(n.Index)
		c.chargeSpill() // base pointer readReg
		kind := noteLoad
		if c.transparent {
			kind, c.transparent = noteLoadT, false
		}
		c.note(kind, inst{b: int32(n.Base.ID), c: ia})
		c.emit(inst{op: opLoad, a: d, b: int32(n.Base.ID), c: ia, cost: c.costs.Mem})
		c.tempTop = mark
	case kir.Call:
		cost := c.costs.callCost(n.Fn)
		mark := c.tempTop
		var a0, a1 int32
		for i, a := range n.Args { // all args evaluate (and charge) in order
			s := c.operand(a)
			if i == 0 {
				a0 = s
			} else if i == 1 {
				a1 = s
			}
		}
		switch {
		case len(n.Args) > 0 && n.Args[0].ResultType() != kir.F32:
			// Integer path: only abs/min/max exist; anything else is the
			// tree-walker's "requires f32" crash.
			if n.Fn == kir.Abs || n.Fn == kir.Min || n.Fn == kir.Max {
				c.emit(inst{op: opCallI, a: d, b: a0, c: a1, imm: uint32(n.Fn), cost: cost})
			} else {
				c.crashInst(cost, fmt.Sprintf("builtin %v requires f32 operand", n.Fn))
			}
		case n.Fn <= kir.Max:
			c.emit(inst{op: opCallF, a: d, b: a0, c: a1, imm: uint32(n.Fn), cost: cost})
		default:
			c.crashInst(cost, fmt.Sprintf("unknown builtin %v", n.Fn))
		}
		c.tempTop = mark
	case kir.Special:
		if n.Kind <= kir.GridDim {
			c.emit(inst{op: opSpecial, a: d, imm: uint32(n.Kind), cost: c.costs.RegMove})
		} else {
			c.crashInst(c.costs.RegMove, fmt.Sprintf("unknown special %v", n.Kind))
		}
	case kir.Convert:
		mark := c.tempTop
		xa := c.operand(n.X)
		op := opMove // identity payload moves (I32 <-> U32, same type)
		switch from, to := n.X.ResultType(), n.To; {
		case from == kir.F32 && to == kir.I32:
			op = opF2I
		case from == kir.F32 && to == kir.U32:
			op = opF2U
		case from == kir.I32 && to == kir.F32:
			op = opI2F
		case from == kir.U32 && to == kir.F32:
			op = opU2F
		}
		c.emit(inst{op: op, a: d, b: xa, cost: c.costs.Convert})
		c.tempTop = mark
	case kir.Bitcast:
		mark := c.tempTop
		xa := c.operand(n.X)
		c.emit(inst{op: opMove, a: d, b: xa, cost: c.costs.RegMove})
		c.tempTop = mark
	default:
		c.crashInst(0, fmt.Sprintf("unknown expression %T", e))
	}
}

// binOpcode maps a kir binary operator and its left-operand type to the
// specialized opcode, reproducing the tree-walker's dispatch: F32 operands
// use FP semantics except for logical ops; I32 selects signed variants;
// everything else (U32, Bool, Ptr) is unsigned.
func binOpcode(op kir.BinOp, t kir.Type) (opcode, bool) {
	if t == kir.F32 && !op.Logical() {
		switch op {
		case kir.Add:
			return opAddF, true
		case kir.Sub:
			return opSubF, true
		case kir.Mul:
			return opMulF, true
		case kir.Div:
			return opDivF, true
		case kir.Eq:
			return opEqF, true
		case kir.Ne:
			return opNeF, true
		case kir.Lt:
			return opLtF, true
		case kir.Le:
			return opLeF, true
		case kir.Gt:
			return opGtF, true
		case kir.Ge:
			return opGeF, true
		}
		return 0, false
	}
	signed := t == kir.I32
	switch op {
	case kir.Add:
		return opAddI, true
	case kir.Sub:
		return opSubI, true
	case kir.Mul:
		return opMulI, true
	case kir.Div:
		if signed {
			return opDivS, true
		}
		return opDivU, true
	case kir.Rem:
		if signed {
			return opRemS, true
		}
		return opRemU, true
	case kir.And:
		return opAnd, true
	case kir.Or:
		return opOr, true
	case kir.Xor:
		return opXor, true
	case kir.Shl:
		return opShl, true
	case kir.Shr:
		if signed {
			return opShrS, true
		}
		return opShrU, true
	case kir.Eq:
		return opEqI, true
	case kir.Ne:
		return opNeI, true
	case kir.Lt:
		if signed {
			return opLtS, true
		}
		return opLtU, true
	case kir.Le:
		if signed {
			return opLeS, true
		}
		return opLeU, true
	case kir.Gt:
		if signed {
			return opGtS, true
		}
		return opGtU, true
	case kir.Ge:
		if signed {
			return opGeS, true
		}
		return opGeU, true
	case kir.LAnd:
		return opLAnd, true
	case kir.LOr:
		return opLOr, true
	}
	return 0, false
}
