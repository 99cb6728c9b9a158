package gpu

// Superinstruction fusion: a post-compile peephole pass that rewrites
// common adjacent instruction pairs into single dispatch entries, cutting
// the dispatch-loop iterations per thread without changing anything the
// tree-walker oracle can observe.
//
// The determinism contract (bytecode.go) forbids pre-summing two nonzero
// float64 charges, so a fused instruction carries the absorbed
// instruction's charges in a second slot pair (cost2/costLoop2) that the
// dispatch loop adds at the bottom of the iteration, on fallthrough only.
// Taken branches (`continue`) and crash/hang exits (`break loop`) skip the
// bottom of the iteration — exactly the paths on which the absorbed
// instruction would not have executed in the unfused stream.
//
// A pair (X at i, Y at i+1) is only fused when:
//
//   - Y is not a jump target (control can only reach Y through X) and does
//     not carry fStep (no statement/iteration step counting or hang check
//     may fire between the halves);
//   - neither X nor Y already carries absorbed charges (one cost2 slot);
//   - Y cannot crash, with one exception: opLoadIdx absorbs an opLoad, and
//     then X and Y must sit in the same error region, because the fused
//     instruction reports the crash at X's index;
//   - the intermediate temporary is dead afterwards (or the fused
//     instruction overwrites it), verified by tempDead's forward scan.
//
// The catalog (opMulAddF &c., opLoadIdx, opLoadOpF, opCmpJZ) plus
// unconditional charge absorption removes roughly a third of the dispatch
// iterations on the arithmetic-heavy paper workloads.

// opLoadOpF imm encoding: the low bits select the ALU operation applied to
// the loaded value, loSwap marks the loaded value as the left operand
// (operand order is observable through NaN payload propagation).
const (
	loAdd  uint32 = 0
	loSub  uint32 = 1
	loMul  uint32 = 2
	loSwap uint32 = 4
)

// fuseProgram runs the peephole passes to a fixpoint (bounded: each pass
// only shrinks the program). Operator fusion runs before charge
// absorption, so writeback charges land in the fused instruction's free
// cost2 slot.
func fuseProgram(p *program) {
	f := &fuser{p: p, tempFloor: int32(p.nv + len(p.consts))}
	for i := 0; i < 3; i++ {
		a := f.fuseOps()
		b := f.absorbCharges()
		if !a && !b {
			break
		}
	}
}

type fuser struct {
	p         *program
	tempFloor int32 // first expression-temporary slot
}

// jumpTargets marks every instruction index that is the target of a jump.
// Targets may equal len(insts): loop exits and If joins jump past the last
// body instruction.
func jumpTargets(insts []inst) []bool {
	t := make([]bool, len(insts)+1)
	for i := range insts {
		switch insts[i].op {
		case opJmp, opJZ, opForTest, opCmpJZ:
			t[insts[i].a] = true
		}
	}
	return t
}

// regionIndex maps every instruction index to the errRegion containing it,
// -1 outside all regions. Regions never nest (bytecode.go).
func regionIndex(p *program) []int {
	m := make([]int, len(p.insts))
	for i := range m {
		m[i] = -1
	}
	for ri, r := range p.regions {
		for i := r.start; i < r.end && i < len(m); i++ {
			m[i] = ri
		}
	}
	return m
}

// compact drops instructions marked dead and remaps jump targets and
// error-region bounds onto the compacted index space.
func compact(p *program, dead []bool) {
	remap := make([]int32, len(p.insts)+1)
	n := int32(0)
	for i := range p.insts {
		remap[i] = n
		if !dead[i] {
			n++
		}
	}
	remap[len(p.insts)] = n
	kept := p.insts[:0]
	for i := range p.insts {
		if !dead[i] {
			kept = append(kept, p.insts[i])
		}
	}
	p.insts = kept
	for i := range p.insts {
		switch p.insts[i].op {
		case opJmp, opJZ, opForTest, opCmpJZ:
			p.insts[i].a = remap[p.insts[i].a]
		}
	}
	for i := range p.regions {
		p.regions[i].start = int(remap[p.regions[i].start])
		p.regions[i].end = int(remap[p.regions[i].end])
	}
}

// fuseOps rewrites adjacent instruction pairs into superinstructions.
func (f *fuser) fuseOps() bool {
	insts := f.p.insts
	targets := jumpTargets(insts)
	regIdx := regionIndex(f.p)
	dead := make([]bool, len(insts))
	changed := false
	for i := 0; i+1 < len(insts); i++ {
		x, y := &insts[i], &insts[i+1]
		if targets[i+1] || y.flags&fStep != 0 {
			continue
		}
		if x.cost2 != 0 || x.costLoop2 != 0 || y.cost2 != 0 || y.costLoop2 != 0 {
			continue
		}
		fused, ok := f.fusePair(insts, targets, regIdx, i)
		if !ok {
			continue
		}
		fused.flags = x.flags
		insts[i] = fused
		dead[i+1] = true
		changed = true
		i++ // the pair is consumed
	}
	if changed {
		compact(f.p, dead)
	}
	return changed
}

// fusePair matches the superinstruction catalog against the pair at
// (i, i+1). Reachability, fStep, and charge-slot preconditions were
// checked by the caller.
func (f *fuser) fusePair(insts []inst, targets []bool, regIdx []int, i int) (inst, bool) {
	x, y := &insts[i], &insts[i+1]
	switch {
	case x.op == opMulF && (y.op == opAddF || y.op == opSubF):
		// t = b*c ; a = other ± t  →  opMulAdd/SubF(L). Neither half can
		// crash, so region membership is irrelevant.
		t := x.a
		if t < f.tempFloor {
			return inst{}, false
		}
		left, right := y.b == t, y.c == t
		if left == right { // product unused, or used on both sides
			return inst{}, false
		}
		if y.a != t && !f.tempDead(insts, targets, i+2, t) {
			return inst{}, false
		}
		op := opMulAddF // product on the right: regs[b] + m
		other := y.b
		if left {
			other = y.c
			op = opMulAddFL
		}
		if y.op == opSubF {
			if left {
				op = opMulSubFL
			} else {
				op = opMulSubF
			}
		}
		return inst{op: op, a: y.a, b: other, c: x.b, d: x.c,
			cost: x.cost, costLoop: x.costLoop, cost2: y.cost, costLoop2: y.costLoop}, true

	case (x.op == opAddI || x.op == opMulI) && y.op == opLoad && y.c == x.a:
		// t = b ⊕ c ; a = mem[base+t]  →  opLoadIdx. The load can crash:
		// the fused instruction reports the crash at X's index, so both
		// halves must sit in the same error region for the post-loop
		// region charge to match.
		t := x.a
		if t < f.tempFloor || y.b == t || regIdx[i] != regIdx[i+1] {
			return inst{}, false
		}
		if y.a != t && !f.tempDead(insts, targets, i+2, t) {
			return inst{}, false
		}
		var mode uint32
		if x.op == opMulI {
			mode = 1
		}
		return inst{op: opLoadIdx, a: y.a, b: y.b, c: x.b, d: x.c, imm: mode,
			cost: x.cost, costLoop: x.costLoop, cost2: y.cost, costLoop2: y.costLoop}, true

	case x.op == opLoad && (y.op == opAddF || y.op == opSubF || y.op == opMulF):
		// t = mem[b+c] ; a = other ⊕ t  →  opLoadOpF. X keeps its index
		// and crash point; the FP op cannot crash.
		t := x.a
		if t < f.tempFloor {
			return inst{}, false
		}
		left, right := y.b == t, y.c == t
		if left == right {
			return inst{}, false
		}
		if y.a != t && !f.tempDead(insts, targets, i+2, t) {
			return inst{}, false
		}
		var sub uint32
		switch y.op {
		case opSubF:
			sub = loSub
		case opMulF:
			sub = loMul
		}
		other := y.b
		if left {
			other = y.c
			sub |= loSwap
		}
		return inst{op: opLoadOpF, a: y.a, b: x.b, c: x.c, d: other, imm: sub,
			cost: x.cost, costLoop: x.costLoop, cost2: y.cost, costLoop2: y.costLoop}, true

	case isCmp(x.op) && y.op == opJZ && y.b == x.a:
		// t = cmp(b, c) ; jz t  →  opCmpJZ. Only the costless If-jz is
		// eligible (the While head's jz carries the LoopOver charge and
		// anchors an error region). The compare result must be dead on
		// both outgoing paths; the branch target is always forward here,
		// so a plain scan covers it.
		t := x.a
		if t < f.tempFloor || y.cost != 0 || y.costLoop != 0 {
			return inst{}, false
		}
		if !f.tempDead(insts, targets, i+2, t) || !f.tempDead(insts, targets, int(y.a), t) {
			return inst{}, false
		}
		return inst{op: opCmpJZ, a: y.a, b: x.b, c: x.c, imm: uint32(x.op),
			cost: x.cost, costLoop: x.costLoop}, true
	}
	return inst{}, false
}

// absorbCharges folds a standalone opCharge into the preceding
// instruction's second charge slot. The dispatch loop adds cost2 at the
// bottom of the iteration, reached exactly when control would have flowed
// into the opCharge: taken branches skip it via continue, crashes and
// hangs via break.
func (f *fuser) absorbCharges() bool {
	insts := f.p.insts
	targets := jumpTargets(insts)
	dead := make([]bool, len(insts))
	changed := false
	for i := 0; i+1 < len(insts); i++ {
		if dead[i] {
			continue
		}
		x, y := &insts[i], &insts[i+1]
		if y.op != opCharge || targets[i+1] || y.flags&fStep != 0 {
			continue
		}
		if x.cost2 != 0 || x.costLoop2 != 0 {
			continue
		}
		switch x.op {
		case opJmp, opCrash:
			continue // control never falls through; the charge must stay
		}
		x.cost2 = y.cost
		x.costLoop2 = y.costLoop
		dead[i+1] = true
		changed = true
	}
	if changed {
		compact(f.p, dead)
	}
	return changed
}

// tempDead reports whether temporary slot t is dead at the program point
// just before instruction index from: on the fallthrough path t is written
// before it is read, or a statement boundary is reached first. Compiled
// temporaries are statement-local (the compiler releases them by restoring
// tempTop at each consuming op, and every reuse writes the slot before
// reading it), so a statement-entry step, a jump target, or a control
// transfer ends the scan.
func (f *fuser) tempDead(insts []inst, targets []bool, from int, t int32) bool {
	for j := from; j < len(insts); j++ {
		in := &insts[j]
		if readsSlot(in, t) {
			return false
		}
		if writesSlot(in, t) || targets[j] || in.flags&fStep != 0 {
			return true
		}
		switch in.op {
		case opJmp, opJZ, opForTest, opCmpJZ, opCrash:
			return true
		}
	}
	return true
}

// isCmp reports whether op computes a boolean eligible for opCmpJZ fusion.
func isCmp(op opcode) bool {
	switch op {
	case opLAnd, opLOr,
		opEqI, opNeI, opLtS, opLeS, opGtS, opGeS, opLtU, opLeU, opGtU, opGeU,
		opEqF, opNeF, opLtF, opLeF, opGtF, opGeF:
		return true
	}
	return false
}

// writesSlot reports whether in unconditionally writes register slot s.
// opProbe is excluded: it writes its target only when a hook injects a
// value, so it cannot kill liveness.
func writesSlot(in *inst, s int32) bool {
	switch in.op {
	case opMove, opForInc, opLoad,
		opAddI, opSubI, opMulI, opDivS, opDivU, opRemS, opRemU,
		opAnd, opOr, opXor, opShl, opShrS, opShrU, opLAnd, opLOr,
		opEqI, opNeI, opLtS, opLeS, opGtS, opGeS, opLtU, opLeU, opGtU, opGeU,
		opAddF, opSubF, opMulF, opDivF, opEqF, opNeF, opLtF, opLeF, opGtF, opGeF,
		opNegI, opNegF, opNotL, opBNot, opF2I, opF2U, opI2F, opU2F,
		opCallI, opCallF, opSpecial,
		opMulAddF, opMulAddFL, opMulSubF, opMulSubFL, opLoadIdx, opLoadOpF:
		return in.a == s
	}
	return false
}

// readsSlot reports whether in may read register slot s. Conservative:
// operand fields that are unused for a particular imm (the second builtin
// argument) still count as reads.
func readsSlot(in *inst, s int32) bool {
	switch in.op {
	case opMove, opNegI, opNegF, opNotL, opBNot, opF2I, opF2U, opI2F, opU2F, opJZ:
		return in.b == s
	case opForInc:
		return in.a == s || in.b == s
	case opForTest, opLoad, opCallI, opCallF, opCmpJZ,
		opAddI, opSubI, opMulI, opDivS, opDivU, opRemS, opRemU,
		opAnd, opOr, opXor, opShl, opShrS, opShrU, opLAnd, opLOr,
		opEqI, opNeI, opLtS, opLeS, opGtS, opGeS, opLtU, opLeU, opGtU, opGeU,
		opAddF, opSubF, opMulF, opDivF, opEqF, opNeF, opLtF, opLeF, opGtF, opGeF:
		return in.b == s || in.c == s
	case opStore, opNote:
		return in.a == s || in.b == s || in.c == s
	case opProbe:
		return in.a == s
	case opRangeCheck, opProfileSample, opEqualCheck:
		return in.a == s || in.b == s
	case opMulAddF, opMulAddFL, opMulSubF, opMulSubFL, opLoadIdx, opLoadOpF:
		return in.b == s || in.c == s || in.d == s
	}
	return false
}
