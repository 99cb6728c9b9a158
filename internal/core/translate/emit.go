package translate

import (
	"hauberk/internal/kir"
)

// emitTop rewrites the kernel's top-level block, applying Table I's
// instrumentation rules in one deterministic pass so that FI site numbering
// agrees across all library modes.
func (ins *instr) emitTop(body kir.Block) kir.Block {
	out := kir.Block{}
	if ins.opts.wantNL() && !ins.opts.NaiveDup {
		// Kernel entry: the shared checksum variable, then the
		// parameter checksum updates ("the checksum is updated only at
		// the entry and exit of the kernel function if the parameter is
		// not modified inside the kernel").
		out = append(out, kir.Define{Dst: ins.chksum, E: kir.ConstU32(0)})
		for _, p := range ins.k.Params {
			if protectableNL(p) && !assignedAnywhere(ins.k.Body, p) {
				out = append(out, ins.xorStmt(p))
			}
		}
	}
	for i, s := range body {
		for _, v := range ins.nlBefore[i] {
			out = append(out, ins.xorStmt(v))
		}
		for _, np := range ins.naiveBefore[i] {
			out = append(out, ins.dupCheck(np.orig, np.dup))
		}
		out = ins.emitStmt(out, s)
		for _, v := range ins.nlAfter[i] {
			out = append(out, ins.xorStmt(v))
		}
		for _, np := range ins.naiveAfter[i] {
			out = append(out, ins.dupCheck(np.orig, np.dup))
		}
	}
	return out
}

// finishKernel appends the kernel-exit instrumentation: parameter closing
// XORs and the checksum validation (Section V.A step v).
func (ins *instr) finishKernel(body *kir.Block) {
	if !ins.opts.wantNL() || ins.opts.NaiveDup {
		return
	}
	for _, p := range ins.k.Params {
		if protectableNL(p) && !assignedAnywhere(ins.k.Body, p) {
			*body = append(*body, ins.xorStmt(p))
		}
	}
	*body = append(*body, &kir.If{
		Cond: kir.XNe(kir.V(ins.chksum), kir.ConstU32(0)),
		Then: kir.Block{kir.SetSDC{Detector: ins.nlDet, Kind: kir.DetectChecksum}},
	})
}

// emitStmt handles one non-loop-context statement.
func (ins *instr) emitStmt(out kir.Block, s kir.Stmt) kir.Block {
	switch n := s.(type) {
	case kir.Define:
		out = append(out, n)
		if !n.Dst.Synth {
			out = ins.emitSite(out, n.Dst, hwOf(n.E), false)
			out = ins.emitNL(out, n)
		}
	case kir.Assign:
		out = append(out, n)
		if !n.Dst.Synth {
			out = ins.emitSite(out, n.Dst, hwOf(n.E), false)
		}
	case *kir.If:
		ni := &kir.If{Cond: n.Cond}
		for _, ts := range n.Then {
			ni.Then = ins.emitStmt(ni.Then, ts)
		}
		for _, es := range n.Else {
			ni.Else = ins.emitStmt(ni.Else, es)
		}
		out = append(out, ni)
	case *kir.For:
		out = ins.emitLoop(out, n, nil)
	case *kir.While:
		out = ins.emitLoop(out, nil, n)
	default:
		out = append(out, s)
	}
	return out
}

// emitSite allocates the FI site for a state-changing statement and emits
// the mode's probe/counter intrinsic after it (Figure 12 / Table I).
func (ins *instr) emitSite(out kir.Block, v *kir.Var, hw kir.HW, inLoop bool) kir.Block {
	id := ins.addSite(v, hw, inLoop)
	if ins.opts.wantProbes() {
		out = append(out, kir.FIProbe{Site: id, Target: v, HW: hw})
	}
	if ins.opts.wantCounts() {
		out = append(out, kir.CountExec{Site: id})
	}
	return out
}

// emitNL applies the non-loop detector to one virtual-variable definition
// (Figure 8(c), steps i–iii; the naive Figure 8(b) variant under the
// NaiveDup ablation).
func (ins *instr) emitNL(out kir.Block, d kir.Define) kir.Block {
	if !ins.opts.wantNL() || !protectableNL(d.Dst) {
		return out
	}
	p := ins.nlPlans[d.Dst]
	if p == nil {
		// Defined inside a branch: protect locally with a zero-width
		// window (the pair closes immediately).
		p = &nlPlan{v: d.Dst, place: placeImmediate}
	}
	ins.nlProtected++
	dup := ins.newSynth("hbk_dup_"+d.Dst.Name, d.Dst.Type)
	if d.Dst.Type == kir.Ptr {
		dup.Elem = d.Dst.Elem
	}

	if ins.opts.NaiveDup {
		// Figure 8(b): duplicate stays live until the last use, where the
		// single compare happens. Register pressure roughly doubles.
		out = append(out, kir.Define{Dst: dup, E: kir.CloneExpr(d.E, nil)})
		np := naivePair{orig: d.Dst, dup: dup}
		switch p.place {
		case placeImmediate:
			out = append(out, ins.dupCheck(np.orig, np.dup))
		case placeAfterTop:
			ins.naiveAfter[p.index] = append(ins.naiveAfter[p.index], np)
		case placeBeforeLoop:
			ins.naiveBefore[p.index] = append(ins.naiveBefore[p.index], np)
		}
		return out
	}

	// Step (i): first checksum update, right after the definition.
	out = append(out, ins.xorStmt(d.Dst))
	// Step (ii): duplicate the computation into a short-lived register.
	out = append(out, kir.Define{Dst: dup, E: kir.CloneExpr(d.E, nil)})
	// Step (iii): immediate compare; the duplicate dies here.
	out = append(out, ins.dupCheck(d.Dst, dup))
	// Step (iv): the second checksum update is scheduled by the plan
	// (after last use / before the updating loop); immediate-placement
	// variables close the pair now.
	if p.place == placeImmediate {
		out = append(out, ins.xorStmt(d.Dst))
	}
	return out
}

// emitLoop rewrites one outermost loop region with its detectors
// (Section V.B steps ii–iv).
func (ins *instr) emitLoop(out kir.Block, f *kir.For, w *kir.While) kir.Block {
	var stmt kir.Stmt
	if f != nil {
		stmt = f
	} else {
		stmt = w
	}
	lp := ins.loopPlans[stmt]

	selByVar := make(map[*kir.Var]*loopSel)
	if lp != nil {
		// Pre-loop definitions: expected trip count, iteration counter,
		// accumulators, private counters.
		if lp.expected != nil {
			out = append(out, kir.Define{Dst: lp.expected, E: lp.tripExpr})
		}
		if lp.iterCounter != nil {
			out = append(out, kir.Define{Dst: lp.iterCounter, E: kir.ConstI32(0)})
		}
		for _, sel := range lp.sels {
			selByVar[sel.v] = sel
			if sel.accum != nil {
				out = append(out, kir.Define{Dst: sel.accum, E: zeroConst(sel.accum.Type)})
			}
			if sel.ownCounter {
				out = append(out, kir.Define{Dst: sel.counter, E: kir.ConstI32(0)})
			}
		}
	}

	if f != nil {
		nf := &kir.For{Iter: f.Iter, Init: f.Init, Limit: f.Limit, Step: f.Step}
		nf.Body = ins.emitLoopBody(f.Body, lp, selByVar, f, true)
		out = append(out, nf)
	} else {
		nw := &kir.While{Cond: w.Cond}
		nw.Body = ins.emitLoopBody(w.Body, lp, selByVar, nil, true)
		out = append(out, nw)
	}

	if lp != nil {
		for _, sel := range lp.sels {
			accum := sel.accum
			if accum == nil {
				accum = sel.v // self-accumulator: check the variable itself
			}
			switch {
			case ins.opts.wantLoopCheck():
				out = append(out, kir.RangeCheck{Detector: sel.det, Accum: accum, Count: sel.counter})
			case ins.opts.Mode == ModeProfiler:
				out = append(out, kir.ProfileSample{Detector: sel.det, Accum: accum, Count: sel.counter})
			}
		}
		if lp.expected != nil && ins.opts.wantLoopCheck() {
			out = append(out, kir.EqualCheck{
				Detector: lp.iterDet,
				Count:    lp.iterCounter,
				Expected: kir.V(lp.expected),
			})
		}
	}
	return out
}

// emitLoopBody rewrites statements inside a loop region: FI probes for
// every state change (including loop iterators, the SM-scheduler fault
// class), plus the accumulation and counter statements for selected
// variables ("adding only two addition instructions inside a loop",
// Principle 1).
func (ins *instr) emitLoopBody(b kir.Block, lp *loopPlan, selByVar map[*kir.Var]*loopSel, f *kir.For, outer bool) kir.Block {
	out := kir.Block{}
	if outer && lp != nil && lp.iterCounter != nil {
		out = append(out, kir.Assign{
			Dst: lp.iterCounter,
			E:   kir.XAdd(kir.V(lp.iterCounter), kir.ConstI32(1)),
		})
	}
	if f != nil {
		// The iterator is architecture state of the SM scheduler's warp
		// control flow; corrupting it models scheduler faults.
		out = ins.emitSite(out, f.Iter, kir.HWScheduler, true)
	}
	for _, s := range b {
		switch n := s.(type) {
		case kir.Define:
			out = append(out, n)
			if !n.Dst.Synth {
				out = ins.emitSite(out, n.Dst, hwOf(n.E), true)
			}
			out = ins.emitAccum(out, n.Dst, selByVar)
		case kir.Assign:
			out = append(out, n)
			if !n.Dst.Synth {
				out = ins.emitSite(out, n.Dst, hwOf(n.E), true)
			}
			out = ins.emitAccum(out, n.Dst, selByVar)
		case *kir.If:
			ni := &kir.If{Cond: n.Cond}
			ni.Then = ins.emitLoopBody(n.Then, lp, selByVar, nil, false)
			ni.Else = ins.emitLoopBody(n.Else, lp, selByVar, nil, false)
			// emitLoopBody(…, nil, false) never prepends counters, so the
			// branch bodies come back purely rewritten.
			out = append(out, ni)
		case *kir.For:
			nf := &kir.For{Iter: n.Iter, Init: n.Init, Limit: n.Limit, Step: n.Step}
			nf.Body = ins.emitLoopBody(n.Body, lp, selByVar, n, false)
			out = append(out, nf)
		case *kir.While:
			nw := &kir.While{Cond: n.Cond}
			nw.Body = ins.emitLoopBody(n.Body, lp, selByVar, nil, false)
			out = append(out, nw)
		default:
			out = append(out, s)
		}
	}
	return out
}

// emitAccum inserts the value accumulation (and private counter) right
// after a selected variable's definition (Section V.B steps ii–iii).
func (ins *instr) emitAccum(out kir.Block, v *kir.Var, selByVar map[*kir.Var]*loopSel) kir.Block {
	sel := selByVar[v]
	if sel == nil {
		return out
	}
	if !sel.selfAccum {
		out = append(out, kir.Assign{Dst: sel.accum, E: kir.XAdd(kir.V(sel.accum), kir.V(v))})
	}
	if sel.ownCounter {
		out = append(out, kir.Assign{Dst: sel.counter, E: kir.XAdd(kir.V(sel.counter), kir.ConstI32(1))})
	}
	return out
}

// xorStmt is one checksum update: chksum ^= bits(v).
func (ins *instr) xorStmt(v *kir.Var) kir.Stmt {
	return kir.Assign{
		Dst: ins.chksum,
		E:   kir.XXor(kir.V(ins.chksum), kir.AsU32(kir.V(v))),
	}
}

// dupCheck compares the 32-bit register images of the original and
// duplicated variables and raises the SDC bit on mismatch. Comparing raw
// bits (not FP values) keeps NaN results comparable and matches the
// checksum's view of state.
func (ins *instr) dupCheck(orig, dup *kir.Var) kir.Stmt {
	return &kir.If{
		Cond: kir.XNe(kir.AsU32(kir.V(orig)), kir.AsU32(kir.V(dup))),
		Then: kir.Block{kir.SetSDC{Detector: ins.nlDet, Kind: kir.DetectDup}},
	}
}

// hwOf classifies the hardware component a defining expression exercises
// (Section VII fault locations): FP arithmetic uses the FPU, integer
// arithmetic the ALU, and pure moves only the register file.
func hwOf(e kir.Expr) kir.HW {
	hw := kir.HWRegister
	kir.WalkExpr(e, func(x kir.Expr) bool {
		switch n := x.(type) {
		case kir.Bin:
			if n.ResultType() == kir.F32 || n.L.ResultType() == kir.F32 {
				hw = kir.HWFPU
				return false
			}
			if hw == kir.HWRegister {
				hw = kir.HWALU
			}
		case kir.Un:
			if n.ResultType() == kir.F32 {
				hw = kir.HWFPU
				return false
			}
			if hw == kir.HWRegister {
				hw = kir.HWALU
			}
		case kir.Call:
			hw = kir.HWFPU
			return false
		case kir.Convert:
			if hw == kir.HWRegister {
				hw = kir.HWALU
			}
		}
		return true
	})
	return hw
}

func zeroConst(t kir.Type) kir.Expr {
	switch t {
	case kir.F32:
		return kir.ConstF32(0)
	case kir.U32:
		return kir.ConstU32(0)
	default:
		return kir.ConstI32(0)
	}
}

// assignedAnywhere reports whether v is the target of any Assign in b.
func assignedAnywhere(b kir.Block, v *kir.Var) bool {
	found := false
	kir.WalkStmts(b, func(s kir.Stmt) bool {
		if a, ok := s.(kir.Assign); ok && a.Dst == v {
			found = true
		}
		return !found
	})
	return found
}
