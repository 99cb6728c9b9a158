package gpu

import (
	"fmt"
	"math"

	"hauberk/internal/kir"
)

// The tree walker: a recursive interpreter over the kir tree, kept only as
// the differential tests' oracle (launchOn in export_test.go selects it).
// It is deliberately a second, independent statement of the opcode
// semantics and of the charge order, which is what lets it catch a
// compiler or fusion bug. Everything that is not semantics it shares with
// the production engine: checkLaunch, finishResult, convert, checkAccess,
// CostModel.binCost/callCost and the device's load overlay.

// launchTree runs a validated launch through the recursive tree-walking
// interpreter. It is the semantic oracle for the bytecode engine: the
// differential tests hold the two engines to bit-identical results.
func (d *Device) launchTree(k *kir.Kernel, spec LaunchSpec) (*Result, error) {
	an := kir.Analyze(k)
	ex := &exec{
		d:      d,
		k:      k,
		spec:   spec,
		hooks:  spec.Hooks,
		cost:   d.cfg.Costs,
		budget: d.stepBudget(&spec),
	}
	if an.MaxLive > d.cfg.RegsPerThread {
		frac := float64(an.MaxLive-d.cfg.RegsPerThread) / float64(an.MaxLive)
		ex.spillExtra = d.cfg.Costs.SpillPenalty * frac
	}

	res := &Result{Threads: spec.Grid * spec.Block, MaxLive: an.MaxLive, Spill: ex.spillExtra > 0}
	warp := d.cfg.WarpSize
	var sumWarpCycles, sumThreadCycles, sumLoopCycles float64

	for blk := 0; blk < spec.Grid; blk++ {
		var warpMax float64
		for tid := 0; tid < spec.Block; tid++ {
			t := &thread{
				ex:   ex,
				tc:   ThreadCtx{Block: blk, Thread: tid},
				regs: make([]uint32, k.NumVars()),
			}
			for i, p := range k.Params {
				if p.Type == kir.Ptr {
					t.regs[p.ID] = spec.Args[i].Buf.Off
				} else {
					t.regs[p.ID] = spec.Args[i].Scalar
				}
			}
			err := t.block(k.Body, 0)
			sumThreadCycles += t.cycles
			sumLoopCycles += t.loopCycles
			if t.cycles > warpMax {
				warpMax = t.cycles
			}
			if (tid+1)%warp == 0 || tid == spec.Block-1 {
				sumWarpCycles += warpMax
				warpMax = 0
			}
			res.Loads += t.loads
			res.Stores += t.stores
			res.MaxSteps = max(res.MaxSteps, t.steps)
			if err != nil {
				finishResult(res, d, sumWarpCycles, sumThreadCycles, sumLoopCycles)
				return res, err
			}
		}
	}
	finishResult(res, d, sumWarpCycles, sumThreadCycles, sumLoopCycles)
	return res, nil
}

// exec carries per-launch execution state shared by all threads.
type exec struct {
	d          *Device
	k          *kir.Kernel
	spec       LaunchSpec
	hooks      Hooks
	cost       CostModel
	spillExtra float64
	budget     int // statements one thread may execute
}

// thread is the per-thread interpreter state.
type thread struct {
	ex         *exec
	tc         ThreadCtx
	regs       []uint32
	cycles     float64
	loopCycles float64
	steps      int
	depth      int // loop nesting depth
	loads      int64
	stores     int64
}

func (t *thread) charge(c float64) {
	t.cycles += c
	if t.depth > 0 {
		t.loopCycles += c
	}
}

func (t *thread) crash(format string, args ...any) error {
	return &CrashError{Reason: fmt.Sprintf(format, args...), Block: t.tc.Block, Thread: t.tc.Thread}
}

func (t *thread) step() error {
	t.steps++
	if t.steps > t.ex.budget {
		return &HangError{Block: t.tc.Block, Thread: t.tc.Thread, Steps: t.steps, Budget: t.ex.budget}
	}
	return nil
}

func (t *thread) readReg(v *kir.Var) uint32 {
	t.charge(t.ex.spillExtra)
	return t.regs[v.ID]
}

func (t *thread) writeReg(v *kir.Var, val uint32) {
	t.charge(t.ex.cost.RegMove + t.ex.spillExtra)
	t.regs[v.ID] = val
}

func (t *thread) block(b kir.Block, depth int) error {
	saved := t.depth
	t.depth = depth
	defer func() { t.depth = saved }()
	for _, s := range b {
		if err := t.stmt(s, depth); err != nil {
			return err
		}
	}
	return nil
}

func (t *thread) stmt(s kir.Stmt, depth int) error {
	if err := t.step(); err != nil {
		return err
	}
	c := &t.ex.cost
	switch n := s.(type) {
	case kir.Define:
		val, err := t.eval(n.E)
		if err != nil {
			return err
		}
		t.writeReg(n.Dst, val)
	case kir.Assign:
		val, err := t.eval(n.E)
		if err != nil {
			return err
		}
		t.writeReg(n.Dst, val)
	case kir.Store:
		idx, err := t.eval(n.Index)
		if err != nil {
			return err
		}
		val, err := t.eval(n.Val)
		if err != nil {
			return err
		}
		addr := t.readReg(n.Base) + idx
		if reason := t.ex.d.checkAccess(addr); reason != "" {
			return t.crash("store: %s", reason)
		}
		t.charge(c.Mem)
		t.stores++
		t.ex.d.storeWord(addr, val)
	case *kir.If:
		t.charge(c.Branch)
		cond, err := t.eval(n.Cond)
		if err != nil {
			return err
		}
		if cond != 0 {
			return t.block(n.Then, depth)
		}
		return t.block(n.Else, depth)
	case *kir.For:
		init, err := t.eval(n.Init)
		if err != nil {
			return err
		}
		t.writeReg(n.Iter, init)
		for {
			if err := t.step(); err != nil {
				return err
			}
			t.depth = depth + 1
			limit, err := t.eval(n.Limit)
			t.charge(c.LoopOver)
			if err != nil {
				t.depth = depth
				return err
			}
			if int32(t.regs[n.Iter.ID]) >= int32(limit) {
				t.depth = depth
				break
			}
			if err := t.block(n.Body, depth+1); err != nil {
				t.depth = depth
				return err
			}
			t.depth = depth + 1
			stepv, err := t.eval(n.Step)
			if err != nil {
				t.depth = depth
				return err
			}
			t.regs[n.Iter.ID] = uint32(int32(t.regs[n.Iter.ID]) + int32(stepv))
			t.charge(c.IntOp)
			t.depth = depth
		}
	case *kir.While:
		for {
			if err := t.step(); err != nil {
				return err
			}
			t.depth = depth + 1
			cond, err := t.eval(n.Cond)
			t.charge(c.LoopOver)
			if err != nil {
				t.depth = depth
				return err
			}
			if cond == 0 {
				t.depth = depth
				break
			}
			if err := t.block(n.Body, depth+1); err != nil {
				t.depth = depth
				return err
			}
			t.depth = depth
		}
	case kir.Sync:
		t.charge(c.Sync)
	case kir.FIProbe:
		if t.ex.hooks != nil {
			val, changed := t.ex.hooks.Probe(t.tc, n.Site, n.Target, n.HW, t.regs[n.Target.ID])
			if changed {
				t.regs[n.Target.ID] = val
			}
		}
	case kir.CountExec:
		if t.ex.hooks != nil {
			t.ex.hooks.CountExec(t.tc, n.Site)
		}
	case kir.RangeCheck:
		if n.Accum.Type == kir.F32 {
			t.charge(c.RangeCheckFP)
		} else {
			t.charge(c.RangeCheckInt)
		}
		if t.ex.hooks != nil {
			t.ex.hooks.RangeCheck(t.tc, n.Detector, t.averaged(n.Accum, n.Count))
		}
	case kir.EqualCheck:
		t.charge(c.EqualCheck)
		exp, err := t.eval(n.Expected)
		if err != nil {
			return err
		}
		if t.ex.hooks != nil {
			t.ex.hooks.EqualCheck(t.tc, n.Detector, int32(t.regs[n.Count.ID]), int32(exp))
		}
	case kir.ProfileSample:
		if t.ex.hooks != nil {
			t.ex.hooks.ProfileSample(t.tc, n.Detector, t.averaged(n.Accum, n.Count))
		}
	case kir.SetSDC:
		t.charge(c.SetSDC)
		if t.ex.hooks != nil {
			t.ex.hooks.SetSDC(t.tc, n.Detector, n.Kind)
		}
	default:
		return t.crash("unknown statement %T", s)
	}
	return nil
}

// averaged returns accum/count as float64 (count nil or zero: accum alone),
// matching HauberkCheckRange's "accumulator / iterator" argument.
func (t *thread) averaged(accum, count *kir.Var) float64 {
	var v float64
	switch accum.Type {
	case kir.F32:
		v = float64(math.Float32frombits(t.regs[accum.ID]))
	case kir.U32:
		v = float64(t.regs[accum.ID])
	default:
		v = float64(int32(t.regs[accum.ID]))
	}
	if count != nil {
		if n := int32(t.regs[count.ID]); n != 0 {
			v /= float64(n)
		}
	}
	return v
}

func (t *thread) eval(e kir.Expr) (uint32, error) {
	c := &t.ex.cost
	switch n := e.(type) {
	case kir.Const:
		return n.Bits, nil
	case kir.VarRef:
		return t.readReg(n.V), nil
	case kir.Bin:
		l, err := t.eval(n.L)
		if err != nil {
			return 0, err
		}
		r, err := t.eval(n.R)
		if err != nil {
			return 0, err
		}
		opType := n.L.ResultType()
		if n.Op.Comparison() || !n.Op.Logical() {
			t.charge(c.binCost(n.Op, opType))
		} else {
			t.charge(c.IntOp)
		}
		return t.binop(n.Op, opType, l, r)
	case kir.Un:
		x, err := t.eval(n.X)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case kir.Neg:
			if n.X.ResultType() == kir.F32 {
				t.charge(c.FPOp)
				return math.Float32bits(-math.Float32frombits(x)), nil
			}
			t.charge(c.IntOp)
			return uint32(-int32(x)), nil
		case kir.Not:
			t.charge(c.IntOp)
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		case kir.BNot:
			t.charge(c.IntOp)
			return ^x, nil
		}
		return 0, t.crash("unknown unary op %v", n.Op)
	case kir.Load:
		idx, err := t.eval(n.Index)
		if err != nil {
			return 0, err
		}
		addr := t.readReg(n.Base) + idx
		if reason := t.ex.d.checkAccess(addr); reason != "" {
			return 0, t.crash("load: %s", reason)
		}
		t.charge(c.Mem)
		t.loads++
		val := t.ex.d.loadWord(addr)
		if f := t.ex.d.overlay; f != nil {
			val = f(addr, val)
		}
		return val, nil
	case kir.Call:
		// Builtins take at most two arguments; evaluating into locals
		// avoids a per-evaluation slice allocation in the hot loop.
		var a0, a1 uint32
		for i, a := range n.Args {
			v, err := t.eval(a)
			if err != nil {
				return 0, err
			}
			if i == 0 {
				a0 = v
			} else if i == 1 {
				a1 = v
			}
		}
		t.charge(c.callCost(n.Fn))
		return t.call(n.Fn, n.Args, a0, a1)
	case kir.Special:
		t.charge(c.RegMove)
		switch n.Kind {
		case kir.ThreadIdx:
			return uint32(t.tc.Thread), nil
		case kir.BlockIdx:
			return uint32(t.tc.Block), nil
		case kir.BlockDim:
			return uint32(t.ex.spec.Block), nil
		case kir.GridDim:
			return uint32(t.ex.spec.Grid), nil
		}
		return 0, t.crash("unknown special %v", n.Kind)
	case kir.Convert:
		x, err := t.eval(n.X)
		if err != nil {
			return 0, err
		}
		t.charge(c.Convert)
		return convert(n.X.ResultType(), n.To, x), nil
	case kir.Bitcast:
		x, err := t.eval(n.X)
		if err != nil {
			return 0, err
		}
		t.charge(c.RegMove)
		return x, nil
	}
	return 0, t.crash("unknown expression %T", e)
}

func (t *thread) binop(op kir.BinOp, typ kir.Type, l, r uint32) (uint32, error) {
	b2u := func(b bool) uint32 {
		if b {
			return 1
		}
		return 0
	}
	if typ == kir.F32 && !op.Logical() {
		lf, rf := math.Float32frombits(l), math.Float32frombits(r)
		switch op {
		case kir.Add:
			return math.Float32bits(lf + rf), nil
		case kir.Sub:
			return math.Float32bits(lf - rf), nil
		case kir.Mul:
			return math.Float32bits(lf * rf), nil
		case kir.Div:
			// FP divide by zero yields an infinity, not an exception
			// (Section II.A cause (b)).
			return math.Float32bits(lf / rf), nil
		case kir.Eq:
			return b2u(lf == rf), nil
		case kir.Ne:
			return b2u(lf != rf), nil
		case kir.Lt:
			return b2u(lf < rf), nil
		case kir.Le:
			return b2u(lf <= rf), nil
		case kir.Gt:
			return b2u(lf > rf), nil
		case kir.Ge:
			return b2u(lf >= rf), nil
		}
		return 0, t.crash("op %v not defined on f32", op)
	}
	signed := typ == kir.I32
	switch op {
	case kir.Add:
		return l + r, nil
	case kir.Sub:
		return l - r, nil
	case kir.Mul:
		return uint32(int32(l) * int32(r)), nil
	case kir.Div:
		if r == 0 {
			return 0, t.crash("integer divide by zero")
		}
		if signed {
			return uint32(int32(l) / int32(r)), nil
		}
		return l / r, nil
	case kir.Rem:
		if r == 0 {
			return 0, t.crash("integer remainder by zero")
		}
		if signed {
			return uint32(int32(l) % int32(r)), nil
		}
		return l % r, nil
	case kir.And, kir.LAnd:
		if op == kir.LAnd {
			return b2u(l != 0 && r != 0), nil
		}
		return l & r, nil
	case kir.Or, kir.LOr:
		if op == kir.LOr {
			return b2u(l != 0 || r != 0), nil
		}
		return l | r, nil
	case kir.Xor:
		return l ^ r, nil
	case kir.Shl:
		return l << (r & 31), nil
	case kir.Shr:
		if signed {
			return uint32(int32(l) >> (r & 31)), nil
		}
		return l >> (r & 31), nil
	case kir.Eq:
		return b2u(l == r), nil
	case kir.Ne:
		return b2u(l != r), nil
	case kir.Lt:
		if signed {
			return b2u(int32(l) < int32(r)), nil
		}
		return b2u(l < r), nil
	case kir.Le:
		if signed {
			return b2u(int32(l) <= int32(r)), nil
		}
		return b2u(l <= r), nil
	case kir.Gt:
		if signed {
			return b2u(int32(l) > int32(r)), nil
		}
		return b2u(l > r), nil
	case kir.Ge:
		if signed {
			return b2u(int32(l) >= int32(r)), nil
		}
		return b2u(l >= r), nil
	}
	return 0, t.crash("unknown binary op %v", op)
}

func (t *thread) call(fn kir.Builtin, argExprs []kir.Expr, arg0, arg1 uint32) (uint32, error) {
	typ := argExprs[0].ResultType()
	if typ != kir.F32 {
		// Integer min/max/abs; transcendental builtins require F32.
		a := int32(arg0)
		switch fn {
		case kir.Abs:
			if a < 0 {
				a = -a
			}
			return uint32(a), nil
		case kir.Min:
			b := int32(arg1)
			if b < a {
				a = b
			}
			return uint32(a), nil
		case kir.Max:
			b := int32(arg1)
			if b > a {
				a = b
			}
			return uint32(a), nil
		default:
			return 0, t.crash("builtin %v requires f32 operand", fn)
		}
	}
	x := float64(math.Float32frombits(arg0))
	var y float64
	switch fn {
	case kir.Sqrt:
		y = math.Sqrt(x)
	case kir.RSqrt:
		y = 1 / math.Sqrt(x)
	case kir.Exp:
		y = math.Exp(x)
	case kir.Log:
		y = math.Log(x)
	case kir.Sin:
		y = math.Sin(x)
	case kir.Cos:
		y = math.Cos(x)
	case kir.Abs:
		y = math.Abs(x)
	case kir.Floor:
		y = math.Floor(x)
	case kir.Min:
		y = math.Min(x, float64(math.Float32frombits(arg1)))
	case kir.Max:
		y = math.Max(x, float64(math.Float32frombits(arg1)))
	default:
		return 0, t.crash("unknown builtin %v", fn)
	}
	return math.Float32bits(float32(y)), nil
}

// loadWord reads one word with GPU semantics: addresses beyond the
// physical arena but inside the flat address space read unallocated device
// memory, which is zeroed — so a wild read often returns a harmless value,
// one of the masking paths real GPUs exhibit.
func (d *Device) loadWord(addr uint32) uint32 {
	if int(addr) < len(d.arena) {
		return d.arena[addr]
	}
	return 0
}

// storeWord writes one word; writes beyond the physical arena land in
// unallocated device memory and have no observable effect.
func (d *Device) storeWord(addr, val uint32) {
	if int(addr) < len(d.arena) {
		d.arena[addr] = val
	}
}
