package gpu

import (
	"math"
	"math/bits"

	"hauberk/internal/kir"
)

// launchBytecode executes a validated launch through the compiled bytecode
// engine: compile (or hit the program cache), then one serial
// (block, thread) loop with live hook delivery — for every launch, hooked or
// not, faulted or not. The warp aggregation, SM spreading, and
// early-exit-on-error behaviour replicate launchTree exactly; the
// per-thread inner loop is the flat dispatch in (*bcThread).run.
func (d *Device) launchBytecode(k *kir.Kernel, spec LaunchSpec) (*Result, error) {
	p, hit := programFor(k, d.cfg)
	if spec.Obs.Enabled() {
		result := "miss"
		if hit {
			result = "hit"
		}
		m := spec.Obs.Metrics()
		m.Counter("hauberk_program_cache_total",
			"kernel", k.Name, "result", result).Inc()
		m.Help("hauberk_launch_modes_total",
			"bytecode launches by execution mode (always serial: there is one engine)")
		m.Counter("hauberk_launch_modes_total", "kernel", k.Name, "mode", "serial").Inc()
	}

	res := &Result{Threads: spec.Grid * spec.Block, MaxLive: p.maxLive, Spill: p.spillExtra > 0}
	warp := d.cfg.WarpSize
	var sumWarpCycles, sumThreadCycles, sumLoopCycles float64

	// One pooled register file for the whole launch: variable slots are
	// cleared per thread, the constant pool is loaded at slice creation
	// (and stays valid across reuses — temporaries never alias constant
	// slots), and temporaries are written before they are read within
	// each straight-line segment.
	regsRef := p.getRegs()
	defer p.putRegs(regsRef)

	t := bcThread{
		d:      d,
		p:      p,
		spec:   &spec,
		hooks:  spec.Hooks,
		regs:   *regsRef,
		budget: d.stepBudget(&spec),
		fault:  d.overlay,
	}
	regs := t.regs
	// In GPU mode any address below the virtual limit is a valid access, so
	// the dispatch loop can skip the (non-inlinable) checkAccess call on the
	// fast path. CPU mode keeps the limit at zero: every access goes through
	// the full page-map check.
	if d.cfg.Mode == ModeGPU {
		t.fastLimit = VirtualWords
	}

	for blk := 0; blk < spec.Grid; blk++ {
		var warpMax float64
		for tid := 0; tid < spec.Block; tid++ {
			clear(regs[:p.nv])
			for i, par := range k.Params {
				if par.Type == kir.Ptr {
					regs[par.ID] = spec.Args[i].Buf.Off
				} else {
					regs[par.ID] = spec.Args[i].Scalar
				}
			}
			t.tc = ThreadCtx{Block: blk, Thread: tid}
			err := t.run()
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

// bcThread is the per-thread state of the bytecode engine. The counters are
// overwritten (not accumulated) by each run call.
type bcThread struct {
	d         *Device
	p         *program
	spec      *LaunchSpec
	hooks     Hooks
	tc        ThreadCtx
	regs      []uint32
	budget    int
	fastLimit uint32 // addresses below it never fail checkAccess
	// fault is applied to every loaded word (nil: none). Launch passes the
	// device overlay; Record wraps it to note which thread loaded the word.
	fault func(addr, val uint32) uint32
	// rec, when non-nil, receives every in-arena store (Record and Resume).
	rec *storeLog

	cycles     float64
	loopCycles float64
	loads      int64
	stores     int64
	steps      int
}

func (t *bcThread) crash(reason string) error {
	return &CrashError{Reason: reason, Block: t.tc.Block, Thread: t.tc.Thread}
}

// run executes the program for one thread. Cycle accounting is bit-identical
// to the tree-walker: every charge the tree would issue maps to one cost
// add here, in the same order (see the determinism contract in bytecode.go).
func (t *bcThread) run() error {
	p := t.p
	insts := p.insts
	regs := t.regs
	d := t.d
	arena := d.arena
	fault := t.fault
	rec := t.rec
	fastLimit := t.fastLimit
	var cycles, loopCycles float64
	var steps int
	var loads, stores int64
	var err error
	pc := 0

loop:
	for pc < len(insts) {
		in := &insts[pc]
		if in.flags&fStep != 0 {
			steps++
			if steps > t.budget {
				err = &HangError{Block: t.tc.Block, Thread: t.tc.Thread, Steps: steps, Budget: t.budget}
				break loop
			}
		}
		switch in.op {
		case opNop:
			// step carrier only

		case opCharge:
			cycles += in.cost
			loopCycles += in.costLoop

		case opMove:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = regs[in.b]

		case opJmp:
			pc = int(in.a)
			continue

		case opJZ:
			cycles += in.cost
			loopCycles += in.costLoop
			if regs[in.b] == 0 {
				pc = int(in.a)
				continue
			}

		case opForTest:
			cycles += in.cost
			loopCycles += in.costLoop
			if int32(regs[in.b]) >= int32(regs[in.c]) {
				pc = int(in.a)
				continue
			}

		case opForInc:
			regs[in.a] = uint32(int32(regs[in.a]) + int32(regs[in.b]))
			cycles += in.cost
			loopCycles += in.costLoop

		case opCrash:
			cycles += in.cost
			loopCycles += in.costLoop
			err = t.crash(p.crashMsgs[in.imm])
			break loop

		case opLoad:
			addr := regs[in.b] + regs[in.c]
			if addr >= fastLimit {
				if reason := d.checkAccess(addr); reason != "" {
					err = t.crash("load: " + reason)
					break loop
				}
			}
			cycles += in.cost
			loopCycles += in.costLoop
			loads++
			var val uint32
			if int(addr) < len(arena) {
				val = arena[addr]
			}
			if fault != nil {
				val = fault(addr, val)
			}
			regs[in.a] = val

		case opStore:
			addr := regs[in.a] + regs[in.b]
			if addr >= fastLimit {
				if reason := d.checkAccess(addr); reason != "" {
					err = t.crash("store: " + reason)
					break loop
				}
			}
			cycles += in.cost
			loopCycles += in.costLoop
			stores++
			if int(addr) < len(arena) {
				if rec != nil {
					rec.note(addr, regs[in.c], arena[addr])
				}
				arena[addr] = regs[in.c]
			}

		// Integer ALU. Costs are charged before the operation, matching the
		// tree-walker's charge-then-compute order (observable at the
		// divide-by-zero crashes, which the tree charges for first).
		case opAddI:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = regs[in.b] + regs[in.c]
		case opSubI:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = regs[in.b] - regs[in.c]
		case opMulI:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = uint32(int32(regs[in.b]) * int32(regs[in.c]))
		case opDivS:
			cycles += in.cost
			loopCycles += in.costLoop
			if regs[in.c] == 0 {
				err = t.crash("integer divide by zero")
				break loop
			}
			regs[in.a] = uint32(int32(regs[in.b]) / int32(regs[in.c]))
		case opDivU:
			cycles += in.cost
			loopCycles += in.costLoop
			if regs[in.c] == 0 {
				err = t.crash("integer divide by zero")
				break loop
			}
			regs[in.a] = regs[in.b] / regs[in.c]
		case opRemS:
			cycles += in.cost
			loopCycles += in.costLoop
			if regs[in.c] == 0 {
				err = t.crash("integer remainder by zero")
				break loop
			}
			regs[in.a] = uint32(int32(regs[in.b]) % int32(regs[in.c]))
		case opRemU:
			cycles += in.cost
			loopCycles += in.costLoop
			if regs[in.c] == 0 {
				err = t.crash("integer remainder by zero")
				break loop
			}
			regs[in.a] = regs[in.b] % regs[in.c]
		case opAnd:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = regs[in.b] & regs[in.c]
		case opOr:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = regs[in.b] | regs[in.c]
		case opXor:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = regs[in.b] ^ regs[in.c]
		case opShl:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = regs[in.b] << (regs[in.c] & 31)
		case opShrS:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = uint32(int32(regs[in.b]) >> (regs[in.c] & 31))
		case opShrU:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = regs[in.b] >> (regs[in.c] & 31)
		case opLAnd:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(regs[in.b] != 0 && regs[in.c] != 0)
		case opLOr:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(regs[in.b] != 0 || regs[in.c] != 0)
		case opEqI:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(regs[in.b] == regs[in.c])
		case opNeI:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(regs[in.b] != regs[in.c])
		case opLtS:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(int32(regs[in.b]) < int32(regs[in.c]))
		case opLeS:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(int32(regs[in.b]) <= int32(regs[in.c]))
		case opGtS:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(int32(regs[in.b]) > int32(regs[in.c]))
		case opGeS:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(int32(regs[in.b]) >= int32(regs[in.c]))
		case opLtU:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(regs[in.b] < regs[in.c])
		case opLeU:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(regs[in.b] <= regs[in.c])
		case opGtU:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(regs[in.b] > regs[in.c])
		case opGeU:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(regs[in.b] >= regs[in.c])

		// FP ALU. Divide by zero yields an infinity, not an exception
		// (Section II.A cause (b)).
		case opAddF:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = math.Float32bits(math.Float32frombits(regs[in.b]) + math.Float32frombits(regs[in.c]))
		case opSubF:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = math.Float32bits(math.Float32frombits(regs[in.b]) - math.Float32frombits(regs[in.c]))
		case opMulF:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = math.Float32bits(math.Float32frombits(regs[in.b]) * math.Float32frombits(regs[in.c]))
		case opDivF:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = math.Float32bits(math.Float32frombits(regs[in.b]) / math.Float32frombits(regs[in.c]))
		case opEqF:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(math.Float32frombits(regs[in.b]) == math.Float32frombits(regs[in.c]))
		case opNeF:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(math.Float32frombits(regs[in.b]) != math.Float32frombits(regs[in.c]))
		case opLtF:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(math.Float32frombits(regs[in.b]) < math.Float32frombits(regs[in.c]))
		case opLeF:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(math.Float32frombits(regs[in.b]) <= math.Float32frombits(regs[in.c]))
		case opGtF:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(math.Float32frombits(regs[in.b]) > math.Float32frombits(regs[in.c]))
		case opGeF:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(math.Float32frombits(regs[in.b]) >= math.Float32frombits(regs[in.c]))

		case opNegI:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = uint32(-int32(regs[in.b]))
		case opNegF:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = math.Float32bits(-math.Float32frombits(regs[in.b]))
		case opNotL:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = b2u(regs[in.b] == 0)
		case opBNot:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = ^regs[in.b]

		case opF2I:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = convert(kir.F32, kir.I32, regs[in.b])
		case opF2U:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = convert(kir.F32, kir.U32, regs[in.b])
		case opI2F:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = math.Float32bits(float32(int32(regs[in.b])))
		case opU2F:
			cycles += in.cost
			loopCycles += in.costLoop
			regs[in.a] = math.Float32bits(float32(regs[in.b]))

		case opCallI:
			cycles += in.cost
			loopCycles += in.costLoop
			a := int32(regs[in.b])
			switch kir.Builtin(in.imm) {
			case kir.Abs:
				if a < 0 {
					a = -a
				}
			case kir.Min:
				if b := int32(regs[in.c]); b < a {
					a = b
				}
			case kir.Max:
				if b := int32(regs[in.c]); b > a {
					a = b
				}
			}
			regs[in.a] = uint32(a)

		case opCallF:
			cycles += in.cost
			loopCycles += in.costLoop
			x := float64(math.Float32frombits(regs[in.b]))
			var y float64
			switch kir.Builtin(in.imm) {
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
				y = math.Min(x, float64(math.Float32frombits(regs[in.c])))
			case kir.Max:
				y = math.Max(x, float64(math.Float32frombits(regs[in.c])))
			}
			regs[in.a] = math.Float32bits(float32(y))

		case opSpecial:
			cycles += in.cost
			loopCycles += in.costLoop
			switch kir.SpecialKind(in.imm) {
			case kir.ThreadIdx:
				regs[in.a] = uint32(t.tc.Thread)
			case kir.BlockIdx:
				regs[in.a] = uint32(t.tc.Block)
			case kir.BlockDim:
				regs[in.a] = uint32(t.spec.Block)
			case kir.GridDim:
				regs[in.a] = uint32(t.spec.Grid)
			}

		case opProbe:
			if t.hooks != nil {
				val, changed := t.hooks.Probe(t.tc, int(in.imm), p.vars[in.a], kir.HW(in.b), regs[in.a])
				if changed {
					regs[in.a] = val
				}
			}

		case opCountExec:
			if t.hooks != nil {
				t.hooks.CountExec(t.tc, int(in.imm))
			}

		case opRangeCheck:
			cycles += in.cost
			loopCycles += in.costLoop
			if t.hooks != nil {
				t.hooks.RangeCheck(t.tc, int(in.imm), t.averagedSlots(in))
			}

		case opEqualCheck:
			if t.hooks != nil {
				t.hooks.EqualCheck(t.tc, int(in.imm), int32(regs[in.a]), int32(regs[in.b]))
			}

		case opProfileSample:
			if t.hooks != nil {
				t.hooks.ProfileSample(t.tc, int(in.imm), t.averagedSlots(in))
			}

		case opSetSDC:
			cycles += in.cost
			loopCycles += in.costLoop
			if t.hooks != nil {
				t.hooks.SetSDC(t.tc, int(in.imm), kir.DetectKind(in.a))
			}

		case opSync:
			cycles += in.cost
			loopCycles += in.costLoop

		// Superinstructions (fuse.go): each replicates the exact charge
		// order and crash points of the unfused pair it replaces. The
		// absorbed instruction's charges ride in cost2/costLoop2, added at
		// the bottom of the loop on fallthrough only.
		case opMulAddF:
			cycles += in.cost
			loopCycles += in.costLoop
			// The explicit float32 conversion is a contraction barrier:
			// the spec requires it to round, so the product cannot fuse
			// into an FMA and stays bit-identical to a separate opMulF.
			m := float32(math.Float32frombits(regs[in.c]) * math.Float32frombits(regs[in.d]))
			regs[in.a] = math.Float32bits(math.Float32frombits(regs[in.b]) + m)
		case opMulAddFL:
			cycles += in.cost
			loopCycles += in.costLoop
			m := float32(math.Float32frombits(regs[in.c]) * math.Float32frombits(regs[in.d]))
			regs[in.a] = math.Float32bits(m + math.Float32frombits(regs[in.b]))
		case opMulSubF:
			cycles += in.cost
			loopCycles += in.costLoop
			m := float32(math.Float32frombits(regs[in.c]) * math.Float32frombits(regs[in.d]))
			regs[in.a] = math.Float32bits(math.Float32frombits(regs[in.b]) - m)
		case opMulSubFL:
			cycles += in.cost
			loopCycles += in.costLoop
			m := float32(math.Float32frombits(regs[in.c]) * math.Float32frombits(regs[in.d]))
			regs[in.a] = math.Float32bits(m - math.Float32frombits(regs[in.b]))

		case opLoadIdx:
			// Index-compute charge at entry (the absorbed opLoad's Mem
			// charge rides in cost2); a failed access check crashes before
			// the Mem charge, exactly as the unfused pair would.
			cycles += in.cost
			loopCycles += in.costLoop
			idx := regs[in.c] + regs[in.d]
			if in.imm != 0 {
				idx = uint32(int32(regs[in.c]) * int32(regs[in.d]))
			}
			addr := regs[in.b] + idx
			if addr >= fastLimit {
				if reason := d.checkAccess(addr); reason != "" {
					err = t.crash("load: " + reason)
					break loop
				}
			}
			loads++
			var val uint32
			if int(addr) < len(arena) {
				val = arena[addr]
			}
			if fault != nil {
				val = fault(addr, val)
			}
			regs[in.a] = val

		case opLoadOpF:
			addr := regs[in.b] + regs[in.c]
			if addr >= fastLimit {
				if reason := d.checkAccess(addr); reason != "" {
					err = t.crash("load: " + reason)
					break loop
				}
			}
			cycles += in.cost // Mem, after the check, like opLoad
			loopCycles += in.costLoop
			loads++
			var val uint32
			if int(addr) < len(arena) {
				val = arena[addr]
			}
			if fault != nil {
				val = fault(addr, val)
			}
			lv := math.Float32frombits(val)
			ov := math.Float32frombits(regs[in.d])
			var r float32
			switch in.imm {
			case loAdd:
				r = ov + lv
			case loAdd | loSwap:
				r = lv + ov
			case loSub:
				r = ov - lv
			case loSub | loSwap:
				r = lv - ov
			case loMul:
				r = ov * lv
			default: // loMul | loSwap
				r = lv * ov
			}
			regs[in.a] = math.Float32bits(r)

		case opCmpJZ:
			cycles += in.cost
			loopCycles += in.costLoop
			if !cmpTrue(opcode(in.imm), regs[in.b], regs[in.c]) {
				pc = int(in.a)
				continue
			}
		}
		// Fused-away successor charges: reached on fallthrough only, so
		// taken branches and crash/hang exits skip them exactly as the
		// unfused stream would. +0.0 for unfused instructions.
		cycles += in.cost2
		loopCycles += in.costLoop2
		pc++
	}

	// The tree-walker charges a loop head's LoopOver cost even when the
	// head expression crashed. A crash inside a head-expression region owes
	// that charge before propagating; hangs do not (the tree's step check
	// precedes the head evaluation). Region charges are always loop time.
	if err != nil {
		if _, hang := err.(*HangError); !hang {
			for _, r := range p.regions {
				if pc >= r.start && pc < r.end {
					cycles += r.charge
					loopCycles += r.charge
					break
				}
			}
		}
	}

	t.cycles = cycles
	t.loopCycles = loopCycles
	t.loads = loads
	t.stores = stores
	t.steps = steps
	return err
}

// averagedSlots mirrors the tree-walker's averaged(): accumulator slot in
// in.a interpreted per in.c, divided by a non-zero count in slot in.b (-1:
// no count). Reads charge nothing.
func (t *bcThread) averagedSlots(in *inst) float64 {
	v := avgConvert(in.c, t.regs[in.a])
	if in.b >= 0 {
		v = avgDivide(v, int32(t.regs[in.b]))
	}
	return v
}

// recipPow2 holds the exact reciprocals of the positive power-of-two int32
// counts (1/2^k for k in [0, 30]), precomputed once so the hot averaged()
// path multiplies instead of divides. Every entry is a power of two, hence
// exactly representable; see avgDivide for why the substitution is
// bit-identical.
var recipPow2 = func() (t [31]float64) {
	for k := range t {
		t[k] = 1 / float64(uint32(1)<<uint(k))
	}
	return
}()

// avgConvert interprets a raw accumulator word per the averaging kind
// (opRangeCheck / opProfileSample operand c).
func avgConvert(kind int32, raw uint32) float64 {
	switch kind {
	case avgF32:
		return float64(math.Float32frombits(raw))
	case avgU32:
		return float64(raw)
	}
	return float64(int32(raw))
}

// avgDivide divides an averaged accumulator by its count, mirroring the
// tree-walker's `v /= float64(n)` (n == 0: no division). Counts are runtime
// loop-trip registers — and under fault injection a corrupted word — so
// they cannot be folded at compile time; instead positive power-of-two
// counts (the overwhelmingly common case: detectors sample power-of-two
// windows) take a precomputed-reciprocal multiply. IEEE 754 division and
// multiplication are both correctly rounded, and for d an exact power of
// two, v/d and v*(1/d) share the same exact quotient value scaled by a
// power of two, so they round identically for every v (including
// subnormals, infinities, and NaN) — the substitution is bit-identical,
// which the differential suites pin against the tree-walker oracle.
func avgDivide(v float64, n int32) float64 {
	if n == 0 {
		return v
	}
	if u := uint32(n); n > 0 && u&(u-1) == 0 {
		return v * recipPow2[bits.TrailingZeros32(u)]
	}
	return v / float64(n)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// cmpTrue evaluates a fused comparison (the original compare opcode stored
// in opCmpJZ's imm) on raw register bits, mirroring the standalone
// opcode's semantics exactly.
func cmpTrue(op opcode, x, y uint32) bool {
	switch op {
	case opLAnd:
		return x != 0 && y != 0
	case opLOr:
		return x != 0 || y != 0
	case opEqI:
		return x == y
	case opNeI:
		return x != y
	case opLtS:
		return int32(x) < int32(y)
	case opLeS:
		return int32(x) <= int32(y)
	case opGtS:
		return int32(x) > int32(y)
	case opGeS:
		return int32(x) >= int32(y)
	case opLtU:
		return x < y
	case opLeU:
		return x <= y
	case opGtU:
		return x > y
	case opGeU:
		return x >= y
	case opEqF:
		return math.Float32frombits(x) == math.Float32frombits(y)
	case opNeF:
		return math.Float32frombits(x) != math.Float32frombits(y)
	case opLtF:
		return math.Float32frombits(x) < math.Float32frombits(y)
	case opLeF:
		return math.Float32frombits(x) <= math.Float32frombits(y)
	case opGtF:
		return math.Float32frombits(x) > math.Float32frombits(y)
	case opGeF:
		return math.Float32frombits(x) >= math.Float32frombits(y)
	}
	return false
}
