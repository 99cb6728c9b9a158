package gpu

import (
	"sync"
	"sync/atomic"

	"hauberk/internal/kir"
)

// This file defines the bytecode program representation the compiled
// execution engine runs (see compile.go for the kir -> bytecode lowering and
// bcexec.go for the dispatch loop), plus the global program cache that makes
// a 10k-injection campaign compile each instrumented kernel variant once.
//
// Determinism contract: the dispatch loop must produce bit-identical cycle
// counts to the tree-walker in exec.go. float64 addition is commutative but
// not associative, so the compiler never merges two separate charge() calls
// of the tree-walker into one folded constant; it only drops charges that
// are exactly zero (adding +0.0 to a non-negative accumulator is a bitwise
// identity). Every instruction therefore carries the charge values the tree
// would have issued at the same point, in the same order. The same +0.0
// identity makes loop attribution branchless: each instruction carries a
// second charge (costLoop) added unconditionally to the loop-time
// accumulator — equal to cost for instructions inside a loop, +0.0 outside.
//
// Superinstruction fusion (fuse.go) extends the contract rather than
// bending it: a fused instruction carries the absorbed instruction's
// charges in a *separate* pair of slots (cost2/costLoop2) that the
// dispatch loop adds at the bottom of the iteration, on fallthrough only —
// never pre-summed into cost, because two nonzero float64 adds are not one
// add of their sum. Taken branches (`continue`) and crash/hang exits
// (`break loop`) skip the bottom of the iteration, which is exactly when
// the absorbed instruction would not have executed in the unfused stream.

// opcode enumerates bytecode operations. Binary/unary operators are
// specialized by operand type class at compile time so the dispatch loop
// pays no type tests.
type opcode uint8

const (
	opNop     opcode = iota // carrier for statement-entry steps
	opCharge                // charge cost only (spill reads, writeback, branch entry)
	opMove                  // regs[a] = regs[b], charging cost first
	opJmp                   // pc = a
	opJZ                    // charge cost; if regs[b] == 0 then pc = a
	opForTest               // charge cost; if int32(regs[b]) >= int32(regs[c]) then pc = a
	opForInc                // regs[a] += regs[b] (signed); charge cost
	opCrash                 // charge cost; crash with message crashMsgs[imm]

	opLoad  // regs[a] = mem[regs[b]+regs[c]] with access check + fault overlay
	opStore // mem[regs[a]+regs[b]] = regs[c] with access check

	// Integer ALU (I32/U32/Bool/Ptr payloads; add/sub/mul share bits).
	opAddI
	opSubI
	opMulI
	opDivS
	opDivU
	opRemS
	opRemU
	opAnd
	opOr
	opXor
	opShl
	opShrS
	opShrU
	opLAnd
	opLOr
	opEqI
	opNeI
	opLtS
	opLeS
	opGtS
	opGeS
	opLtU
	opLeU
	opGtU
	opGeU

	// FP ALU.
	opAddF
	opSubF
	opMulF
	opDivF
	opEqF
	opNeF
	opLtF
	opLeF
	opGtF
	opGeF

	// Unary.
	opNegI
	opNegF
	opNotL
	opBNot

	// Conversions (identity conversions compile to opMove).
	opF2I
	opF2U
	opI2F
	opU2F

	// Builtin calls: imm = kir.Builtin, args in b (and c for min/max).
	opCallI
	opCallF

	opSpecial // regs[a] = hardware index register imm (kir.SpecialKind)

	// Superinstructions (fuse.go). Never emitted by the compiler directly;
	// the peephole pass rewrites adjacent pairs into them. Each replicates
	// the exact charge order and crash points of the pair it replaces.
	opMulAddF  // regs[a] = regs[b] + regs[c]*regs[d] (product on the right)
	opMulAddFL // regs[a] = regs[c]*regs[d] + regs[b] (product on the left)
	opMulSubF  // regs[a] = regs[b] - regs[c]*regs[d]
	opMulSubFL // regs[a] = regs[c]*regs[d] - regs[b]
	opLoadIdx  // regs[a] = mem[regs[b] + (regs[c] ⊕ regs[d])], imm 0: add, 1: mul
	opLoadOpF  // regs[a] = regs[d] ⊕ mem[regs[b]+regs[c]], imm = loSub/loMul/loSwap bits
	opCmpJZ    // if !cmp[imm](regs[b], regs[c]) then pc = a

	// Intrinsic statements (Hauberk library calls).
	opProbe         // a = target var slot, b = kir.HW, imm = site
	opCountExec     // imm = site
	opRangeCheck    // a = accum slot, b = count slot or -1, c = avg kind, imm = detector
	opEqualCheck    // a = count slot, b = expected slot, imm = detector
	opProfileSample // like opRangeCheck, no charge
	opSetSDC        // a = kir.DetectKind, imm = detector
	opSync
)

// Instruction flags.
const (
	// fStep marks the first instruction of a source statement (and loop
	// iteration heads): the dispatch loop counts one interpreter step and
	// checks the hang budget, exactly where the tree-walker calls step().
	fStep uint8 = 1 << iota
)

// inst is one bytecode instruction. a/b/c are register slots or jump
// targets (d is a fourth slot used only by superinstructions); imm carries
// opcode-specific payload (builtin, site, detector, crash-message index).
// cost is charged at the opcode's semantic charge point — before the
// operation for ALU ops and crashes, after the access check for memory ops
// — mirroring the tree-walker's charge order. costLoop equals cost when
// the instruction sits inside a loop and +0.0 otherwise; the dispatch loop
// adds it to the loop-time accumulator unconditionally (a bitwise identity
// in the non-loop case). cost2/costLoop2 carry a fused-away successor's
// charges, added at the bottom of the dispatch iteration on fallthrough
// only (+0.0 for unfused instructions — again a bitwise identity).
type inst struct {
	op         opcode
	flags      uint8
	a, b, c, d int32
	imm        uint32
	cost       float64
	costLoop   float64
	cost2      float64
	costLoop2  float64
}

// errRegion marks the instruction range of a loop-head condition (For.Limit
// or While.Cond). The tree-walker charges LoopOver after evaluating the
// head expression even when that evaluation crashed; when an instruction
// inside the region fails with a crash, the dispatch loop adds the charge
// before propagating the error. Regions never nest: head expressions
// contain no statements, hence no other loop heads.
type errRegion struct {
	start, end int
	charge     float64
}

// avgKind selects the averaged() accumulator interpretation (opRangeCheck /
// opProfileSample operand c).
const (
	avgF32 int32 = iota
	avgU32
	avgI32
)

// program is one kernel compiled for one device cost configuration.
// Register slot layout: [0, nv) kernel variables (slot == Var.ID), then
// [nv, nv+len(consts)) the constant pool, then expression temporaries.
type program struct {
	insts  []inst
	consts []uint32   // pool values, loaded once per launch
	vars   []*kir.Var // kernel variable table (Probe targets)
	nv     int        // variable slots
	nslots int        // total register slots incl. consts and temps

	maxLive    int
	spillExtra float64

	crashMsgs []string
	regions   []errRegion

	// unfusedLen is the instruction count before superinstruction fusion
	// (== len(insts) when fusion is disabled); the difference is the
	// dispatch iterations fusion saves per straight-line pass.
	unfusedLen int

	// regPool recycles register files across launches (and across the
	// devices of concurrent campaign workers, which share the cached
	// program). Pooling per program keys the pool by exactly the
	// register-file size (nslots) and lets reused slices keep their
	// constant pool loaded: variable slots are cleared per thread and
	// temporaries never alias constant slots, so only a fresh slice pays
	// the copy.
	regPool sync.Pool
}

// getRegs returns a ready register file for this program: nslots words
// with the constant pool in place. Return it with putRegs.
func (p *program) getRegs() *[]uint32 {
	if v := p.regPool.Get(); v != nil {
		return v.(*[]uint32)
	}
	regs := make([]uint32, p.nslots)
	copy(regs[p.nv:], p.consts)
	return &regs
}

// putRegs recycles a register file obtained from getRegs.
func (p *program) putRegs(r *[]uint32) { p.regPool.Put(r) }

// fusionVersion identifies the superinstruction fusion pass generation; it
// participates in the program cache key so a cached fused program is never
// served to a device that disabled fusion (and vice versa), and so future
// catalog changes invalidate stale cache entries by construction.
const fusionVersion = 1

// progKey identifies a compiled program: the kernel (kernels are read-only
// at launch time, so pointer identity is sound) plus everything the cost
// folding depends on — the cost model values, the register file size that
// determines the spill penalty, and the fusion pass generation (0 when
// fusion is disabled).
type progKey struct {
	k     *kir.Kernel
	costs CostModel
	regs  int
	fuse  uint8
}

// progCacheCap bounds the cache; on overflow the whole cache is dropped
// (campaigns cycle through a handful of instrumented variants, so the cap
// is a leak guard, not a tuning knob).
const progCacheCap = 512

var progCache = struct {
	sync.RWMutex
	m map[progKey]*program
}{m: make(map[progKey]*program)}

var progCacheHits, progCacheMisses atomic.Int64

// programFor returns the compiled program for the kernel under the device
// configuration, compiling and caching on first use. hit reports whether
// the program came from the cache. The fast path is a read-locked map
// lookup with no allocation.
func programFor(k *kir.Kernel, cfg Config) (p *program, hit bool) {
	fuse := uint8(fusionVersion)
	if cfg.DisableFusion {
		fuse = 0
	}
	key := progKey{k: k, costs: cfg.Costs, regs: cfg.RegsPerThread, fuse: fuse}
	progCache.RLock()
	p = progCache.m[key]
	progCache.RUnlock()
	if p != nil {
		progCacheHits.Add(1)
		return p, true
	}
	p = compileProgram(k, cfg.Costs, cfg.RegsPerThread, fuse != 0)
	progCache.Lock()
	if q := progCache.m[key]; q != nil {
		p = q // another launch compiled it first
	} else {
		if len(progCache.m) >= progCacheCap {
			progCache.m = make(map[progKey]*program)
		}
		progCache.m[key] = p
	}
	progCache.Unlock()
	progCacheMisses.Add(1)
	return p, false
}

// ProgramCacheStats reports the compiled-program cache counters: cache
// hits, compiles (misses), and currently cached programs. Campaign-scale
// users can assert that instrumented variants compile once, not per launch.
func ProgramCacheStats() (hits, misses int64, size int) {
	progCache.RLock()
	size = len(progCache.m)
	progCache.RUnlock()
	return progCacheHits.Load(), progCacheMisses.Load(), size
}

// resetProgramCache clears the cache and its counters (tests only).
func resetProgramCache() {
	progCache.Lock()
	progCache.m = make(map[progKey]*program)
	progCache.Unlock()
	progCacheHits.Store(0)
	progCacheMisses.Store(0)
}
