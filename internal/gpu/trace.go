package gpu

import (
	"cmp"
	"runtime/debug"
	"slices"
	"sort"
	"unsafe"

	"hauberk/internal/kir"
)

// Golden-trace resume (DESIGN.md §5). A launch evaluates its threads in one
// serial (block, thread) order, threads start from fresh registers, and
// they communicate only through device memory. So a clean launch can be
// recorded once — per thread its stores, counters and detector calls, per
// word the last thread that loaded it and the last that touched it through
// a site the delta analysis (kir.AnalyzeDelta) calls opaque — and a launch
// that differs from it only in what its hooks do from some thread on can be
// executed from that thread, and stopped as soon as what it changed either
// cannot reach a later thread or reaches it only through transparent
// sites, whose effect is the recorded one plus a shift. Within a thread,
// Record also keeps checkpoints at statement boundaries (DESIGN.md §5,
// "Intra-thread checkpoints"), so the first live thread starts from the
// last one before its hooks stop behaving as they did in the golden run.

// storeRec is one in-arena store of a recorded thread.
type storeRec struct {
	addr, val uint32
	old       uint32 // the word before the store
}

// storeLog collects the stores of recorded threads, up to limit entries. A
// thread that stores more (a faulted retry loop spinning to its step budget
// writes millions of words) loses the log rather than growing it.
type storeLog struct {
	recs  []storeRec
	limit int
	lost  bool
}

func (l *storeLog) note(addr, val, old uint32) {
	if len(l.recs) < l.limit {
		l.recs = append(l.recs, storeRec{addr: addr, val: val, old: old})
	} else {
		l.lost = true
	}
}

// maxTraceStores bounds a trace's store log (3 MiB); a clean launch that
// stores more is not recorded.
const maxTraceStores = 1 << 18

// A trace's checkpoints fall every K statements of a thread, K a power-of-two
// multiple of minCheckpointSteps: Record starts at the minimum and, whenever
// the checkpoints outgrow maxCheckpointBytes, doubles K and drops the ones
// off the new spacing. A thread shorter than minCheckpointSteps — RPES's,
// the graphics kernels' — has none.
const (
	minCheckpointSteps = 256
	maxCheckpointBytes = 128 << 10
)

// checkpointEvery and checkpointBytes are the two limits above; tests force
// a checkpoint at every statement through them (export_test.go).
var checkpointEvery, checkpointBytes = minCheckpointSteps, maxCheckpointBytes

// stepMismatch is what Record panics with when its program and the cached
// one disagree on statement boundaries — a compiler bug, never an input.
const stepMismatch = "gpu: Record's program and the cached program disagree on statement boundaries"

// threadRec is what one golden thread contributes to the launch besides
// its stores and detector calls.
type threadRec struct {
	cycles, loopCycles float64
	loads, stores      int64
	storeEnd, callEnd  int32  // end of the thread's entries in Trace.stores and Trace.calls
	ckptEnd            int32  // end of the thread's checkpoints in Trace.ckpts
	tick               uint32 // volatile tick after the thread
	steps              uint32 // statements executed
}

// checkpoint is a golden thread paused before a statement. Expression
// temporaries do not outlive their statement, so there the thread's whole
// state is its variable slots (Trace.ckptRegs), the statement, its
// counters, and the volatile tick and stores of the device.
type checkpoint struct {
	cycles, loopCycles float64
	loads, stores      int64
	storeEnd           int32  // end of the thread's stores so far in Trace.stores
	pc                 int32  // the statement's first instruction in the cached program
	steps              uint32 // statements executed
	tick               uint32 // volatile tick
}

// wordRun says the words [lo, hi) were last accessed, in the sense of the
// index holding the run, by golden thread last.
type wordRun struct {
	lo, hi uint32
	last   int32
}

// callRec is one detector call of a recorded thread.
type callRec struct {
	det  int32
	kind uint8 // noteRange, noteProfile, noteEqual or noteSDC
	avg  uint8 // range and profile: the accumulator's avgKind
	// a, b: the raw accumulator and count (0 without one) of a range check
	// or profile sample, the count and expected value of an equal check,
	// the kir.DetectKind of a SetSDC.
	a, b    uint32
	provEnd int32 // end of the call's terms in Trace.prov
}

// provRec says an accumulator summed n values loaded from word addr through
// transparent sites since it last restarted. A call's terms are ascending
// by addr.
type provRec struct{ addr, n uint32 }

// Trace is the read-only record of one clean launch, from which Resume
// re-executes only part of the grid. It holds the arena image at launch
// entry (the pages that are not all zero — guard pages and untouched
// scratch cost nothing), the store log, per-thread cycle and traffic
// counters, the detector calls with the transparent-load terms of each
// range check's accumulator, and two run-length indexes over words: the
// last thread to load each before storing it, and the last to touch it
// through an opaque site, and the threads' checkpoints. There are no
// per-boundary arena copies, so a trace is smaller than the arena it
// describes plus a few words per thread, store and detector call, and
// maxCheckpointBytes.
type Trace struct {
	kernel      *kir.Kernel
	grid, block int
	arenaWords  int
	pages       []int32  // arena pages held in image, ascending
	image       []uint32 // those pages' words at launch entry
	tick0       uint32
	stores      []storeRec
	threads     []threadRec
	loads       []wordRun // ascending, disjoint
	opaque      []wordRun // ascending, disjoint
	calls       []callRec
	prov        []provRec

	// ckpts are the threads' checkpoints in serial order, every statements
	// apart; checkpoint i holds ckptRegs[i*nv:(i+1)*nv] and what Record's
	// save callback kept with it, ckptState[i*stateWords:(i+1)*stateWords].
	ckpts          []checkpoint
	ckptRegs       []uint32
	ckptState      []uint32
	nv, stateWords int
	every          int
}

// Threads returns the launch's thread count.
func (tr *Trace) Threads() int { return len(tr.threads) }

// Bytes returns the memory the trace holds.
func (tr *Trace) Bytes() int {
	return len(tr.image)*4 + len(tr.pages)*4 +
		len(tr.stores)*int(unsafe.Sizeof(storeRec{})) +
		len(tr.threads)*int(unsafe.Sizeof(threadRec{})) +
		(len(tr.loads)+len(tr.opaque))*int(unsafe.Sizeof(wordRun{})) +
		len(tr.calls)*int(unsafe.Sizeof(callRec{})) +
		len(tr.prov)*int(unsafe.Sizeof(provRec{})) +
		len(tr.ckpts)*tr.checkpointBytes()
}

// checkpointBytes is what one checkpoint holds.
func (tr *Trace) checkpointBytes() int {
	return int(unsafe.Sizeof(checkpoint{})) + 4*(tr.nv+tr.stateWords)
}

// Checkpoints returns how many checkpoints thread t has; ResumeAt numbers
// them from 1.
func (tr *Trace) Checkpoints(t int) int { return tr.ckptEnd(t+1) - tr.ckptEnd(t) }

// CheckpointState returns what Record's save callback saved at
// thread t's i-th checkpoint.
func (tr *Trace) CheckpointState(t, i int) []uint32 {
	c := tr.ckptEnd(t) + i - 1
	return tr.ckptState[c*tr.stateWords : (c+1)*tr.stateWords]
}

// ckptEnd returns how many checkpoints the threads before s hold.
func (tr *Trace) ckptEnd(s int) int {
	if s == 0 {
		return 0
	}
	return int(tr.threads[s-1].ckptEnd)
}

// storeEnd returns how many log entries the threads before s wrote.
func (tr *Trace) storeEnd(s int) int {
	if s == 0 {
		return 0
	}
	return int(tr.threads[s-1].storeEnd)
}

// callEnd returns how many detector calls the threads before s made.
func (tr *Trace) callEnd(s int) int {
	if s == 0 {
		return 0
	}
	return int(tr.threads[s-1].callEnd)
}

// tickAt returns the volatile tick at the boundary before thread s.
func (tr *Trace) tickAt(s int) uint32 {
	if s == 0 {
		return tr.tick0
	}
	return tr.threads[s-1].tick
}

// lastIn returns the thread runs records for addr, or -1.
func lastIn(runs []wordRun, addr uint32) int32 {
	i := sort.Search(len(runs), func(i int) bool { return runs[i].hi > addr })
	if i < len(runs) && runs[i].lo <= addr {
		return runs[i].last
	}
	return -1
}

// wordRuns compresses a per-word last-thread array (-1: none) into runs.
func wordRuns(last []int32) []wordRun {
	var runs []wordRun
	for a, l := range last {
		if l < 0 {
			continue
		}
		if i := len(runs) - 1; i >= 0 && runs[i].hi == uint32(a) && runs[i].last == l {
			runs[i].hi++
		} else {
			runs = append(runs, wordRun{lo: uint32(a), hi: uint32(a) + 1, last: l})
		}
	}
	return runs
}

// tracedLaunch is one launch run thread by thread — the state Launch,
// Record and Resume share. Per-thread counters, live or golden, are folded
// into the Result in serial order, so a Result assembled from both is
// bit-identical to a full launch's.
type tracedLaunch struct {
	bcThread
	k       *kir.Kernel
	regsRef *[]uint32
	res     *Result

	warpCycles, threadCycles, loopSum, warpMax float64
}

// newTracedLaunch sets up a checked launch of k's compiled program p and
// takes a register file from the program's pool; close returns it. Record
// passes the kernel compiled with the recorder's notes (compileProgram),
// every other launch the cached program (programFor).
//
// The one register file serves every thread: variable slots are cleared
// per thread, the constant pool is loaded at slice creation (and stays
// valid across reuses — temporaries never alias constant slots), and
// temporaries are written before they are read within each straight-line
// segment.
func (d *Device) newTracedLaunch(k *kir.Kernel, spec *LaunchSpec, p *program) tracedLaunch {
	x := tracedLaunch{k: k, regsRef: p.getRegs()}
	budget := d.stepBudget(spec)
	x.bcThread = bcThread{
		d:      d,
		p:      p,
		spec:   spec,
		hooks:  spec.Hooks,
		regs:   *x.regsRef,
		budget: budget,
		hang:   budget,
		fault:  d.overlay,
	}
	// In GPU mode any address below the virtual limit is a valid access, so
	// the dispatch loop can skip the (non-inlinable) checkAccess call on the
	// fast path. CPU mode keeps the limit at zero: every access goes through
	// the full page-map check.
	if d.cfg.Mode == ModeGPU {
		x.fastLimit = VirtualWords
	}
	x.res = &Result{Threads: spec.Grid * spec.Block, MaxLive: p.maxLive, Spill: p.spillExtra > 0}
	return x
}

// runAll runs every thread live, in serial (block, thread) order, and
// releases the register file. Like the tree-walking oracle
// (oracle_test.go), it stops at the first thread that fails, with the
// warp and SM terms folded up to it.
func (x *tracedLaunch) runAll() (*Result, error) {
	defer x.close()
	for s := 0; s < x.res.Threads; s++ {
		x.begin(s)
		if err := x.runThread(s); err != nil {
			return x.finish(), err
		}
	}
	return x.finish(), nil
}

func (x *tracedLaunch) close() { x.p.putRegs(x.regsRef) }

// fold adds thread number serial's counters to the launch.
func (x *tracedLaunch) fold(serial int, cycles, loopCycles float64, loads, stores int64, steps int) {
	x.threadCycles += cycles
	x.loopSum += loopCycles
	if cycles > x.warpMax {
		x.warpMax = cycles
	}
	if tid := serial % x.spec.Block; (tid+1)%warpSize == 0 || tid == x.spec.Block-1 {
		x.warpCycles += x.warpMax
		x.warpMax = 0
	}
	x.res.Loads += loads
	x.res.Stores += stores
	x.res.MaxSteps = max(x.res.MaxSteps, steps)
}

// foldGolden adds the recorded threads [from, to).
func (x *tracedLaunch) foldGolden(tr *Trace, from, to int) {
	for s := from; s < to; s++ {
		r := &tr.threads[s]
		x.fold(s, r.cycles, r.loopCycles, r.loads, r.stores, int(r.steps))
	}
}

// begin sets thread number serial up at its first statement.
func (x *tracedLaunch) begin(serial int) {
	x.start(x.k, ThreadCtx{Block: serial / x.spec.Block, Thread: serial % x.spec.Block})
}

// restore puts thread number serial, set up by begin, at its checkpoint c
// of tr: registers, statement and counters, plus the thread's own stores
// before it — applied to the arena and noted in the live store log, as if
// they had just run — and the volatile tick.
func (x *tracedLaunch) restore(tr *Trace, serial, c int) {
	ck := &tr.ckpts[c]
	copy(x.regs[:tr.nv], tr.ckptRegs[c*tr.nv:])
	x.pc, x.steps = int(ck.pc), int(ck.steps)
	x.cycles, x.loopCycles, x.loads, x.stores = ck.cycles, ck.loopCycles, ck.loads, ck.stores
	arena := x.d.arena
	for _, st := range tr.stores[tr.storeEnd(serial):ck.storeEnd] {
		x.rec.note(st.addr, st.val, st.old)
		arena[st.addr] = st.val
	}
	x.d.volTick = ck.tick
}

// runThread runs thread number serial live from where begin or restore
// left it, and folds its counters in.
func (x *tracedLaunch) runThread(serial int) error {
	err := x.run()
	x.fold(serial, x.cycles, x.loopCycles, x.loads, x.stores, x.steps)
	return err
}

func (x *tracedLaunch) finish() *Result {
	finishResult(x.res, x.d, x.warpCycles, x.threadCycles, x.loopSum)
	return x.res
}

// Kinds of opNote (inst.d) in Record's program.
const (
	noteLoad    int32 = iota // b, c: an opaque load's base and index slots
	noteLoadT                // the same for a transparent load
	noteStore                // b, c: an opaque store's base and index slots
	noteStoreT               // the same for a transparent store
	noteAcc                  // a: accumulator slot; regs[b]+imm: the word a transparent load of the term read
	noteReset                // a: accumulator slot, set to a constant
	noteRange                // the operands of the opRangeCheck that follows
	noteProfile              // of the opProfileSample that follows
	noteEqual                // of the opEqualCheck that follows
	noteSDC                  // of the opSetSDC that follows
)

// traceRecorder receives the notes of Record's program.
type traceRecorder struct {
	serial   int32
	stored   []int32 // per word: 1 + the last thread that stored it
	lastLoad []int32 // per word: the last thread that loaded it before storing it, or -1
	lastOpq  []int32 // per word: the last thread that touched it through an opaque site, or -1
	accs     []accTerms
	calls    []callRec
	prov     []provRec
}

// accTerms are the transparent-load terms an accumulator slot summed since
// it last restarted.
type accTerms struct {
	slot  int32
	terms []provRec
}

func newTraceRecorder(words int) *traceRecorder {
	r := &traceRecorder{stored: make([]int32, words), lastLoad: make([]int32, words), lastOpq: make([]int32, words)}
	for i := range r.lastLoad {
		r.lastLoad[i], r.lastOpq[i] = -1, -1
	}
	return r
}

// begin starts thread serial: its registers are fresh, so every
// accumulator restarts.
func (r *traceRecorder) begin(serial int) {
	r.serial = int32(serial)
	for i := range r.accs {
		r.accs[i].terms = r.accs[i].terms[:0]
	}
}

func (r *traceRecorder) acc(slot int32) *accTerms {
	for i := range r.accs {
		if r.accs[i].slot == slot {
			return &r.accs[i]
		}
	}
	r.accs = append(r.accs, accTerms{slot: slot})
	return &r.accs[len(r.accs)-1]
}

func (r *traceRecorder) note(regs []uint32, in *inst) {
	switch in.d {
	case noteLoad, noteLoadT, noteStore, noteStoreT:
		addr := regs[in.b] + regs[in.c]
		if int(addr) >= len(r.stored) {
			return // outside the arena: nothing is kept there
		}
		if in.d == noteStore || in.d == noteStoreT {
			r.stored[addr] = r.serial + 1
		} else if r.stored[addr] != r.serial+1 {
			r.lastLoad[addr] = r.serial
		}
		if in.d == noteLoad || in.d == noteStore {
			r.lastOpq[addr] = r.serial
		}
	case noteAcc:
		a := r.acc(in.a)
		addr := regs[in.b] + in.imm
		for i := range a.terms {
			if a.terms[i].addr == addr {
				a.terms[i].n++
				return
			}
		}
		a.terms = append(a.terms, provRec{addr: addr, n: 1})
	case noteReset:
		a := r.acc(in.a)
		a.terms = a.terms[:0]
	case noteRange, noteProfile:
		c := callRec{det: int32(in.imm), kind: uint8(in.d), avg: uint8(in.c), a: regs[in.a]}
		if in.b >= 0 {
			c.b = regs[in.b]
		}
		start := len(r.prov)
		for _, a := range r.accs {
			if a.slot == in.a {
				r.prov = append(r.prov, a.terms...)
			}
		}
		slices.SortFunc(r.prov[start:], func(x, y provRec) int { return cmp.Compare(x.addr, y.addr) })
		r.call(c)
	case noteEqual:
		r.call(callRec{det: int32(in.imm), kind: uint8(in.d), a: regs[in.a], b: regs[in.b]})
	case noteSDC:
		r.call(callRec{det: int32(in.imm), kind: uint8(in.d), a: uint32(in.a)})
	}
}

func (r *traceRecorder) call(c callRec) {
	c.provEnd = int32(len(r.prov))
	r.calls = append(r.calls, c)
}

// Record runs the launch exactly as Launch would and returns its Trace.
// threadDone, if set, is called after each thread retires with the thread's
// serial index (block*Block + thread), so the caller can cut its hooks'
// state at the same boundaries. save, if set, is called at each
// checkpoint the trace takes, with the thread's serial index: it appends
// the hooks' state there to state (the same number of words every time)
// and returns it, and CheckpointState hands it back. A launch that fails,
// or stores more than maxTraceStores words, yields no trace.
func (d *Device) Record(k *kir.Kernel, spec LaunchSpec, threadDone func(serial int), save func(serial int, state []uint32) []uint32) (tr *Trace, res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			tr, res, err = nil, &Result{}, &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	if err := d.checkLaunch(k, spec); err != nil {
		return nil, &Result{}, err
	}
	x := d.newTracedLaunch(k, &spec, compileProgram(k, d.cfg.RegsPerThread, true, kir.AnalyzeDelta(k)))
	defer x.close()

	tr = &Trace{
		kernel: k, grid: spec.Grid, block: spec.Block,
		arenaWords: len(d.arena),
		tick0:      d.volTick,
		threads:    make([]threadRec, 0, x.res.Threads),
		nv:         x.p.nv,
		every:      checkpointEvery,
	}
	for p := 0; p < len(d.arena)/PageWords; p++ {
		if slices.ContainsFunc(d.arena[p*PageWords:(p+1)*PageWords], func(w uint32) bool { return w != 0 }) {
			tr.pages = append(tr.pages, int32(p))
		}
	}
	tr.image = make([]uint32, 0, len(tr.pages)*PageWords)
	for _, p := range tr.pages {
		tr.image = append(tr.image, d.arena[int(p)*PageWords:(int(p)+1)*PageWords]...)
	}
	log := storeLog{limit: maxTraceStores}
	x.rec = &log
	rec := newTraceRecorder(len(d.arena))
	x.trc = rec
	cached, _ := programFor(k, d.cfg)
	pcs := statementPCs(x.p, cached)

	for s := 0; s < x.res.Threads; s++ {
		rec.begin(s)
		x.begin(s)
		for {
			x.budget = min(x.hang, (x.steps/tr.every+1)*tr.every)
			if err = x.run(); err != errPause {
				break
			}
			tr.ckpts = append(tr.ckpts, checkpoint{
				cycles: x.cycles, loopCycles: x.loopCycles, loads: x.loads, stores: x.stores,
				storeEnd: int32(len(log.recs)), pc: pcs[x.pc], steps: uint32(x.steps), tick: d.volTick,
			})
			tr.ckptRegs = append(tr.ckptRegs, x.regs[:tr.nv]...)
			if save != nil {
				n := len(tr.ckptState)
				tr.ckptState = save(s, tr.ckptState)
				if len(tr.ckpts) == 1 {
					tr.stateWords = len(tr.ckptState) - n
				} else if len(tr.ckptState)-n != tr.stateWords {
					panic("gpu: Record's save callback saved a different number of words")
				}
			}
			if len(tr.ckpts) == 1 {
				tr.reserve()
			}
			if len(tr.ckpts)*tr.checkpointBytes() > checkpointBytes {
				tr.thin()
			}
		}
		x.fold(s, x.cycles, x.loopCycles, x.loads, x.stores, x.steps)
		if err != nil {
			return nil, x.finish(), err
		}
		tr.threads = append(tr.threads, threadRec{
			cycles: x.cycles, loopCycles: x.loopCycles, loads: x.loads, stores: x.stores,
			storeEnd: int32(len(log.recs)), callEnd: int32(len(rec.calls)), ckptEnd: int32(len(tr.ckpts)),
			tick: d.volTick, steps: uint32(x.steps),
		})
		if threadDone != nil {
			threadDone(s)
		}
	}
	res = x.finish()
	if log.lost {
		return nil, res, nil
	}
	tr.stores = slices.Clip(log.recs)
	tr.loads, tr.opaque = wordRuns(rec.lastLoad), wordRuns(rec.lastOpq)
	tr.calls, tr.prov = slices.Clip(rec.calls), slices.Clip(rec.prov)
	if len(tr.ckpts) < cap(tr.ckpts) { // keep only what is held
		tr.ckpts, tr.ckptRegs, tr.ckptState = slices.Clone(tr.ckpts), slices.Clone(tr.ckptRegs), slices.Clone(tr.ckptState)
	}
	return tr, res, nil
}

// reserve sizes the checkpoint arrays, once the first checkpoint says how
// large one is, for as many as the budget holds — one more never stays,
// since thinning follows — so recording them allocates once. A test's
// lifted budget reserves nothing.
func (tr *Trace) reserve() {
	if checkpointBytes > maxCheckpointBytes {
		return
	}
	n := checkpointBytes/tr.checkpointBytes() + 1
	tr.ckpts = slices.Grow(tr.ckpts, n-len(tr.ckpts))
	tr.ckptRegs = slices.Grow(tr.ckptRegs, n*tr.nv-len(tr.ckptRegs))
	tr.ckptState = slices.Grow(tr.ckptState, n*tr.stateWords-len(tr.ckptState))
}

// statementPCs maps every statement's first instruction in Record's
// program p to the same statement's in the cached program q. Both compile
// one kernel in one order, and a note neither carries a statement step nor
// hides one from fusion, so the i-th fStep instruction of each starts the
// same statement; a count that differs is a compiler bug and panics.
func statementPCs(p, q *program) []int32 {
	pcs := make([]int32, len(p.insts))
	j := 0
	for pc := range p.insts {
		if p.insts[pc].flags&fStep == 0 {
			continue
		}
		for j < len(q.insts) && q.insts[j].flags&fStep == 0 {
			j++
		}
		if j == len(q.insts) {
			panic(stepMismatch)
		}
		pcs[pc] = int32(j)
		j++
	}
	for ; j < len(q.insts); j++ {
		if q.insts[j].flags&fStep != 0 {
			panic(stepMismatch)
		}
	}
	return pcs
}

// thin doubles the checkpoint spacing and drops the checkpoints off it.
// Checkpoints sit at multiples of the spacing, so every other one stays.
func (tr *Trace) thin() {
	tr.every *= 2
	kept, lo := 0, 0
	keep := func(hi int) {
		for c := lo; c < hi; c++ {
			if int(tr.ckpts[c].steps)%tr.every != 0 {
				continue
			}
			tr.ckpts[kept] = tr.ckpts[c]
			copy(tr.ckptRegs[kept*tr.nv:], tr.ckptRegs[c*tr.nv:(c+1)*tr.nv])
			copy(tr.ckptState[kept*tr.stateWords:], tr.ckptState[c*tr.stateWords:(c+1)*tr.stateWords])
			kept++
		}
		lo = hi
	}
	for s := range tr.threads {
		keep(int(tr.threads[s].ckptEnd))
		tr.threads[s].ckptEnd = int32(kept)
	}
	keep(len(tr.ckpts)) // the thread being recorded
	tr.ckpts = tr.ckpts[:kept]
	tr.ckptRegs = tr.ckptRegs[:kept*tr.nv]
	tr.ckptState = tr.ckptState[:kept*tr.stateWords]
}

// carriedWord is a word Resume carries: its golden value at the boundary
// and the wrapping shift live − golden.
type carriedWord struct{ addr, gold, delta uint32 }

// resumeScratch is the per-device working state of Resume.
type resumeScratch struct {
	live storeLog // the current live thread's stores
	// gold maps every word that may differ from the golden run to the
	// golden value at the current thread boundary.
	gold  map[uint32]uint32
	carry []carriedWord
}

// ResumeAt is where Resume starts executing live: thread Thread, from its
// first statement (Checkpoint 0) or from its Checkpoint-th checkpoint.
type ResumeAt struct{ Thread, Checkpoint int }

// ResumeExit says how far a resumed launch ran live.
type ResumeExit struct {
	// Stop is the first thread that did not execute live (on error, the
	// thread after the failing one).
	Stop int
	// Carried reports that the threads from Stop on were taken from the
	// trace with the differing words shifted (see Resume).
	Carried bool
	// Live counts the statements executed live, Restored the golden ones
	// taken from the trace instead: the threads before the resume point,
	// the first live thread's up to its checkpoint, and — unless the launch
	// failed — the threads from Stop on.
	Live, Restored int64
}

// Resume runs the launch tr recorded, on a device laid out like the one
// that recorded it, as three parts: what comes before at is restored from
// the trace (arena image plus the stores of the threads before at.Thread
// and of that thread up to its checkpoint, their counters folded in);
// execution from at on is live with spec.Hooks; and at the first thread
// boundary where settled() holds — the caller's hooks will behave as they
// did in the golden run from here on — and every word that differs from the
// golden state is either dead (no later golden thread loads it before
// storing it) or carried (later golden threads touch it only through
// transparent sites), the remaining threads are taken from the trace again.
// The caller must have put its hooks in the state the golden run left them
// in at at. With site >= 0 the live part calls Probe only at that probe
// site: right for hooks that change nothing at any other, such as an
// injector armed for site.
//
// The Result, the error and device memory equal what Launch produces for
// the same hooks on a fresh device. When ex.Carried, Resume has delivered
// the detector calls of threads ex.Stop on to spec.Hooks, re-evaluated on
// the carried shifts, and the caller owes its hooks only their other
// golden calls; otherwise it owes them every golden call of threads
// ex.Stop on (none when the launch ran to its end).
func (d *Device) Resume(k *kir.Kernel, spec LaunchSpec, tr *Trace, at ResumeAt, site int, settled func() bool) (res *Result, ex ResumeExit, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, ex.Carried, err = &Result{}, false, &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	from := at.Thread
	ex.Stop = from
	if err := d.checkLaunch(k, spec); err != nil {
		return &Result{}, ex, err
	}
	p, _ := programFor(k, d.cfg)
	x := d.newTracedLaunch(k, &spec, p)
	defer x.close()
	n := tr.Threads()
	if k != tr.kernel || spec.Grid != tr.grid || spec.Block != tr.block || len(d.arena) != tr.arenaWords || x.p.nv != tr.nv ||
		from < 0 || from > n || at.Checkpoint < 0 || at.Checkpoint > 0 && (from == n || at.Checkpoint > tr.Checkpoints(from)) {
		return &Result{}, ex, &LaunchError{Reason: "launch does not match the golden trace"}
	}
	ck := -1
	if at.Checkpoint > 0 {
		ck = tr.ckptEnd(from) + at.Checkpoint - 1
		// A launch that hangs before the checkpoint never reaches it.
		if int(tr.ckpts[ck].steps) > x.hang {
			return &Result{}, ex, &LaunchError{Reason: "checkpoint lies past the launch's step budget"}
		}
		if x.p.insts[tr.ckpts[ck].pc].flags&fStep == 0 {
			panic("gpu: checkpoint is not at a statement of the cached program")
		}
	}
	if site >= 0 {
		x.site = uint32(site) + 1
	}

	arena := d.arena
	clear(arena)
	for i, p := range tr.pages {
		copy(arena[int(p)*PageWords:], tr.image[i*PageWords:(i+1)*PageWords])
	}
	for _, st := range tr.stores[:tr.storeEnd(from)] {
		arena[st.addr] = st.val
	}
	d.volTick = tr.tickAt(from)
	x.foldGolden(tr, 0, from)
	ex.Restored = tr.steps(0, from)

	sc := &d.resume
	if sc.gold == nil {
		sc.gold = make(map[uint32]uint32)
	}
	clear(sc.gold)
	sc.live.lost = false
	x.rec = &sc.live
	for ex.Stop < n {
		// A live thread may store a few times what its golden twin did;
		// one that stores without bound forfeits the early exit.
		s := ex.Stop
		sc.live.recs = sc.live.recs[:0]
		sc.live.limit = 1024 + 2*(tr.storeEnd(s+1)-tr.storeEnd(s))
		x.begin(s)
		restored := 0
		if s == from && ck >= 0 {
			x.restore(tr, s, ck)
			restored = x.steps
		}
		ex.Stop++
		err := x.runThread(s)
		ex.Live += int64(x.steps - restored)
		ex.Restored += int64(restored)
		if err != nil {
			return x.finish(), ex, err
		}
		if ok, carry := d.settle(tr, ex.Stop); ok && settled() {
			ex.Carried = carry
			break
		}
	}
	stop := ex.Stop
	if ex.Carried {
		slices.SortFunc(sc.carry, func(a, b carriedWord) int { return cmp.Compare(a.addr, b.addr) })
		x.replayCalls(tr, stop, n, sc.carry)
		for _, c := range sc.carry {
			arena[c.addr] = c.gold
		}
	}
	for _, st := range tr.stores[tr.storeEnd(stop):] {
		arena[st.addr] = st.val
	}
	if ex.Carried {
		for _, c := range sc.carry {
			arena[c.addr] += c.delta
		}
	}
	d.volTick += tr.tickAt(n) - tr.tickAt(stop)
	x.foldGolden(tr, stop, n)
	ex.Restored += tr.steps(stop, n)
	return x.finish(), ex, nil
}

// steps returns the statements golden threads [from, to) executed.
func (tr *Trace) steps(from, to int) int64 {
	var n int64
	for s := from; s < to; s++ {
		n += int64(tr.threads[s].steps)
	}
	return n
}

// settle advances the golden side to the boundary before thread b (thread
// b-1 has just run live) and reports whether the rest of the launch can be
// taken from the trace: the volatile tick is equal or never drawn again,
// and every word that differs from the golden state there is dead — no
// golden thread from b on loads it before storing it — or carried: from b
// on golden threads touch it only through transparent sites, and it is not
// volatile. carried reports whether any word needs carrying; sc.carry then
// holds them. By induction over the later threads (DESIGN.md §5) the rest
// of the launch is the golden run plus, on every carried word, its shift.
func (d *Device) settle(tr *Trace, b int) (ok, carried bool) {
	sc := &d.resume
	if sc.live.lost {
		return false, false
	}
	ok = d.volTick == tr.tickAt(b) || tr.tickAt(b) == tr.tickAt(tr.Threads())
	golden := tr.stores[tr.storeEnd(b-1):tr.storeEnd(b)]
	// The common masked fault: the thread stored what the golden one did.
	if len(sc.gold) == 0 && sameStores(sc.live.recs, golden) {
		return ok, false
	}
	// A word the live thread touched first held the golden value at the
	// previous boundary (else it would be in gold already); then the
	// golden thread's own stores move the golden side to this boundary.
	for _, st := range sc.live.recs {
		if _, ok := sc.gold[st.addr]; !ok {
			sc.gold[st.addr] = st.old
		}
	}
	for _, st := range golden {
		sc.gold[st.addr] = st.val
	}
	sc.carry = sc.carry[:0]
	for addr, val := range sc.gold {
		switch live := d.arena[addr]; {
		case live == val:
			delete(sc.gold, addr)
		case int(lastIn(tr.loads, addr)) < b:
			// dead
		case int(lastIn(tr.opaque, addr)) < b && (addr < d.volLo || addr >= d.volHi):
			sc.carry = append(sc.carry, carriedWord{addr: addr, gold: val, delta: live - val})
		default:
			ok = false
		}
	}
	return ok, ok && len(sc.carry) > 0
}

// replayCalls delivers the detector calls of golden threads [from, to) to
// the launch's hooks, each range check and profile sample re-evaluated on
// its accumulator plus n·δ for every carried word it summed n times — the
// value the live thread would compute (wrapping, as opAddI does). carry
// ascends by address.
func (x *tracedLaunch) replayCalls(tr *Trace, from, to int, carry []carriedWord) {
	h := x.hooks
	if h == nil {
		return
	}
	i := tr.callEnd(from)
	p := 0
	if i > 0 {
		p = int(tr.calls[i-1].provEnd)
	}
	for s := from; s < to; s++ {
		tc := ThreadCtx{Block: s / tr.block, Thread: s % tr.block}
		for ; i < int(tr.threads[s].callEnd); i++ {
			c := &tr.calls[i]
			switch kind := int32(c.kind); kind {
			case noteRange, noteProfile:
				acc := c.a
				// Both lists ascend by address: merge them.
				terms := tr.prov[p:c.provEnd]
				for i, j := 0, 0; i < len(terms) && j < len(carry); {
					switch t, w := terms[i], carry[j]; {
					case t.addr < w.addr:
						i++
					case t.addr > w.addr:
						j++
					default:
						acc += t.n * w.delta
						i, j = i+1, j+1
					}
				}
				v := avgDivide(avgConvert(int32(c.avg), acc), int32(c.b))
				if kind == noteRange {
					h.RangeCheck(tc, int(c.det), v)
				} else {
					h.ProfileSample(tc, int(c.det), v)
				}
			case noteEqual:
				h.EqualCheck(tc, int(c.det), int32(c.a), int32(c.b))
			case noteSDC:
				h.SetSDC(tc, int(c.det), kir.DetectKind(c.a))
			}
			p = int(c.provEnd)
		}
	}
}

func sameStores(a, b []storeRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].addr != b[i].addr || a[i].val != b[i].val {
			return false
		}
	}
	return true
}
