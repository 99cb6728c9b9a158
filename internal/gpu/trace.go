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
// sites, whose effect is the recorded one plus a shift.

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

// threadRec is what one golden thread contributes to the launch besides
// its stores and detector calls.
type threadRec struct {
	cycles, loopCycles float64
	loads, stores      int64
	storeEnd, callEnd  int32  // end of the thread's entries in Trace.stores and Trace.calls
	tick               uint32 // volatile tick after the thread
	steps              uint32 // statements executed
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
// through an opaque site. There are no per-boundary arena copies, so a
// trace is smaller than the arena it describes plus a few words per thread,
// store and detector call.
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
		len(tr.prov)*int(unsafe.Sizeof(provRec{}))
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

// Traceable reports whether launches on this device can be recorded and
// resumed: not with an opaque SetMemFault closure installed (its state is
// invisible to Restore).
func (d *Device) Traceable() bool {
	return d.fault == nil
}

// tracedLaunch is one launch run thread by thread — the state Record and
// Resume share. Per-thread counters, live or golden, are folded into the
// Result in serial order with runProgram's arithmetic term for term, so
// a Result assembled from both is bit-identical to a full launch's.
type tracedLaunch struct {
	bcThread
	k       *kir.Kernel
	regsRef *[]uint32
	res     *Result

	warpCycles, threadCycles, loopSum, warpMax float64
}

// newTracedLaunch validates and compiles the launch and takes a register
// file from the program's pool; close returns it. A recording launch runs
// the kernel compiled with the recorder's notes (compileProgram), any other
// the cached program every launch runs.
func (d *Device) newTracedLaunch(k *kir.Kernel, spec *LaunchSpec, record bool) (*tracedLaunch, error) {
	if !d.Traceable() {
		return nil, &LaunchError{Reason: "device is not traceable"}
	}
	if err := d.checkLaunch(k, *spec); err != nil {
		return nil, err
	}
	var p *program
	if record {
		p = compileProgram(k, d.cfg.Costs, d.cfg.RegsPerThread, true, kir.AnalyzeDelta(k))
	} else {
		p, _ = programFor(k, d.cfg)
	}
	x := &tracedLaunch{k: k, regsRef: p.getRegs()}
	x.bcThread = bcThread{
		d:      d,
		p:      p,
		spec:   spec,
		hooks:  spec.Hooks,
		regs:   *x.regsRef,
		budget: d.stepBudget(spec),
		fault:  d.overlay,
	}
	if d.cfg.Mode == ModeGPU {
		x.fastLimit = VirtualWords
	}
	x.res = &Result{Threads: spec.Grid * spec.Block, MaxLive: p.maxLive, Spill: p.spillExtra > 0}
	return x, nil
}

func (x *tracedLaunch) close() { x.p.putRegs(x.regsRef) }

// fold adds thread number serial's counters to the launch.
func (x *tracedLaunch) fold(serial int, cycles, loopCycles float64, loads, stores int64, steps int) {
	x.threadCycles += cycles
	x.loopSum += loopCycles
	if cycles > x.warpMax {
		x.warpMax = cycles
	}
	if tid := serial % x.spec.Block; (tid+1)%x.d.cfg.WarpSize == 0 || tid == x.spec.Block-1 {
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

// runThread runs thread number serial live, from fresh registers, and
// folds its counters in.
func (x *tracedLaunch) runThread(serial int) error {
	clear(x.regs[:x.p.nv])
	for i, par := range x.k.Params {
		if par.Type == kir.Ptr {
			x.regs[par.ID] = x.spec.Args[i].Buf.Off
		} else {
			x.regs[par.ID] = x.spec.Args[i].Scalar
		}
	}
	x.tc = ThreadCtx{Block: serial / x.spec.Block, Thread: serial % x.spec.Block}
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
// state at the same boundaries. A launch that fails, or stores more than
// maxTraceStores words, yields no trace.
func (d *Device) Record(k *kir.Kernel, spec LaunchSpec, threadDone func(serial int)) (tr *Trace, res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			tr, res, err = nil, &Result{}, &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	x, err := d.newTracedLaunch(k, &spec, true)
	if err != nil {
		return nil, &Result{}, err
	}
	defer x.close()

	tr = &Trace{
		kernel: k, grid: spec.Grid, block: spec.Block,
		arenaWords: len(d.arena),
		tick0:      d.volTick,
		threads:    make([]threadRec, 0, x.res.Threads),
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

	for s := 0; s < x.res.Threads; s++ {
		rec.begin(s)
		if err := x.runThread(s); err != nil {
			return nil, x.finish(), err
		}
		tr.threads = append(tr.threads, threadRec{
			cycles: x.cycles, loopCycles: x.loopCycles, loads: x.loads, stores: x.stores,
			storeEnd: int32(len(log.recs)), callEnd: int32(len(rec.calls)), tick: d.volTick, steps: uint32(x.steps),
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
	return tr, res, nil
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

// Resume runs the launch tr recorded, on a device laid out like the one
// that recorded it, as three parts: threads before from are restored from
// the trace (arena image plus their stores, their counters folded in);
// threads from from on execute live with spec.Hooks; and at the first thread
// boundary where settled() holds — the caller's hooks will behave as they
// did in the golden run from here on — and every word that differs from the
// golden state is either dead (no later golden thread loads it before
// storing it) or carried (later golden threads touch it only through
// transparent sites), the remaining threads are taken from the trace again.
// The caller must have put its hooks in the state the golden run left them
// in before thread from.
//
// The Result, the error and device memory equal what Launch produces for
// the same hooks on a fresh device. stop is the first thread that did not
// execute live (on error, the thread after the failing one). When carried,
// Resume has delivered the detector calls of threads stop on to spec.Hooks,
// re-evaluated on the carried shifts, and the caller owes its hooks only
// their other golden calls; otherwise it owes them every golden call of
// threads stop on (none when the launch ran to its end).
func (d *Device) Resume(k *kir.Kernel, spec LaunchSpec, tr *Trace, from int, settled func() bool) (res *Result, stop int, carried bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, carried, err = &Result{}, false, &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	x, err := d.newTracedLaunch(k, &spec, false)
	stop = from
	if err != nil {
		return &Result{}, stop, false, err
	}
	defer x.close()
	n := tr.Threads()
	if k != tr.kernel || spec.Grid != tr.grid || spec.Block != tr.block || len(d.arena) != tr.arenaWords || from < 0 || from > n {
		return &Result{}, stop, false, &LaunchError{Reason: "launch does not match the golden trace"}
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

	sc := &d.resume
	if sc.gold == nil {
		sc.gold = make(map[uint32]uint32)
	}
	clear(sc.gold)
	sc.live.lost = false
	x.rec = &sc.live
	for stop < n {
		// A live thread may store a few times what its golden twin did;
		// one that stores without bound forfeits the early exit.
		sc.live.recs = sc.live.recs[:0]
		sc.live.limit = 1024 + 2*(tr.storeEnd(stop+1)-tr.storeEnd(stop))
		stop++
		if err := x.runThread(stop - 1); err != nil {
			return x.finish(), stop, false, err
		}
		if ok, carry := d.settle(tr, stop); ok && settled() {
			carried = carry
			break
		}
	}
	if carried {
		slices.SortFunc(sc.carry, func(a, b carriedWord) int { return cmp.Compare(a.addr, b.addr) })
		x.replayCalls(tr, stop, n, sc.carry)
		for _, c := range sc.carry {
			arena[c.addr] = c.gold
		}
	}
	for _, st := range tr.stores[tr.storeEnd(stop):] {
		arena[st.addr] = st.val
	}
	if carried {
		for _, c := range sc.carry {
			arena[c.addr] += c.delta
		}
	}
	d.volTick += tr.tickAt(n) - tr.tickAt(stop)
	x.foldGolden(tr, stop, n)
	return x.finish(), stop, carried, nil
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
