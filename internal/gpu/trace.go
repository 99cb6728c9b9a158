package gpu

import (
	"runtime/debug"
	"slices"
	"sort"
	"unsafe"

	"hauberk/internal/kir"
)

// Golden-trace resume (DESIGN.md §5). A launch evaluates its threads in one
// serial (block, thread) order, threads start from fresh registers, and
// they communicate only through device memory. So a clean launch can be
// recorded once — per thread its stores and counters, per word the last
// thread that loaded it — and a launch that differs from it only in what
// its hooks do from some thread on can be executed from that thread, and
// stopped as soon as nothing it changed can reach a later thread.

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
// its stores.
type threadRec struct {
	cycles, loopCycles float64
	loads, stores      int64
	storeEnd           int    // end of the thread's entries in Trace.stores
	tick               uint32 // volatile tick after the thread
	steps              uint32 // statements executed (fills the struct's padding)
}

// loadRun says the words [lo, hi) were last loaded by golden thread last.
type loadRun struct {
	lo, hi uint32
	last   int32
}

// Trace is the read-only record of one clean launch, from which Resume
// re-executes only part of the grid. It holds the arena image at launch
// entry (the pages that are not all zero — guard pages and untouched
// scratch cost nothing), the store log, per-thread cycle and traffic
// counters, and a run-length index of each loaded word's last-loading
// thread. There are no per-boundary arena copies, so a trace is smaller
// than the arena it describes plus a few words per thread and per store.
type Trace struct {
	kernel      *kir.Kernel
	grid, block int
	arenaWords  int
	pages       []int32  // arena pages held in image, ascending
	image       []uint32 // those pages' words at launch entry
	tick0       uint32
	stores      []storeRec
	threads     []threadRec
	loads       []loadRun // ascending, disjoint
}

// Threads returns the launch's thread count.
func (tr *Trace) Threads() int { return len(tr.threads) }

// Bytes returns the memory the trace holds.
func (tr *Trace) Bytes() int {
	return len(tr.image)*4 + len(tr.pages)*4 +
		len(tr.stores)*int(unsafe.Sizeof(storeRec{})) +
		len(tr.threads)*int(unsafe.Sizeof(threadRec{})) +
		len(tr.loads)*int(unsafe.Sizeof(loadRun{}))
}

// storeEnd returns how many log entries the threads before s wrote.
func (tr *Trace) storeEnd(s int) int {
	if s == 0 {
		return 0
	}
	return tr.threads[s-1].storeEnd
}

// tickAt returns the volatile tick at the boundary before thread s.
func (tr *Trace) tickAt(s int) uint32 {
	if s == 0 {
		return tr.tick0
	}
	return tr.threads[s-1].tick
}

// lastLoad returns the last golden thread that loaded addr, or -1.
func (tr *Trace) lastLoad(addr uint32) int32 {
	i := sort.Search(len(tr.loads), func(i int) bool { return tr.loads[i].hi > addr })
	if i < len(tr.loads) && tr.loads[i].lo <= addr {
		return tr.loads[i].last
	}
	return -1
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
// file from the program's pool; close returns it.
func (d *Device) newTracedLaunch(k *kir.Kernel, spec *LaunchSpec) (*tracedLaunch, error) {
	if !d.Traceable() {
		return nil, &LaunchError{Reason: "device is not traceable"}
	}
	if err := d.checkLaunch(k, *spec); err != nil {
		return nil, err
	}
	p, _ := programFor(k, d.cfg)
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
	x, err := d.newTracedLaunch(k, &spec)
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

	// Loads are noted through the overlay slot, so the load path itself
	// is the one every launch runs.
	lastLoad := make([]int32, len(d.arena))
	for i := range lastLoad {
		lastLoad[i] = -1
	}
	var serial int32
	overlay := d.overlay
	x.fault = func(addr, val uint32) uint32 {
		if int(addr) < len(lastLoad) {
			lastLoad[addr] = serial
		}
		if overlay != nil {
			val = overlay(addr, val)
		}
		return val
	}

	for s := 0; s < x.res.Threads; s++ {
		serial = int32(s)
		if err := x.runThread(s); err != nil {
			return nil, x.finish(), err
		}
		tr.threads = append(tr.threads, threadRec{
			cycles: x.cycles, loopCycles: x.loopCycles, loads: x.loads, stores: x.stores,
			storeEnd: len(log.recs), tick: d.volTick, steps: uint32(x.steps),
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
	for a, l := range lastLoad {
		if l < 0 {
			continue
		}
		if i := len(tr.loads) - 1; i >= 0 && tr.loads[i].hi == uint32(a) && tr.loads[i].last == l {
			tr.loads[i].hi++
		} else {
			tr.loads = append(tr.loads, loadRun{lo: uint32(a), hi: uint32(a) + 1, last: l})
		}
	}
	return tr, res, nil
}

// resumeScratch is the per-device working state of Resume.
type resumeScratch struct {
	live storeLog // the current live thread's stores
	// gold maps every word that may differ from the golden run to the
	// golden value at the current thread boundary.
	gold map[uint32]uint32
}

// Resume runs the launch tr recorded, on a device laid out like the one
// that recorded it, as three parts: threads before from are restored from
// the trace (arena image plus their stores, their counters folded in);
// threads from from on execute live with spec.Hooks; and at the first thread
// boundary where settled() holds — the caller's hooks will behave as they
// did in the golden run from here on — and no word that differs from the
// golden state is loaded by a later golden thread, the remaining threads are
// taken from the trace again. The caller must have put its hooks in the
// state the golden run left them in before thread from.
//
// The Result, the error and device memory equal what Launch produces for
// the same hooks on a fresh device. stop is the first thread that did not
// execute live: on success the caller owes its hooks the golden threads
// from stop on (none when the launch ran to its end); on error it is the
// thread after the failing one.
func (d *Device) Resume(k *kir.Kernel, spec LaunchSpec, tr *Trace, from int, settled func() bool) (res *Result, stop int, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = &Result{}, &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	x, err := d.newTracedLaunch(k, &spec)
	stop = from
	if err != nil {
		return &Result{}, stop, err
	}
	defer x.close()
	n := tr.Threads()
	if k != tr.kernel || spec.Grid != tr.grid || spec.Block != tr.block || len(d.arena) != tr.arenaWords || from < 0 || from > n {
		return &Result{}, stop, &LaunchError{Reason: "launch does not match the golden trace"}
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
			return x.finish(), stop, err
		}
		if d.divergenceDead(tr, stop) && settled() {
			break
		}
	}
	for _, st := range tr.stores[tr.storeEnd(stop):] {
		arena[st.addr] = st.val
	}
	d.volTick += tr.tickAt(n) - tr.tickAt(stop)
	x.foldGolden(tr, stop, n)
	return x.finish(), stop, nil
}

// divergenceDead advances the golden side to the boundary before thread b
// (thread b-1 has just run live) and reports whether every difference
// between device state and the golden state there is dead: no golden thread
// from b on loads a differing word or draws a differing volatile tick. By
// induction over those threads — fresh registers, identical loads, hence
// identical stores — the rest of the launch then is the golden run.
func (d *Device) divergenceDead(tr *Trace, b int) bool {
	sc := &d.resume
	if sc.live.lost {
		return false
	}
	// A differing tick is dead when no later golden thread draws one.
	dead := d.volTick == tr.tickAt(b) || tr.tickAt(b) == tr.tickAt(tr.Threads())
	golden := tr.stores[tr.storeEnd(b-1):tr.storeEnd(b)]
	// The common masked fault: the thread stored what the golden one did.
	if len(sc.gold) == 0 && sameStores(sc.live.recs, golden) {
		return dead
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
	for addr, val := range sc.gold {
		if d.arena[addr] == val {
			delete(sc.gold, addr)
		} else if int(tr.lastLoad(addr)) >= b {
			dead = false
		}
	}
	return dead
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
