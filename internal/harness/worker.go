package harness

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"hauberk/internal/core/ranges"
	"hauberk/internal/core/translate"
	"hauberk/internal/gpu"
	"hauberk/internal/guardian"
	"hauberk/internal/guardian/procexec"
	"hauberk/internal/guardian/procexec/chaos"
	"hauberk/internal/obs"
	"hauberk/internal/swifi"
	"hauberk/internal/workloads"
)

// Isolation modes for CampaignOptions.Isolation.
const (
	// IsolationOff runs every injection in the campaign process (the
	// fast default; panics are contained by the in-process recover path).
	IsolationOff = "off"
	// IsolationProcess runs each injection in a supervised worker
	// subprocess (internal/guardian/procexec): a panic, runaway loop or
	// OOM kills one worker, never the campaign, and the supervisor
	// classifies the death. Falls back to in-process execution per
	// injection when spawning fails.
	IsolationProcess = "process"
)

// isoRequest is one injection run shipped to a worker. The worker stages
// the experiment itself from (program, dataset, mode) — golden runs and
// range profiles are pure functions of them, which is what keeps isolated
// campaigns byte-identical to in-process ones — and Staging is the
// parent's stagingHash of the experiment it prepared: a worker whose own
// staging hashes differently refuses the request rather than run another
// experiment than the campaign's.
type isoRequest struct {
	Program string
	Dataset int
	Mode    translate.Mode
	Staging uint64
	Cmd     swifi.Command
}

// appendIsoRequest appends req's wire form to dst: the uvarint-prefixed
// program, varint dataset and mode, the 8-byte staging hash, varint site
// and instance, the 4-byte mask, varint count and a persistent byte. Both
// ends are the same binary, so the layout has no version.
func appendIsoRequest(dst []byte, req *isoRequest) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(req.Program)))
	dst = append(dst, req.Program...)
	dst = binary.AppendVarint(dst, int64(req.Dataset))
	dst = binary.AppendVarint(dst, int64(req.Mode))
	dst = binary.LittleEndian.AppendUint64(dst, req.Staging)
	dst = binary.AppendVarint(dst, int64(req.Cmd.Site))
	dst = binary.AppendVarint(dst, req.Cmd.Instance)
	dst = binary.LittleEndian.AppendUint32(dst, req.Cmd.Mask)
	dst = binary.AppendVarint(dst, req.Cmd.Count)
	return append(dst, wireBool(req.Cmd.Persistent))
}

// decodeIsoRequest parses appendIsoRequest's layout; a payload with bytes
// missing or left over is an error.
func decodeIsoRequest(p []byte) (isoRequest, error) {
	d := wireDecoder{b: p}
	req := isoRequest{
		Program: string(d.bytes(int(d.uvarint()))),
		Dataset: int(d.varint()),
	}
	if mode := d.varint(); mode < 0 || mode > math.MaxUint8 {
		d.fail("mode")
	} else {
		req.Mode = translate.Mode(mode)
	}
	req.Staging = binary.LittleEndian.Uint64(d.bytes(8))
	req.Cmd.Site = int(d.varint())
	req.Cmd.Instance = d.varint()
	req.Cmd.Mask = binary.LittleEndian.Uint32(d.bytes(4))
	req.Cmd.Count = d.varint()
	req.Cmd.Persistent = d.bool()
	return req, d.done()
}

// Flags of an isolated result's flag byte.
const (
	isoHang = 1 << iota
	isoActivated
)

// appendIsoResult appends what a worker reports of r: a varint outcome and
// one flag byte. The rest of the record comes from the plan, so the store
// record is identical to the in-process one.
func appendIsoResult(dst []byte, r *InjectionResult) []byte {
	dst = binary.AppendVarint(dst, int64(r.Outcome))
	var flags byte
	if r.Hang {
		flags |= isoHang
	}
	if r.Activated {
		flags |= isoActivated
	}
	return append(dst, flags)
}

// decodeIsoResult parses appendIsoResult's layout into inj's result.
func decodeIsoResult(p []byte, inj Injection) (*InjectionResult, error) {
	d := wireDecoder{b: p}
	outcome := d.varint()
	flags := d.bytes(1)
	if err := d.done(); err != nil {
		return nil, err
	}
	if outcome < 0 || outcome > math.MaxUint8 || flags[0]&^(isoHang|isoActivated) != 0 {
		return nil, fmt.Errorf("bad result: outcome %d, flags %#02x", outcome, flags[0])
	}
	return &InjectionResult{
		Injection: inj,
		Outcome:   Outcome(outcome),
		Hang:      flags[0]&isoHang != 0,
		Activated: flags[0]&isoActivated != 0,
	}, nil
}

func wireBool(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// wireDecoder reads the fields of a worker payload in order. The first
// missing or malformed field sticks as its error, and later reads return
// zero values.
type wireDecoder struct {
	b   []byte
	err error
}

func (d *wireDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated or malformed %s", what)
	}
	d.b = nil
}

func (d *wireDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *wireDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// bytes returns the next n bytes; once the payload has failed, 8 zero
// bytes, enough for any fixed-size field.
func (d *wireDecoder) bytes(n int) []byte {
	if n < 0 || n > len(d.b) {
		d.fail(fmt.Sprintf("%d-byte field", n))
	}
	if d.err != nil {
		return make([]byte, 8)
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *wireDecoder) bool() bool {
	switch d.bytes(1)[0] {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("boolean")
	return false
}

// done is the decode's error: the first failure, or bytes left over.
func (d *wireDecoder) done() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing payload bytes", len(d.b))
	}
	return d.err
}

// stagingHash identifies the experiment injections run against, as far as
// their outcome depends on it: program, dataset, library mode, the golden
// output, the range store's detectors (by name: ranges and alpha) and the
// device config. The parent hashes what it prepared, once per campaign;
// a worker hashes what it staged itself.
func stagingHash(spec *workloads.Spec, golden *GoldenRun, store *ranges.Store, mode translate.Mode, cfg gpu.Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%+v|%d|", spec.Name, golden.Dataset.Index, mode, cfg, len(golden.Output))
	buf := make([]byte, 0, 4*len(golden.Output))
	for _, w := range golden.Output {
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	h.Write(buf) //nolint:errcheck // hash writes never fail
	// A private copy reads without the detectors' locks.
	store = store.Clone()
	for _, name := range store.Names() {
		d := store.Get(name)
		fmt.Fprintf(h, "%s|%d|%x|", name, len(d.Ranges), math.Float64bits(d.Alpha))
		for _, r := range d.Ranges {
			fmt.Fprintf(h, "%x,%x|", math.Float64bits(r.Min), math.Float64bits(r.Max))
		}
	}
	return h.Sum64()
}

// workerStagings bounds the (program, dataset) stagings one worker keeps:
// a long-lived worker that serves many datasets must not hold every golden
// run and golden trace it ever built.
const workerStagings = 8

// staging is what a worker built for one (program, dataset): the golden
// run and profiled range store, and per library mode the golden trace
// with its staging hash.
type staging struct {
	key    string
	spec   *workloads.Spec
	golden *GoldenRun
	store  *ranges.Store
	modes  map[translate.Mode]*stagedMode
}

type stagedMode struct {
	gt   *goldenTrace
	hash uint64
}

// workerState is a worker process's staging cache: an LRU of at most
// capacity stagings, most recently used first, built on one Env so the
// instrumented kernels are shared between them.
type workerState struct {
	env      *Env
	capacity int
	lru      []*staging
}

func newWorkerState(capacity int) *workerState {
	// Workers are processes in a pool: each runs one injection at a time
	// so N workers use N cores, not N*NumCPU.
	env := NewEnv(QuickScale())
	env.Scale.Workers = 1
	return &workerState{env: env, capacity: capacity}
}

// stage returns the staging of (program, dataset), building it on a miss
// and evicting the least recently used one beyond capacity.
func (w *workerState) stage(program string, dataset int) (*staging, error) {
	key := fmt.Sprintf("%s|%d", program, dataset)
	for i, st := range w.lru {
		if st.key == key {
			copy(w.lru[1:i+1], w.lru[:i])
			w.lru[0] = st
			return st, nil
		}
	}
	spec := workloads.ByName(program)
	if spec == nil {
		return nil, fmt.Errorf("harness: worker: unknown program %q", program)
	}
	ds := workloads.Dataset{Index: dataset}
	golden, err := w.env.Golden(spec, ds)
	if err != nil {
		return nil, err
	}
	prof, err := w.env.Profile(spec, []workloads.Dataset{ds})
	if err != nil {
		return nil, err
	}
	st := &staging{key: key, spec: spec, golden: golden, store: prof.Store, modes: make(map[translate.Mode]*stagedMode)}
	w.lru = append([]*staging{st}, w.lru...)
	if len(w.lru) > w.capacity {
		w.lru[w.capacity] = nil
		w.lru = w.lru[:w.capacity]
	}
	return st, nil
}

// serve is the worker's procexec handler: decode a request, run it, and
// encode its result. A payload that does not decode runs nothing.
func (w *workerState) serve(id string, payload []byte) ([]byte, error) {
	req, err := decodeIsoRequest(payload)
	if err != nil {
		return nil, fmt.Errorf("harness: worker request %s: %w", id, err)
	}
	r, err := w.run(req)
	if err != nil {
		return nil, err
	}
	return appendIsoResult(nil, r), nil
}

// run serves one request: stage, refuse a request whose staging hash is
// not the worker's, then inject against the staged golden trace.
func (w *workerState) run(req isoRequest) (*InjectionResult, error) {
	st, err := w.stage(req.Program, req.Dataset)
	if err != nil {
		return nil, err
	}
	sm := st.modes[req.Mode]
	if sm == nil {
		gt, err := w.env.goldenTrace(st.spec, st.golden, st.store, req.Mode)
		if err != nil {
			return nil, err
		}
		sm = &stagedMode{gt: gt, hash: stagingHash(st.spec, st.golden, st.store, req.Mode, w.env.Config)}
		st.modes[req.Mode] = sm
	}
	if sm.hash != req.Staging {
		return nil, fmt.Errorf("harness: worker staged %s dataset %d (%s) as %016x but the campaign prepared %016x: "+
			"its range store or device config is not the worker's", req.Program, req.Dataset, req.Mode, sm.hash, req.Staging)
	}
	// The campaign counts the injection from the result; the worker's own
	// telemetry is off.
	return w.env.injectOn(sm.gt, st.golden, Injection{Cmd: req.Cmd}, nil), nil
}

// WorkerMain is the body of `hauberk-run -worker`: serve injection
// requests framed on in/out until in closes. It must own out (stdout)
// exclusively — a stray print would corrupt the framing and be classified
// as a crash by the supervisor. The HAUBERK_CHAOS environment variable,
// inherited from the supervisor, arms deterministic failure injection.
func WorkerMain(in io.Reader, out io.Writer) error {
	plan, err := chaos.FromEnv()
	if err != nil {
		return err
	}
	w := newWorkerState(workerStagings)
	return procexec.Serve(in, out, w.serve, procexec.ServeOptions{Chaos: plan})
}

// workerIdleTimeout is how long a pooled worker may sit idle before its
// supervisor is closed, so a dropped Env — or a daemon gone quiet — does
// not keep worker processes alive until its process exits.
const workerIdleTimeout = time.Second

// workerPool holds the idle isolated-worker supervisors of an Env and its
// clones, keyed by the whole worker configuration (see newIsoCampaign). A
// campaign checks out one supervisor per dispatch slot and returns it with
// its worker alive, so the next campaign with the same configuration pays
// no spawn and, for the same experiment, no staging.
type workerPool struct {
	mu      sync.Mutex
	idle    map[string][]*pooledWorker // by key, least recently returned first
	reaping bool                       // a reap is scheduled
}

// pooledWorker is one supervisor of the pool.
type pooledWorker struct {
	sup *procexec.Supervisor
	key string
	// staged is the staging hash of the last campaign that held it: the
	// experiment its worker staged last.
	staged    uint64
	idleSince time.Time
}

// checkout takes the most recently returned idle supervisor for key, or
// builds one from cfg whose worker spawns on first use.
func (p *workerPool) checkout(key string, cfg procexec.Config) *pooledWorker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ws := p.idle[key]; len(ws) > 0 {
		w := ws[len(ws)-1]
		if len(ws) == 1 {
			delete(p.idle, key)
		} else {
			p.idle[key] = slices.Delete(ws, len(ws)-1, len(ws))
		}
		return w
	}
	return &pooledWorker{sup: procexec.NewSupervisor(cfg), key: key}
}

// checkin returns a supervisor to the pool, where reap closes it once it
// has sat idle for workerIdleTimeout.
func (p *workerPool) checkin(w *pooledWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.idleSince = time.Now()
	if p.idle == nil {
		p.idle = make(map[string][]*pooledWorker)
	}
	p.idle[w.key] = append(p.idle[w.key], w)
	if !p.reaping {
		p.reaping = true
		time.AfterFunc(workerIdleTimeout, p.reap)
	}
}

// reap closes the supervisors idle for workerIdleTimeout and schedules
// itself again while any remain.
func (p *workerPool) reap() {
	var expired []*pooledWorker
	p.mu.Lock()
	now := time.Now()
	next := time.Duration(0)
	for key, ws := range p.idle {
		n := 0
		for n < len(ws) && now.Sub(ws[n].idleSince) >= workerIdleTimeout {
			n++
		}
		expired = append(expired, ws[:n]...)
		if n == len(ws) {
			delete(p.idle, key)
			continue
		}
		ws = slices.Delete(ws, 0, n)
		p.idle[key] = ws
		if left := workerIdleTimeout - now.Sub(ws[0].idleSince); next == 0 || left < next {
			next = left
		}
	}
	p.reaping = next > 0
	if p.reaping {
		time.AfterFunc(next, p.reap)
	}
	p.mu.Unlock()
	for _, w := range expired {
		w.sup.Close()
	}
}

// CloseWorkers closes every idle isolated worker of e and its clones; one
// a running campaign holds is closed once it has sat idle for
// workerIdleTimeout after that campaign returns it. The binaries call it
// on their way out, so no worker outlives them.
func (e *Env) CloseWorkers() {
	p := &e.shared.workers
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, ws := range idle {
		for _, w := range ws {
			w.sup.Close()
		}
	}
}

// isoCampaign is one campaign's hold on its Env's worker pool: the worker
// configuration it checks supervisors out under, the staging hash of its
// experiment, and the supervisor each dispatch slot holds.
type isoCampaign struct {
	pool    *workerPool
	key     string
	cfg     procexec.Config
	obs     *obs.Telemetry
	staging uint64
	held    []*pooledWorker // by dispatch slot; a slot checks out on first use
}

// newIsoCampaign resolves the campaign's worker configuration and staging
// hash. A slot the worker budget does not grant never checks out.
func (e *Env) newIsoCampaign(pc *PreparedCampaign, opts CampaignOptions) (*isoCampaign, error) {
	argv := opts.WorkerArgv
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("harness: resolve worker binary: %w", err)
		}
		argv = []string{exe, "-worker"}
	}
	return &isoCampaign{
		pool: &e.shared.workers,
		// The whole worker configuration, test overrides included, so a
		// chaos campaign never inherits a clean worker nor a clean
		// campaign a chaos one. The chaos plan counts by identity.
		key: fmt.Sprintf("%q %q %p %d %v %v", argv, opts.WorkerEnv, opts.Chaos, opts.maxRestarts, opts.backoff, opts.warmupGrace),
		cfg: procexec.Config{
			Argv:        argv,
			Env:         opts.WorkerEnv,
			MaxRestarts: opts.maxRestarts,
			Backoff:     opts.backoff,
			WarmupGrace: opts.warmupGrace,
			Chaos:       opts.Chaos,
		},
		obs:     e.Obs,
		staging: stagingHash(pc.Spec, pc.Golden, pc.Prof.Store, pc.Mode, e.Config),
		held:    make([]*pooledWorker, e.campaignWorkers()),
	}, nil
}

// supervisor returns the supervisor slot holds, checking one out on the
// slot's first use: its worker lifecycle telemetry now goes to this
// campaign, and a worker that last staged another experiment gets the
// warm-up grace again for its first request. The per-injection watchdog
// deadline travels per request through Run.
func (ic *isoCampaign) supervisor(slot int) *procexec.Supervisor {
	w := ic.held[slot]
	if w == nil {
		w = ic.pool.checkout(ic.key, ic.cfg)
		w.sup.SetObs(ic.obs)
		if w.staged != ic.staging {
			w.sup.Restage()
			w.staged = ic.staging
		}
		ic.held[slot] = w
	}
	return w.sup
}

// release returns the campaign's supervisors to the pool. An interrupted
// campaign closes them instead, so no worker keeps running after an
// interrupt and the slot spawns afresh on its next checkout.
func (ic *isoCampaign) release(interrupted bool) {
	for _, w := range ic.held {
		switch {
		case w == nil:
		case interrupted:
			w.sup.Close()
		default:
			ic.pool.checkin(w)
		}
	}
}

// isoRunMax is the longest run of injections an isolated slot takes and
// pipelines through its worker: a run frame of a shipped program's
// quick-scale plan is 45–53 bytes, so 16 encode to under 1 KiB, far
// inside the pipe buffer procexec writes a whole run into.
const isoRunMax = 16

// runIsolated executes the injections at plan indices run (ascending) in
// the worker slot holds, pipelined, and records each result in order as it
// arrives; a request's ID on the wire is its plan index. It maps process
// deaths onto the campaign's classification: a worker crash (panic,
// SIGKILL, corrupt protocol) that survives the supervisor's restarts is a
// crash failure, a worker hang (no result by the deadline) a hang failure
// — the same outcomes the in-process path produces for *gpu.CrashError and
// a late result, which is what keeps figure digests byte-identical across
// isolation modes. When the worker cannot be spawned at all an injection
// degrades gracefully to the in-process guarded path against gt, counted
// into the campaign's im.
func (e *Env) runIsolated(
	ctx context.Context,
	ic *isoCampaign,
	slot int,
	pc *PreparedCampaign,
	gt *goldenTrace,
	run []int,
	timeout time.Duration,
	im *injectionMetrics,
	record func(idx int, r *InjectionResult) error,
) error {
	reqs := make([]procexec.Request, len(run))
	var wire []byte
	for k, idx := range run {
		inj := pc.Plan[idx]
		at := len(wire)
		wire = appendIsoRequest(wire, &isoRequest{
			Program: pc.Spec.Name,
			Dataset: pc.Golden.Dataset.Index,
			Mode:    pc.Mode,
			Staging: ic.staging,
			Cmd:     inj.Cmd,
		})
		reqs[k] = procexec.Request{ID: strconv.Itoa(idx), Payload: wire[at:len(wire):len(wire)], Timeout: timeout}
	}
	return ic.supervisor(slot).Run(ctx, reqs, func(k int, resp []byte, err error) error {
		idx := run[k]
		r, err := e.isolatedResult(pc, gt, pc.Plan[idx], resp, err, timeout, im)
		if err != nil {
			return fmt.Errorf("injection %d: %w", idx, err)
		}
		return record(idx, r)
	})
}

// isolatedResult classifies one injection's worker response, or its
// error as procexec recorded it.
func (e *Env) isolatedResult(
	pc *PreparedCampaign,
	gt *goldenTrace,
	inj Injection,
	resp []byte,
	err error,
	timeout time.Duration,
	im *injectionMetrics,
) (*InjectionResult, error) {
	var crash *guardian.WorkerCrashError
	var hang *guardian.WorkerHangError
	switch {
	case err == nil:
		r, err := decodeIsoResult(resp, inj)
		if err != nil {
			return nil, fmt.Errorf("harness: worker response for %s: %w", inj.Cmd.Key(), err)
		}
		return r, nil

	case errors.Is(err, procexec.ErrSpawn):
		// Isolation unavailable: degrade to the in-process path rather
		// than fail the campaign (the recover path in gpu/harness still
		// contains panics, just without a process boundary).
		if e.Obs.Enabled() {
			e.Obs.Emit(obs.EvWorkerFallback,
				obs.Str("program", pc.Spec.Name),
				obs.Str("reason", err.Error()))
			e.Obs.Metrics().Counter("hauberk_worker_spawn_fallbacks_total").Inc()
		}
		return e.runInjectionGuarded(pc, gt, inj, timeout, im), nil

	case errors.As(err, &crash):
		return &InjectionResult{Injection: inj, Outcome: OutcomeFailure}, nil
	case errors.As(err, &hang):
		return &InjectionResult{Injection: inj, Outcome: OutcomeFailure, Hang: true, TimedOut: true}, nil
	}
	return nil, err
}
