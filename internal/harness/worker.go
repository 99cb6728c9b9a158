package harness

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"slices"
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

// isoRequest is the wire form of one injection run shipped to a worker.
// The worker stages the experiment itself from (program, dataset, mode) —
// golden runs and range profiles are pure functions of them, which is
// what keeps isolated campaigns byte-identical to in-process ones — and
// Staging is the parent's stagingHash of the experiment it prepared: a
// worker whose own staging hashes differently refuses the request rather
// than run another experiment than the campaign's.
type isoRequest struct {
	Program string       `json:"program"`
	Dataset int          `json:"dataset"`
	Mode    int          `json:"mode"`
	Staging uint64       `json:"staging"`
	Cmd     swifiCommand `json:"cmd"`
}

// isoResponse is the classified outcome shipped back. It carries exactly
// the fields recordOf needs beyond the plan's own (bits, class), so the
// store record is identical to the in-process one.
type isoResponse struct {
	Outcome   int  `json:"outcome"`
	Hang      bool `json:"hang"`
	Activated bool `json:"activated"`
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

// run serves one request: stage, refuse a request whose staging hash is
// not the worker's, then inject against the staged golden trace.
func (w *workerState) run(req isoRequest) (isoResponse, error) {
	st, err := w.stage(req.Program, req.Dataset)
	if err != nil {
		return isoResponse{}, err
	}
	mode := translate.Mode(req.Mode)
	sm := st.modes[mode]
	if sm == nil {
		gt, err := w.env.goldenTrace(st.spec, st.golden, st.store, mode)
		if err != nil {
			return isoResponse{}, err
		}
		sm = &stagedMode{gt: gt, hash: stagingHash(st.spec, st.golden, st.store, mode, w.env.Config)}
		st.modes[mode] = sm
	}
	if sm.hash != req.Staging {
		return isoResponse{}, fmt.Errorf("harness: worker staged %s dataset %d (%s) as %016x but the campaign prepared %016x: "+
			"its range store or device config is not the worker's", req.Program, req.Dataset, mode, sm.hash, req.Staging)
	}
	r := w.env.injectOn(sm.gt, st.golden, Injection{Cmd: req.Cmd.command()})
	return isoResponse{Outcome: int(r.Outcome), Hang: r.Hang, Activated: r.Activated}, nil
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
	h := func(id string, payload json.RawMessage) (json.RawMessage, error) {
		var req isoRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("harness: worker request %s: %w", id, err)
		}
		resp, err := w.run(req)
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
	}
	return procexec.Serve(in, out, h, procexec.ServeOptions{Chaos: plan})
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
// pipelines through its worker: 16 requests of ≈ 200 bytes encode to
// ≈ 3 KiB, far inside the pipe buffer procexec writes a whole run into.
const isoRunMax = 16

// runIsolated executes the injections at plan indices run (ascending) in
// the worker slot holds, pipelined, and records each result in order as it
// arrives. It maps process deaths onto the campaign's classification: a
// worker crash (panic, SIGKILL, corrupt protocol) that survives the
// supervisor's restarts is a crash failure, a worker hang (heartbeat miss
// or watchdog deadline) a hang failure — the same outcomes the in-process
// path produces for *gpu.CrashError and watchdog expiry, which is what
// keeps figure digests byte-identical across isolation modes. When the
// worker cannot be spawned at all an injection degrades gracefully to the
// in-process guarded path against gt.
func (e *Env) runIsolated(
	ctx context.Context,
	ic *isoCampaign,
	slot int,
	pc *PreparedCampaign,
	gt *goldenTrace,
	run []int,
	timeout time.Duration,
	record func(idx int, r *InjectionResult) error,
) error {
	reqs := make([]procexec.Request, len(run))
	for k, idx := range run {
		inj := pc.Plan[idx]
		payload, err := json.Marshal(isoRequest{
			Program: pc.Spec.Name,
			Dataset: pc.Golden.Dataset.Index,
			Mode:    int(pc.Mode),
			Staging: ic.staging,
			Cmd:     wireCommand(inj.Cmd),
		})
		if err != nil {
			return err
		}
		reqs[k] = procexec.Request{ID: inj.Cmd.Key(), Payload: payload, Timeout: timeout}
	}
	return ic.supervisor(slot).Run(ctx, reqs, func(k int, resp json.RawMessage, err error) error {
		idx := run[k]
		r, err := e.isolatedResult(ctx, pc, gt, pc.Plan[idx], resp, err, timeout)
		if err != nil {
			return fmt.Errorf("injection %d: %w", idx, err)
		}
		return record(idx, r)
	})
}

// isolatedResult classifies one injection's worker response, or its
// error as procexec recorded it.
func (e *Env) isolatedResult(
	ctx context.Context,
	pc *PreparedCampaign,
	gt *goldenTrace,
	inj Injection,
	resp json.RawMessage,
	err error,
	timeout time.Duration,
) (*InjectionResult, error) {
	var crash *guardian.WorkerCrashError
	var hang *guardian.WorkerHangError
	switch {
	case err == nil:
		var out isoResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			return nil, fmt.Errorf("harness: worker response for %s: %w", inj.Cmd.Key(), err)
		}
		return &InjectionResult{
			Injection: inj,
			Outcome:   Outcome(out.Outcome),
			Hang:      out.Hang,
			Activated: out.Activated,
		}, nil

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
		return e.runInjectionGuarded(ctx, pc, gt, inj, timeout)

	case errors.As(err, &crash):
		return &InjectionResult{Injection: inj, Outcome: OutcomeFailure}, nil
	case errors.As(err, &hang):
		return &InjectionResult{Injection: inj, Outcome: OutcomeFailure, Hang: true, TimedOut: true}, nil
	}
	return nil, err
}

// swifiCommand is the JSON wire form of swifi.Command (declared here so
// the wire schema is explicit and stable rather than borrowing whatever
// field set the in-memory struct grows).
type swifiCommand struct {
	Site       int    `json:"site"`
	Instance   int64  `json:"instance"`
	Mask       uint32 `json:"mask"`
	Count      int64  `json:"count,omitempty"`
	Persistent bool   `json:"persistent,omitempty"`
}

func wireCommand(c swifi.Command) swifiCommand {
	return swifiCommand{Site: c.Site, Instance: c.Instance, Mask: c.Mask,
		Count: c.Count, Persistent: c.Persistent}
}

func (c swifiCommand) command() swifi.Command {
	return swifi.Command{Site: c.Site, Instance: c.Instance, Mask: c.Mask,
		Count: c.Count, Persistent: c.Persistent}
}
