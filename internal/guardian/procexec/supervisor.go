package procexec

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"hauberk/internal/guardian"
	"hauberk/internal/guardian/procexec/chaos"
	"hauberk/internal/obs"
)

// ErrSpawn wraps every failure to start a worker process. Callers treat
// it as "isolation unavailable" and degrade gracefully to the in-process
// path rather than failing the run.
var ErrSpawn = errors.New("procexec: worker spawn failed")

// Config tunes a Supervisor.
type Config struct {
	// Argv is the worker command line (argv[0] is the binary); required.
	// The conventional worker is the running binary itself with the
	// hidden -worker flag.
	Argv []string
	// Env entries are appended to the inherited environment.
	Env []string
	// MaxRestarts bounds per-request respawns after a crash or hang
	// (default 2, the guardian's diagnose-after-two-failures rule;
	// negative disables restarting).
	MaxRestarts int
	// Backoff paces restarts, in milliseconds (default: doubling from
	// 25ms, capped at 1s).
	Backoff guardian.BackoffPolicy
	// WarmupGrace extends the request deadline for the first request of a
	// freshly spawned worker, or of one told to Restage, which must stage
	// the program (profile, golden run) before executing (default 15s).
	WarmupGrace time.Duration
	// Chaos injects deterministic spawn failures (see the chaos
	// package); worker-side chaos rides in Env/HAUBERK_CHAOS.
	Chaos *chaos.Plan
}

func (c Config) withDefaults() Config {
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 2
	} else if c.MaxRestarts < 0 {
		c.MaxRestarts = 0
	}
	if c.Backoff == (guardian.BackoffPolicy{}) {
		c.Backoff = guardian.BackoffPolicy{Init: 25, Factor: 2, Max: 1000}
	}
	if c.WarmupGrace <= 0 {
		c.WarmupGrace = 15 * time.Second
	}
	return c
}

// Supervisor owns one worker subprocess at a time, restarting it across
// crashes and hangs. It serializes requests: one Run (or Do) at a time
// (the harness pools Supervisors, one per campaign worker slot, for
// parallelism).
type Supervisor struct {
	cfg Config
	// obs, when enabled, journals worker lifecycle events and feeds the
	// hauberk_worker_* metrics (see SetObs). May be nil.
	obs *obs.Telemetry

	opMu sync.Mutex // one in-flight Run
	mu   sync.Mutex // guards the fields below
	w    *workerProc
	// spawnSeq counts spawn attempts (chaos spawnfail addressing).
	spawnSeq int
	closed   bool
}

// NewSupervisor builds a supervisor; the first Run spawns the worker.
func NewSupervisor(cfg Config) *Supervisor {
	return &Supervisor{cfg: cfg.withDefaults()}
}

// frameEvent is one reader-goroutine observation, stamped with its
// arrival time: a frame or the terminal stream error (EOF, truncation,
// corruption). A timer tick of the frame-wait loop is an event with
// neither.
type frameEvent struct {
	f   *Frame
	err error
	at  time.Time
}

// workerProc is one live worker subprocess.
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	events chan frameEvent
	stderr *tailBuffer
	pgid   int
	served int // requests completed since the process last staged (see Restage)
	reaped sync.Once
}

// Request is one request of a run.
type Request struct {
	// ID names the request on the wire; frames echo it.
	ID      string
	Payload []byte
	// Timeout bounds the request's execution, from the arrival of the
	// previous result (or from the write of the run, for its first
	// request); it must be positive, since it is the only clock that ends
	// a worker gone silent. On expiry the worker's process group is killed
	// and the request classified as a hang.
	Timeout time.Duration
}

// maxRunBytes bounds the encoded frames of a run of more than one
// request. Run writes a whole run before it reads any result, which
// cannot deadlock while the run fits the worker's stdin pipe buffer
// (64 KiB on Linux) with room to spare.
const maxRunBytes = 32 << 10

// Do executes one request on the worker: a one-request Run. timeout
// bounds the request's execution (the campaign runner derives one per
// request from the clean run's time, the Section VI(i) rule). It returns
// the response, or the request's error as Run records it: a final
// *WorkerCrashError or *WorkerHangError for the caller to classify, an
// ErrSpawn-wrapped error (degrade to in-process execution), the handler's
// application error, or ctx's error.
func (s *Supervisor) Do(ctx context.Context, id string, payload []byte, timeout time.Duration) ([]byte, error) {
	var resp []byte
	var rerr error
	err := s.Run(ctx, []Request{{ID: id, Payload: payload, Timeout: timeout}}, func(_ int, r []byte, err error) error {
		resp, rerr = r, err
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, rerr
}

// Run executes reqs on the worker in order, spawning or restarting it as
// needed, and pipelines them: every run frame leaves in one write, then
// the results are read as the worker produces them. record is called once
// per request, in order, with its response or its error, as each arrives.
//
// A request's own failure goes to record, not to Run's return:
//
//   - A crash or hang is the first unanswered request's: the worker runs
//     its requests serially, so that is the one that died, and the ones
//     after it never started. That request is retried on a fresh worker up
//     to MaxRestarts times with back-off, the rest of the run re-sent
//     behind it; a persistent failure is recorded as its final
//     *WorkerCrashError or *WorkerHangError, and the run goes on.
//   - A spawn failure (ErrSpawn) is recorded for the request at hand,
//     unretried; the next request tries to spawn again.
//   - An application failure (the handler's error) is recorded as is; the
//     worker stays alive.
//
// Run stops early when record returns an error, which Run returns, or
// when ctx is cancelled (ctx's error). A worker with requests still in
// flight is then killed, so the supervisor's next holder never reads
// their results. A run holding a request without a positive Timeout is
// refused before any worker spawns.
func (s *Supervisor) Run(ctx context.Context, reqs []Request, record func(i int, resp []byte, err error) error) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()

	// offs[i] is where request i's frame starts in wire: a pass re-sends
	// the tail of the run from its first unanswered request.
	var wire []byte
	offs := make([]int, len(reqs))
	for i, r := range reqs {
		if r.Timeout <= 0 {
			return fmt.Errorf("procexec: request %q has no deadline (timeout %v)", r.ID, r.Timeout)
		}
		offs[i] = len(wire)
		wire = appendFrame(wire, &Frame{Type: FrameRun, ID: r.ID, Payload: r.Payload})
	}
	if len(reqs) > 1 && len(wire) > maxRunBytes {
		return fmt.Errorf("procexec: a %d-request run encodes to %d bytes, over the %d a pipelined write may hold", len(reqs), len(wire), maxRunBytes)
	}

	next := 0    // the first request without a recorded outcome
	attempt := 0 // failed attempts of reqs[next]
	for next < len(reqs) {
		if attempt > 0 {
			delay := time.Duration(s.cfg.Backoff.Delay(attempt-1)) * time.Millisecond
			s.emitRestart(reqs[next].ID, attempt, delay)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
		}
		base := next
		n, fail, err := s.pass(ctx, reqs[next:], wire[offs[next]:], func(i int, resp []byte, err error) error {
			return record(base+i, resp, err)
		})
		if err != nil {
			return err
		}
		if n > 0 {
			next, attempt = next+n, 0
		}
		if fail == nil {
			continue
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var crash *guardian.WorkerCrashError
		var hang *guardian.WorkerHangError
		if (errors.As(fail, &crash) || errors.As(fail, &hang)) && attempt < s.cfg.MaxRestarts {
			attempt++
			continue
		}
		// A spawn failure — restarting would not change it — or a death
		// that outlived its restarts.
		if err := record(next, nil, fail); err != nil {
			return err
		}
		next, attempt = next+1, 0
	}
	return nil
}

// SetObs points the supervisor's worker lifecycle telemetry at t, so a
// pooled supervisor reports to whoever holds it now. Call it between
// requests.
func (s *Supervisor) SetObs(t *obs.Telemetry) {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	s.obs = t
}

// Restage tells the supervisor that the live worker's next request stages
// an experiment it has not run before, so that request gets the warm-up
// grace a freshly spawned worker's first request gets. Call it between
// requests.
func (s *Supervisor) Restage() {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		s.w.served = 0
	}
}

// pass is the frame-wait loop: it writes the run frames wire encodes for
// reqs to one (possibly fresh) worker and records their results in order.
// It returns how many it recorded and, when it ends early, either the
// failure of the next request (a crash or hang, the worker discarded; or
// a spawn error) or the error that stops the run (ctx's or record's).
func (s *Supervisor) pass(ctx context.Context, reqs []Request, wire []byte, record func(int, []byte, error) error) (n int, fail, stop error) {
	w, err := s.worker()
	if err != nil {
		return 0, err, nil
	}
	start := time.Now()
	if _, err := w.stdin.Write(wire); err != nil {
		// The pipe broke: the worker died between requests.
		return 0, s.fail(w, &guardian.WorkerCrashError{ExitCode: -1, Reason: "run frame write failed: " + err.Error()}), nil
	}
	var st waitState
	st.head(reqs[0].ID, s.budget(w, reqs[0].Timeout), start)
	timer := time.NewTimer(time.Until(st.due))
	defer timer.Stop()
	for {
		ev, err := w.await(ctx, timer.C)
		if err != nil {
			// Cancellation (SIGINT/SIGTERM upstream): kill the whole
			// worker group so nothing keeps running — or writing — after
			// the campaign flushes its store and exits.
			s.fail(w, nil) //nolint:errcheck
			return n, nil, err
		}
		v, resp, err := st.judge(ev)
		switch v {
		case failed:
			return n, s.fail(w, err), nil
		case answered:
			w.served++
			n++
			if rerr := record(n-1, resp, err); rerr != nil {
				if n < len(reqs) {
					s.fail(w, nil) //nolint:errcheck
				}
				return n, nil, rerr
			}
			if n == len(reqs) {
				return n, nil, nil
			}
			st.head(reqs[n].ID, s.budget(w, reqs[n].Timeout), ev.at)
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Until(st.due))
	}
}

// budget is a request's watchdog budget on w: its timeout, plus the
// warm-up grace while w has served nothing since it last staged.
func (s *Supervisor) budget(w *workerProc, timeout time.Duration) time.Duration {
	if w.served == 0 {
		timeout += s.cfg.WarmupGrace
	}
	return timeout
}

// await returns the worker's next event, or a tick once timer fires. A
// frame that was queued when the tick was taken comes first, so every
// frame is judged by its own arrival stamp, never by which channel select
// happened to pick.
func (w *workerProc) await(ctx context.Context, timer <-chan time.Time) (frameEvent, error) {
	if err := ctx.Err(); err != nil {
		return frameEvent{}, err
	}
	select {
	case ev := <-w.events:
		return ev, nil
	case <-ctx.Done():
		return frameEvent{}, ctx.Err()
	case at := <-timer:
		select {
		case ev := <-w.events:
			return ev, nil
		default:
			return frameEvent{at: at}, nil
		}
	}
}

// waitState is the frame-wait loop's view of a pass: the request awaiting
// its result and the deadline that declares the worker hung. judge holds
// every classification rule, apart from pipes and timers, so tests can
// feed it synthetic (frame, arrival) sequences.
type waitState struct {
	id     string        // the head request: the first without a result
	budget time.Duration // its watchdog budget, grace included
	due    time.Time     // its deadline
}

// verdict is judge's decision on one event.
type verdict int

const (
	waiting  verdict = iota // nothing resolved
	answered                // the head request's result or application error
	failed                  // the worker crashed or hung: kill it
)

// head makes id the request awaiting its result, armed at at: its
// deadline counts from there.
func (st *waitState) head(id string, budget time.Duration, at time.Time) {
	st.id, st.budget, st.due = id, budget, at.Add(budget)
}

// judge classifies one event. Whatever it carries, an event stamped on or
// past the head's deadline is a hang: a result that lands late is a hang
// however select ordered it against the timer, the rule guard.run applies
// in-process.
func (st *waitState) judge(ev frameEvent) (verdict, []byte, error) {
	switch {
	case !ev.at.Before(st.due):
		return failed, nil, &guardian.WorkerHangError{
			Reason: fmt.Sprintf("request exceeded %v (watchdog)", st.budget),
		}
	case ev.err != nil:
		// The stream ended: clean EOF mid-request and corrupt frames
		// alike mean the worker died before its result.
		reason := "worker stream ended before result"
		if !errors.Is(ev.err, io.EOF) {
			reason = ev.err.Error()
		}
		return failed, nil, &guardian.WorkerCrashError{ExitCode: -1, Reason: reason}
	case ev.f == nil:
		return waiting, nil, nil // a tick before the deadline
	}
	f := ev.f
	switch {
	case f.Type == FrameResult && f.ID == st.id:
		return answered, f.Payload, nil
	case f.Type == FrameError && f.ID == st.id:
		return answered, nil, fmt.Errorf("procexec: worker: %s", f.Error)
	}
	return failed, nil, &guardian.WorkerCrashError{
		ExitCode: -1,
		Reason:   fmt.Sprintf("protocol confusion: unexpected %q frame for id %q", f.Type, f.ID),
	}
}

// worker returns the live worker, spawning one if needed.
func (s *Supervisor) worker() (*workerProc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("procexec: supervisor closed")
	}
	if s.w != nil {
		return s.w, nil
	}
	seq := s.spawnSeq
	s.spawnSeq++
	if s.cfg.Chaos.SpawnFails(seq) {
		return nil, fmt.Errorf("%w: chaos spawnfail@%d", ErrSpawn, seq)
	}
	if len(s.cfg.Argv) == 0 {
		return nil, fmt.Errorf("%w: empty worker argv", ErrSpawn)
	}
	cmd := exec.Command(s.cfg.Argv[0], s.cfg.Argv[1:]...)
	cmd.Env = append(os.Environ(), s.cfg.Env...)
	// Its own process group: a kill reaches the worker and everything it
	// spawned, the paper's kill(2) primitive at the right granularity.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpawn, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpawn, err)
	}
	tail := &tailBuffer{}
	cmd.Stderr = tail
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpawn, err)
	}
	w := &workerProc{
		cmd:    cmd,
		stdin:  stdin,
		events: make(chan frameEvent, 64),
		stderr: tail,
		pgid:   cmd.Process.Pid, // Setpgid with Pgid 0 → pgid == pid
	}
	liveGroups.Store(w.pgid, struct{}{})
	go func() {
		r := bufio.NewReader(stdout)
		for {
			// Stamped here, on arrival, not when the loop gets to it.
			f, err := ReadFrame(r)
			w.events <- frameEvent{f: f, err: err, at: time.Now()}
			if err != nil {
				return
			}
		}
	}()
	s.w = w
	if s.obs.Enabled() {
		s.obs.Emit(obs.EvWorkerSpawn,
			obs.Int("pid", int64(cmd.Process.Pid)),
			obs.Int("pgid", int64(w.pgid)),
			obs.Int("spawn_seq", int64(seq)),
			obs.Str("argv0", s.cfg.Argv[0]))
		s.obs.Metrics().Counter("hauberk_worker_spawns_total").Inc()
	}
	return w, nil
}

// fail kills the worker's process group, reaps it, discards it, and
// enriches cause with the observed exit status and stderr tail. A nil
// cause (cancellation) just kills and reaps.
func (s *Supervisor) fail(w *workerProc, cause error) error {
	syscall.Kill(-w.pgid, syscall.SIGKILL) //nolint:errcheck
	ps := w.reap()
	s.mu.Lock()
	if s.w == w {
		s.w = nil
	}
	s.mu.Unlock()

	if crash, ok := cause.(*guardian.WorkerCrashError); ok {
		if ps != nil {
			if ws, ok := ps.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
				crash.Signal = ws.Signal().String()
			} else {
				crash.ExitCode = ps.ExitCode()
			}
		}
		if tail := w.stderr.String(); tail != "" {
			if crash.Reason != "" {
				crash.Reason += "; "
			}
			crash.Reason += "stderr: " + tail
		}
		s.emitCrash(crash)
	}
	if hang, ok := cause.(*guardian.WorkerHangError); ok {
		s.emitHang(hang)
	}
	return cause
}

// reap waits for the process exactly once and returns its final state.
func (w *workerProc) reap() *os.ProcessState {
	w.reaped.Do(func() {
		w.stdin.Close() //nolint:errcheck
		w.cmd.Wait()    //nolint:errcheck
		liveGroups.Delete(w.pgid)
	})
	return w.cmd.ProcessState
}

// Close shuts the supervisor down: stdin is closed so an idle worker
// exits cleanly, then the process group is killed and reaped. Close is
// idempotent; the harness calls it when a pooled supervisor has sat idle
// too long or its Env's workers are closed.
func (s *Supervisor) Close() {
	s.mu.Lock()
	s.closed = true
	w := s.w
	s.w = nil
	s.mu.Unlock()
	if w == nil {
		return
	}
	w.stdin.Close()                        //nolint:errcheck
	syscall.Kill(-w.pgid, syscall.SIGKILL) //nolint:errcheck
	w.reap()
}

// --- orphan protection ----------------------------------------------------

// liveGroups tracks every live worker process group in this process, so a
// signal handler can guarantee no orphaned worker survives the campaign.
var liveGroups sync.Map // pgid (int) → struct{}

// KillAllWorkers SIGKILLs every live worker process group and returns how
// many were signalled. cmd/hauberk-run calls it on SIGINT/SIGTERM before
// the durable store flush: a worker that kept computing (and writing its
// stdout pipe) after the parent exited with the resumable status would be
// an orphan no supervisor ever reaps.
func KillAllWorkers() int {
	n := 0
	liveGroups.Range(func(k, _ any) bool {
		syscall.Kill(-(k.(int)), syscall.SIGKILL) //nolint:errcheck
		n++
		return true
	})
	return n
}

// --- telemetry ------------------------------------------------------------

func (s *Supervisor) emitCrash(e *guardian.WorkerCrashError) {
	if !s.obs.Enabled() {
		return
	}
	s.obs.Emit(obs.EvWorkerCrash,
		obs.Int("exit", int64(e.ExitCode)),
		obs.Str("signal", e.Signal),
		obs.Str("reason", e.Reason))
	s.obs.Metrics().Counter("hauberk_worker_crashes_total").Inc()
}

func (s *Supervisor) emitHang(e *guardian.WorkerHangError) {
	if !s.obs.Enabled() {
		return
	}
	s.obs.Emit(obs.EvWorkerHang, obs.Str("reason", e.Reason))
	s.obs.Metrics().Counter("hauberk_worker_hangs_total").Inc()
}

func (s *Supervisor) emitRestart(id string, attempt int, delay time.Duration) {
	if !s.obs.Enabled() {
		return
	}
	s.obs.Emit(obs.EvWorkerRestart,
		obs.Str("id", id),
		obs.Int("attempt", int64(attempt)),
		obs.Int("backoff_ms", int64(delay/time.Millisecond)))
	s.obs.Metrics().Counter("hauberk_worker_restarts_total").Inc()
}

// tailBuffer keeps the last chunk of the worker's stderr (a panic stack,
// a fatal message) for crash reasons. Safe for the concurrent writes an
// exec.Cmd delivers.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailMax = 2048

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailMax {
		t.buf = t.buf[len(t.buf)-tailMax:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
