package procexec

import (
	"context"
	"encoding/json"
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
	// Heartbeat is the interval workers emit liveness frames at
	// (default DefaultHeartbeat; must match the worker's ServeOptions).
	Heartbeat time.Duration
	// HeartbeatMisses is how many consecutive intervals may pass with no
	// frame before the worker is presumed hung (default 40 — a one-second
	// window at the default interval).
	HeartbeatMisses int
	// MaxRestarts bounds per-request respawns after a crash or hang
	// (default 2, the guardian's diagnose-after-two-failures rule;
	// negative disables restarting).
	MaxRestarts int
	// Backoff paces restarts, in milliseconds (default: the campaign
	// engine's doubling policy from 25ms capped at 1s).
	Backoff guardian.BackoffPolicy
	// WarmupGrace extends the request deadline for the first request of a
	// freshly spawned worker, which must re-stage the program (profile,
	// golden run) before executing (default 15s).
	WarmupGrace time.Duration
	// Chaos injects deterministic spawn failures (see the chaos
	// package); worker-side chaos rides in Env/HAUBERK_CHAOS.
	Chaos *chaos.Plan
	// Obs, when enabled, journals worker lifecycle events and feeds the
	// hauberk_worker_* metrics. May be nil.
	Obs *obs.Telemetry
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 40
	}
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
// crashes and hangs. It serializes requests: one Do call runs at a time
// (campaigns hold a pool of Supervisors for parallelism).
type Supervisor struct {
	cfg Config

	opMu sync.Mutex // one in-flight Do
	mu   sync.Mutex // guards the fields below
	w    *workerProc
	// spawnSeq counts spawn attempts (chaos spawnfail addressing).
	spawnSeq int
	closed   bool
}

// NewSupervisor builds a supervisor; the first Do spawns the worker.
func NewSupervisor(cfg Config) *Supervisor {
	return &Supervisor{cfg: cfg.withDefaults()}
}

// frameEvent is one reader-goroutine observation: a frame or the terminal
// stream error (EOF, truncation, corruption).
type frameEvent struct {
	f   *Frame
	err error
}

// workerProc is one live worker subprocess.
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	events chan frameEvent
	stderr *tailBuffer
	pgid   int
	served int // requests completed by this process
	reaped sync.Once
}

// Do executes one request on the worker, spawning or restarting it as
// needed. timeout bounds the request's execution (0: no deadline; the
// campaign runner derives one per request from the clean run's time, the
// Section VI(i) rule); on expiry the worker's process group is killed and
// the attempt classified as a hang. Crashes
// and hangs are retried on a fresh worker up to MaxRestarts times with
// back-off; a persistent failure returns the final *WorkerCrashError or
// *WorkerHangError for the caller to classify. Spawn failures return
// ErrSpawn-wrapped errors immediately (degrade to in-process execution).
func (s *Supervisor) Do(ctx context.Context, id string, payload json.RawMessage, timeout time.Duration) (json.RawMessage, error) {
	s.opMu.Lock()
	defer s.opMu.Unlock()

	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			delay := time.Duration(s.cfg.Backoff.Delay(attempt-1)) * time.Millisecond
			s.emitRestart(id, attempt, delay)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(delay):
			}
		}
		resp, err := s.doOnce(ctx, id, payload, timeout)
		if err == nil {
			return resp, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var crash *guardian.WorkerCrashError
		var hang *guardian.WorkerHangError
		if !errors.As(err, &crash) && !errors.As(err, &hang) {
			// Spawn failures and application errors are not process
			// deaths: restarting would not change them.
			return nil, err
		}
		lastErr = err
		if attempt >= s.cfg.MaxRestarts {
			return nil, lastErr
		}
	}
}

// doOnce runs one attempt on a (possibly fresh) worker.
func (s *Supervisor) doOnce(ctx context.Context, id string, payload json.RawMessage, timeout time.Duration) (json.RawMessage, error) {
	w, err := s.worker()
	if err != nil {
		return nil, err
	}
	deadline := timeout
	if deadline > 0 && w.served == 0 {
		deadline += s.cfg.WarmupGrace
	}

	if err := WriteFrame(w.stdin, &Frame{Type: FrameRun, ID: id, Payload: payload}); err != nil {
		// The pipe broke: the worker died between requests.
		return nil, s.fail(w, &guardian.WorkerCrashError{ExitCode: -1, Reason: "run frame write failed: " + err.Error()})
	}

	hbWindow := s.cfg.Heartbeat * time.Duration(s.cfg.HeartbeatMisses)
	hbTimer := time.NewTimer(hbWindow)
	defer hbTimer.Stop()
	var reqC <-chan time.Time
	if deadline > 0 {
		reqTimer := time.NewTimer(deadline)
		defer reqTimer.Stop()
		reqC = reqTimer.C
	}
	lastBeat := time.Now()

	for {
		select {
		case <-ctx.Done():
			// Cancellation (SIGINT/SIGTERM upstream): kill the whole
			// worker group so nothing keeps running — or writing — after
			// the campaign flushes its store and exits.
			s.fail(w, nil) //nolint:errcheck
			return nil, ctx.Err()

		case ev := <-w.events:
			if ev.err != nil {
				// The stream ended: clean EOF mid-request and corrupt
				// frames alike mean the worker died before its result.
				reason := "worker stream ended before result"
				if !errors.Is(ev.err, io.EOF) {
					reason = ev.err.Error()
				}
				return nil, s.fail(w, &guardian.WorkerCrashError{ExitCode: -1, Reason: reason})
			}
			f := ev.f
			switch {
			case f.Type == FrameHeartbeat:
				if f.ID == id {
					now := time.Now()
					s.noteHeartbeat(now.Sub(lastBeat))
					lastBeat = now
					if !hbTimer.Stop() {
						<-hbTimer.C
					}
					hbTimer.Reset(hbWindow)
				}
				// Stale heartbeats from a just-completed request are
				// harmless; drop them without resetting the window.
			case f.Type == FrameResult && f.ID == id:
				w.served++
				return f.Payload, nil
			case f.Type == FrameError && f.ID == id:
				w.served++
				return nil, fmt.Errorf("procexec: worker: %s", f.Error)
			default:
				return nil, s.fail(w, &guardian.WorkerCrashError{
					ExitCode: -1,
					Reason:   fmt.Sprintf("protocol confusion: unexpected %q frame for id %q", f.Type, f.ID),
				})
			}

		case <-hbTimer.C:
			return nil, s.fail(w, &guardian.WorkerHangError{
				HeartbeatMiss: true,
				Reason:        fmt.Sprintf("no frame for %v", hbWindow),
			})

		case <-reqC:
			return nil, s.fail(w, &guardian.WorkerHangError{
				Reason: fmt.Sprintf("request exceeded %v (watchdog)", deadline),
			})
		}
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
		for {
			f, err := ReadFrame(stdout)
			if err != nil {
				w.events <- frameEvent{err: err}
				return
			}
			w.events <- frameEvent{f: f}
		}
	}()
	s.w = w
	if s.cfg.Obs.Enabled() {
		s.cfg.Obs.Emit(obs.EvWorkerSpawn,
			obs.Int("pid", int64(cmd.Process.Pid)),
			obs.Int("pgid", int64(w.pgid)),
			obs.Int("spawn_seq", int64(seq)),
			obs.Str("argv0", s.cfg.Argv[0]))
		s.cfg.Obs.Metrics().Counter("hauberk_worker_spawns_total").Inc()
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
// idempotent and must run before the campaign's final store flush, so no
// worker outlives the run.
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

// heartbeatLagBuckets are the upper bounds (ms) for the worker
// heartbeat-lag histogram: the observed gap between consecutive
// liveness frames, whose tail is the early-warning signal for a worker
// drifting toward its heartbeat-miss window.
var heartbeatLagBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

func (s *Supervisor) noteHeartbeat(lag time.Duration) {
	if s.cfg.Obs.Enabled() {
		s.cfg.Obs.Metrics().Histogram("hauberk_worker_heartbeat_lag_ms", heartbeatLagBuckets).
			Observe(float64(lag) / float64(time.Millisecond))
	}
}

func (s *Supervisor) emitCrash(e *guardian.WorkerCrashError) {
	if !s.cfg.Obs.Enabled() {
		return
	}
	s.cfg.Obs.Emit(obs.EvWorkerCrash,
		obs.Int("exit", int64(e.ExitCode)),
		obs.Str("signal", e.Signal),
		obs.Str("reason", e.Reason))
	s.cfg.Obs.Metrics().Counter("hauberk_worker_crashes_total").Inc()
}

func (s *Supervisor) emitHang(e *guardian.WorkerHangError) {
	if !s.cfg.Obs.Enabled() {
		return
	}
	s.cfg.Obs.Emit(obs.EvWorkerHang,
		obs.Bool("heartbeat_miss", e.HeartbeatMiss),
		obs.Str("reason", e.Reason))
	s.cfg.Obs.Metrics().Counter("hauberk_worker_hangs_total").Inc()
}

func (s *Supervisor) emitRestart(id string, attempt int, delay time.Duration) {
	if !s.cfg.Obs.Enabled() {
		return
	}
	s.cfg.Obs.Emit(obs.EvWorkerRestart,
		obs.Str("id", id),
		obs.Int("attempt", int64(attempt)),
		obs.Int("backoff_ms", int64(delay/time.Millisecond)))
	s.cfg.Obs.Metrics().Counter("hauberk_worker_restarts_total").Inc()
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
