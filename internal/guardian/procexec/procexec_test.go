package procexec_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"hauberk/internal/guardian"
	"hauberk/internal/guardian/procexec"
	"hauberk/internal/guardian/procexec/chaos"
	"hauberk/internal/obs"
)

// TestMain re-execs the test binary as a worker when the trigger variable
// is set: supervisors under test spawn their workers as real subprocesses
// with real pipes, process groups and exit statuses.
func TestMain(m *testing.M) {
	if os.Getenv("PROCEXEC_TEST_WORKER") != "" {
		plan, err := chaos.FromEnv()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := procexec.Serve(os.Stdin, os.Stdout, testHandler, procexec.ServeOptions{Chaos: plan}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testHandler dispatches on the request ID: "echo" returns the payload,
// "sleep" echoes it after 20 ms, "apperr" fails without dying, "panic"
// dies with a stack trace.
func testHandler(id string, payload []byte) ([]byte, error) {
	switch {
	case strings.HasPrefix(id, "echo"):
		return payload, nil
	case strings.HasPrefix(id, "sleep"):
		time.Sleep(20 * time.Millisecond)
		return payload, nil
	case strings.HasPrefix(id, "apperr"):
		return nil, errors.New("deterministic application failure")
	case strings.HasPrefix(id, "panic"):
		panic("deliberate worker panic")
	}
	return nil, fmt.Errorf("unknown test request %q", id)
}

// newSupervisor builds a supervisor spawning this test binary in worker
// mode, with fast test timings and a fresh telemetry for counters.
func newSupervisor(t *testing.T, extraEnv []string, mut func(*procexec.Config)) (*procexec.Supervisor, *obs.Telemetry) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	tel := obs.New(&obs.MemSink{})
	cfg := procexec.Config{
		Argv:        []string{exe},
		Env:         append([]string{"PROCEXEC_TEST_WORKER=1"}, extraEnv...),
		Backoff:     guardian.BackoffPolicy{Init: 1, Factor: 2, Max: 10},
		WarmupGrace: 500 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	s := procexec.NewSupervisor(cfg)
	s.SetObs(tel)
	t.Cleanup(s.Close)
	return s, tel
}

func counter(tel *obs.Telemetry, name string) int64 {
	return tel.Metrics().Counter(name).Value()
}

func TestSupervisorEchoAndWorkerReuse(t *testing.T) {
	s, tel := newSupervisor(t, nil, nil)
	for i := 0; i < 3; i++ {
		payload := []byte(fmt.Sprintf(`{"i":%d}`, i))
		resp, err := s.Do(context.Background(), fmt.Sprintf("echo-%d", i), payload, 5*time.Second)
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
		if string(resp) != string(payload) {
			t.Fatalf("Do %d: got %s, want %s", i, resp, payload)
		}
	}
	if got := counter(tel, "hauberk_worker_spawns_total"); got != 1 {
		t.Errorf("3 healthy requests spawned %d workers, want 1 (reuse)", got)
	}
}

func TestSupervisorApplicationErrorKeepsWorkerAlive(t *testing.T) {
	s, tel := newSupervisor(t, nil, nil)
	if _, err := s.Do(context.Background(), "apperr", nil, 5*time.Second); err == nil ||
		!strings.Contains(err.Error(), "deterministic application failure") {
		t.Fatalf("apperr: got %v, want the handler's error", err)
	}
	// The failure was the handler's, not the process's: same worker serves on.
	if _, err := s.Do(context.Background(), "echo", []byte(`1`), 5*time.Second); err != nil {
		t.Fatalf("echo after apperr: %v", err)
	}
	if got := counter(tel, "hauberk_worker_spawns_total"); got != 1 {
		t.Errorf("application error respawned the worker (%d spawns)", got)
	}
	if got := counter(tel, "hauberk_worker_crashes_total"); got != 0 {
		t.Errorf("application error recorded as crash (%d)", got)
	}
}

func TestSupervisorPanicClassifiedAsCrash(t *testing.T) {
	s, tel := newSupervisor(t, nil, nil)
	_, err := s.Do(context.Background(), "panic", nil, 5*time.Second)
	var crash *guardian.WorkerCrashError
	if !errors.As(err, &crash) {
		t.Fatalf("panic workload: got %v, want *WorkerCrashError", err)
	}
	if !strings.Contains(crash.Reason, "deliberate worker panic") {
		t.Errorf("crash reason lost the stderr panic tail: %q", crash.Reason)
	}
	// Default MaxRestarts = 2: three attempts, all dead.
	if got := counter(tel, "hauberk_worker_restarts_total"); got != 2 {
		t.Errorf("restarts = %d, want 2", got)
	}
	if got := counter(tel, "hauberk_worker_crashes_total"); got != 3 {
		t.Errorf("crashes = %d, want 3", got)
	}
	// A crashed-out supervisor still serves the next request.
	if _, err := s.Do(context.Background(), "echo", []byte(`1`), 5*time.Second); err != nil {
		t.Fatalf("echo after crash: %v", err)
	}
}

func TestSupervisorChaosKillIsTransient(t *testing.T) {
	// kill@1: each worker's second request SIGKILLs its process group, so
	// the retry lands on a fresh worker at sequence 0 and succeeds.
	s, tel := newSupervisor(t, []string{chaos.EnvVar + "=kill@1"}, nil)
	if _, err := s.Do(context.Background(), "echo-0", []byte(`0`), 5*time.Second); err != nil {
		t.Fatalf("request 0: %v", err)
	}
	resp, err := s.Do(context.Background(), "echo-1", []byte(`1`), 5*time.Second)
	if err != nil {
		t.Fatalf("request 1 (chaos-killed, should retry to success): %v", err)
	}
	if string(resp) != `1` {
		t.Fatalf("request 1: got %s", resp)
	}
	if got := counter(tel, "hauberk_worker_crashes_total"); got != 1 {
		t.Errorf("crashes = %d, want exactly 1 (the chaos kill)", got)
	}
	if got := counter(tel, "hauberk_worker_restarts_total"); got != 1 {
		t.Errorf("restarts = %d, want 1", got)
	}
	if got := counter(tel, "hauberk_worker_spawns_total"); got != 2 {
		t.Errorf("spawns = %d, want 2", got)
	}
}

// TestSupervisorStallDetectedByDeadline: a worker that falls silent on
// its first request is a hang once the request's deadline, warm-up grace
// included, has passed, and not before.
func TestSupervisorStallDetectedByDeadline(t *testing.T) {
	const timeout, grace = 200 * time.Millisecond, 50 * time.Millisecond
	s, tel := newSupervisor(t, []string{chaos.EnvVar + "=stall@0"}, func(c *procexec.Config) {
		c.MaxRestarts = -1
		c.WarmupGrace = grace
	})
	start := time.Now()
	_, err := s.Do(context.Background(), "echo", nil, timeout)
	elapsed := time.Since(start)
	var hang *guardian.WorkerHangError
	if !errors.As(err, &hang) {
		t.Fatalf("stalled worker: got %v, want *WorkerHangError", err)
	}
	if !strings.Contains(hang.Reason, (timeout + grace).String()) {
		t.Errorf("hang reason %q does not name the %v deadline", hang.Reason, timeout+grace)
	}
	if elapsed < timeout+grace || elapsed > 10*time.Second {
		t.Errorf("stall detected after %v, want the %v deadline", elapsed, timeout+grace)
	}
	if got := counter(tel, "hauberk_worker_hangs_total"); got != 1 {
		t.Errorf("hangs = %d, want 1", got)
	}
}

func TestSupervisorCorruptFrameClassifiedAsCrash(t *testing.T) {
	s, _ := newSupervisor(t, []string{chaos.EnvVar + "=corrupt@0"}, func(c *procexec.Config) {
		c.MaxRestarts = -1
	})
	_, err := s.Do(context.Background(), "echo", nil, 5*time.Second)
	var crash *guardian.WorkerCrashError
	if !errors.As(err, &crash) {
		t.Fatalf("corrupt frame: got %v, want *WorkerCrashError", err)
	}
	if !strings.Contains(crash.Reason, "corrupt") && !strings.Contains(crash.Reason, "truncated") {
		t.Errorf("crash reason %q does not name the protocol corruption", crash.Reason)
	}
}

func TestSupervisorSpawnFailureIsErrSpawn(t *testing.T) {
	s, tel := newSupervisor(t, nil, func(c *procexec.Config) {
		c.Chaos, _ = chaos.Parse("spawnfail@0")
	})
	if _, err := s.Do(context.Background(), "echo", nil, time.Second); !errors.Is(err, procexec.ErrSpawn) {
		t.Fatalf("chaos spawnfail: got %v, want ErrSpawn", err)
	}
	if got := counter(tel, "hauberk_worker_restarts_total"); got != 0 {
		t.Errorf("spawn failure must not be retried as a crash (restarts=%d)", got)
	}
	// The next spawn attempt (sequence 1) is past the chaos entry.
	if _, err := s.Do(context.Background(), "echo", []byte(`1`), 5*time.Second); err != nil {
		t.Fatalf("echo after spawnfail: %v", err)
	}
}

func TestSupervisorBadArgvIsErrSpawn(t *testing.T) {
	tel := obs.New(&obs.MemSink{})
	s := procexec.NewSupervisor(procexec.Config{
		Argv: []string{"/nonexistent/hauberk-worker-binary"},
	})
	s.SetObs(tel)
	defer s.Close()
	if _, err := s.Do(context.Background(), "echo", nil, time.Second); !errors.Is(err, procexec.ErrSpawn) {
		t.Fatalf("bad argv: got %v, want ErrSpawn", err)
	}
}

func TestSupervisorContextCancellationKillsWorker(t *testing.T) {
	s, _ := newSupervisor(t, []string{chaos.EnvVar + "=stall@0"}, func(c *procexec.Config) {
		c.MaxRestarts = -1
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	if _, err := s.Do(ctx, "echo", nil, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do: got %v, want context.Canceled", err)
	}
}

func TestKillAllWorkers(t *testing.T) {
	s, _ := newSupervisor(t, nil, nil)
	if _, err := s.Do(context.Background(), "echo", []byte(`1`), 5*time.Second); err != nil {
		t.Fatalf("warm-up echo: %v", err)
	}
	// One worker idles between requests; the signal-path sweep must reach it.
	if n := procexec.KillAllWorkers(); n < 1 {
		t.Fatalf("KillAllWorkers signalled %d groups, want >= 1", n)
	}
	// The supervisor notices the death on the next request and respawns.
	if _, err := s.Do(context.Background(), "echo", []byte(`2`), 10*time.Second); err != nil {
		t.Fatalf("echo after KillAllWorkers: %v", err)
	}
}

func TestSupervisorCloseIsIdempotent(t *testing.T) {
	s, _ := newSupervisor(t, nil, nil)
	if _, err := s.Do(context.Background(), "echo", nil, 5*time.Second); err != nil {
		t.Fatalf("echo: %v", err)
	}
	s.Close()
	s.Close()
	if _, err := s.Do(context.Background(), "echo", nil, time.Second); err == nil {
		t.Fatalf("Do after Close must fail")
	}
}

// echoRun builds n requests, kind-0 … kind-(n-1), whose payloads are their
// indices.
func echoRun(kind string, n int, timeout time.Duration) []procexec.Request {
	reqs := make([]procexec.Request, n)
	for i := range reqs {
		reqs[i] = procexec.Request{ID: fmt.Sprintf("%s-%d", kind, i), Payload: []byte(fmt.Sprint(i)), Timeout: timeout}
	}
	return reqs
}

// TestRunChaosInsideRun arms each worker-side chaos mode at index k of an
// N-request run. The worker runs its requests serially, so exactly
// request k is the one retried on a fresh worker (or, with restarts off,
// classified), and every other request is answered once, in order. N is
// at most 2k, so the fresh worker's sequence never reaches k again.
func TestRunChaosInsideRun(t *testing.T) {
	const n, k = 6, 3
	for _, tc := range []struct {
		mode string
		hang bool // classified as a hang, not a crash
	}{
		{"kill", false},
		{"corrupt", false},
		{"panic", false},
		{"stall", true},
	} {
		for _, retried := range []bool{true, false} {
			name := tc.mode + "/classified"
			if retried {
				name = tc.mode + "/retried"
			}
			t.Run(name, func(t *testing.T) {
				s, tel := newSupervisor(t, []string{fmt.Sprintf("%s=%s@%d", chaos.EnvVar, tc.mode, k)}, func(c *procexec.Config) {
					c.WarmupGrace = 2 * time.Second
					if !retried {
						c.MaxRestarts = -1
					}
				})
				timeout := 10 * time.Second
				if tc.hang {
					timeout = 300 * time.Millisecond // only the deadline sees a stall
				}
				var order []int
				err := s.Run(context.Background(), echoRun("echo", n, timeout), func(i int, resp []byte, err error) error {
					order = append(order, i)
					if i == k && !retried {
						var crash *guardian.WorkerCrashError
						var hang *guardian.WorkerHangError
						switch {
						case tc.hang && errors.As(err, &hang):
						case !tc.hang && errors.As(err, &crash):
						default:
							t.Errorf("request %d: got %v, want it classified as a %s", i, err, map[bool]string{true: "hang", false: "crash"}[tc.hang])
						}
						return nil
					}
					if err != nil || string(resp) != fmt.Sprint(i) {
						t.Errorf("request %d: got %s, %v; want its echo", i, resp, err)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if fmt.Sprint(order) != fmt.Sprint([]int{0, 1, 2, 3, 4, 5}) {
					t.Fatalf("recorded %v, want every request once, in order", order)
				}
				failures := counter(tel, "hauberk_worker_crashes_total") + counter(tel, "hauberk_worker_hangs_total")
				if failures != 1 {
					t.Errorf("%d worker failures, want 1: request %d's", failures, k)
				}
				wantRestarts := int64(0)
				if retried {
					wantRestarts = 1
				}
				if got := counter(tel, "hauberk_worker_restarts_total"); got != wantRestarts {
					t.Errorf("restarts = %d, want %d", got, wantRestarts)
				}
				if got := counter(tel, "hauberk_worker_spawns_total"); got != 2 {
					t.Errorf("spawns = %d, want 2: the worker that failed and the one that finished the run", got)
				}
			})
		}
	}
}

// TestRunApplicationErrorLeavesNoStaleFrame: a run stopped at an
// application error with requests still in flight kills its worker, so
// the next Run on the supervisor reads none of their results. A run that
// records the error and goes on keeps its worker.
func TestRunApplicationErrorLeavesNoStaleFrame(t *testing.T) {
	s, tel := newSupervisor(t, nil, nil)
	reqs := echoRun("echo", 4, 5*time.Second)
	reqs[1].ID = "apperr-1"
	var recorded []int
	var tolerated error
	if err := s.Run(context.Background(), reqs, func(i int, _ []byte, err error) error {
		recorded = append(recorded, i)
		if err != nil {
			tolerated = err
		}
		return nil
	}); err != nil || tolerated == nil || len(recorded) != 4 {
		t.Fatalf("tolerant run: err %v, recorded %v, application error %v", err, recorded, tolerated)
	}
	if got := counter(tel, "hauberk_worker_spawns_total"); got != 1 {
		t.Fatalf("a run that recorded its application error respawned the worker (%d spawns)", got)
	}

	stop := errors.New("stop at the application error")
	recorded = nil
	err := s.Run(context.Background(), reqs, func(i int, _ []byte, err error) error {
		recorded = append(recorded, i)
		if err != nil {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || fmt.Sprint(recorded) != "[0 1]" {
		t.Fatalf("stopped run: err %v, recorded %v; want the record error after requests 0 and 1", err, recorded)
	}
	resp, err := s.Do(context.Background(), "echo-next", []byte(`"next"`), 5*time.Second)
	if err != nil || string(resp) != `"next"` {
		t.Fatalf("Do after the stopped run: got %s, %v", resp, err)
	}
	if got := counter(tel, "hauberk_worker_crashes_total"); got != 0 {
		t.Errorf("the next request read a stale frame (%d crashes)", got)
	}
	if got := counter(tel, "hauberk_worker_spawns_total"); got != 2 {
		t.Errorf("spawns = %d, want 2: the stopped run's worker had requests in flight", got)
	}
}

// TestRunCancelMidRunKillsWorker: cancelling ctx in the middle of a run
// returns ctx's error and leaves no worker process group alive.
func TestRunCancelMidRunKillsWorker(t *testing.T) {
	s, _ := newSupervisor(t, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recorded := 0
	err := s.Run(ctx, echoRun("sleep", 10, 5*time.Second), func(int, []byte, error) error {
		if recorded++; recorded == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: got %v, want context.Canceled", err)
	}
	if recorded != 2 {
		t.Errorf("%d results recorded after a cancel at the 2nd", recorded)
	}
	if n := procexec.LiveWorkers(); n != 0 {
		t.Fatalf("%d worker process groups alive after the cancelled run", n)
	}
}

// TestRunRefusesOversizedRun: a run of several requests must fit well
// inside the worker's pipe buffer, since Run writes all of it before it
// reads a result; a larger one is refused before any worker spawns. One
// large request is fine.
func TestRunRefusesOversizedRun(t *testing.T) {
	s, tel := newSupervisor(t, nil, nil)
	big := []byte(`"` + strings.Repeat("x", 20<<10) + `"`)
	reqs := echoRun("echo", 2, 5*time.Second)
	reqs[0].Payload, reqs[1].Payload = big, big
	err := s.Run(context.Background(), reqs, func(int, []byte, error) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "run encodes to") {
		t.Fatalf("oversized run: got %v, want it refused", err)
	}
	if got := counter(tel, "hauberk_worker_spawns_total"); got != 0 {
		t.Errorf("an oversized run spawned %d workers", got)
	}
	if resp, err := s.Do(context.Background(), "echo", big, 5*time.Second); err != nil || string(resp) != string(big) {
		t.Fatalf("one large request: got %d bytes, %v", len(resp), err)
	}
}

// TestRunRefusesRequestWithoutDeadline: the request deadline is the only
// clock that ends a silent worker, so a run holding a request without a
// positive Timeout is refused before any worker spawns.
func TestRunRefusesRequestWithoutDeadline(t *testing.T) {
	s, tel := newSupervisor(t, nil, nil)
	for _, timeout := range []time.Duration{0, -time.Second} {
		reqs := echoRun("echo", 3, 5*time.Second)
		reqs[1].Timeout = timeout
		err := s.Run(context.Background(), reqs, func(int, []byte, error) error {
			t.Fatal("a refused run recorded a result")
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "no deadline") {
			t.Fatalf("timeout %v: got %v, want the run refused", timeout, err)
		}
	}
	if got := counter(tel, "hauberk_worker_spawns_total"); got != 0 {
		t.Errorf("a refused run spawned %d workers", got)
	}
}
