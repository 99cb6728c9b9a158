package procexec_test

import (
	"context"
	"encoding/json"
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
		err = procexec.Serve(os.Stdin, os.Stdout, testHandler, procexec.ServeOptions{Chaos: plan})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testHandler dispatches on the request ID: "echo" returns the payload,
// "apperr" fails without dying, "panic" dies with a stack trace.
func testHandler(id string, payload json.RawMessage) (json.RawMessage, error) {
	switch {
	case strings.HasPrefix(id, "echo"):
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
		Obs:         tel,
	}
	if mut != nil {
		mut(&cfg)
	}
	s := procexec.NewSupervisor(cfg)
	t.Cleanup(s.Close)
	return s, tel
}

func counter(tel *obs.Telemetry, name string) int64 {
	return tel.Metrics().Counter(name).Value()
}

func TestSupervisorEchoAndWorkerReuse(t *testing.T) {
	s, tel := newSupervisor(t, nil, nil)
	for i := 0; i < 3; i++ {
		payload := json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))
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
	if _, err := s.Do(context.Background(), "echo", json.RawMessage(`1`), 5*time.Second); err != nil {
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
	if _, err := s.Do(context.Background(), "echo", json.RawMessage(`1`), 5*time.Second); err != nil {
		t.Fatalf("echo after crash: %v", err)
	}
}

func TestSupervisorChaosKillIsTransient(t *testing.T) {
	// kill@1: each worker's second request SIGKILLs its process group, so
	// the retry lands on a fresh worker at sequence 0 and succeeds.
	s, tel := newSupervisor(t, []string{chaos.EnvVar + "=kill@1"}, nil)
	if _, err := s.Do(context.Background(), "echo-0", json.RawMessage(`0`), 5*time.Second); err != nil {
		t.Fatalf("request 0: %v", err)
	}
	resp, err := s.Do(context.Background(), "echo-1", json.RawMessage(`1`), 5*time.Second)
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

func TestSupervisorStallDetectedByHeartbeatMiss(t *testing.T) {
	s, tel := newSupervisor(t, []string{chaos.EnvVar + "=stall@0"}, func(c *procexec.Config) {
		c.HeartbeatMisses = 4 // 100ms window
		c.MaxRestarts = -1
	})
	start := time.Now()
	_, err := s.Do(context.Background(), "echo", nil, time.Minute)
	var hang *guardian.WorkerHangError
	if !errors.As(err, &hang) {
		t.Fatalf("stalled worker: got %v, want *WorkerHangError", err)
	}
	if !hang.HeartbeatMiss {
		t.Errorf("stall must be detected by heartbeat miss, got %+v", hang)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("heartbeat miss took %v, the minute-long deadline must not be the detector", elapsed)
	}
	if got := counter(tel, "hauberk_worker_hangs_total"); got != 1 {
		t.Errorf("hangs = %d, want 1", got)
	}
}

func TestSupervisorSpinDetectedByWatchdogDeadline(t *testing.T) {
	// spin keeps heartbeating, so only the request deadline can see it.
	s, tel := newSupervisor(t, []string{chaos.EnvVar + "=spin@0"}, func(c *procexec.Config) {
		c.MaxRestarts = -1
		c.WarmupGrace = 50 * time.Millisecond
	})
	_, err := s.Do(context.Background(), "echo", nil, 200*time.Millisecond)
	var hang *guardian.WorkerHangError
	if !errors.As(err, &hang) {
		t.Fatalf("spinning worker: got %v, want *WorkerHangError", err)
	}
	if hang.HeartbeatMiss {
		t.Errorf("spin keeps heartbeating; detection must be the watchdog deadline: %+v", hang)
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
	if _, err := s.Do(context.Background(), "echo", json.RawMessage(`1`), 5*time.Second); err != nil {
		t.Fatalf("echo after spawnfail: %v", err)
	}
}

func TestSupervisorBadArgvIsErrSpawn(t *testing.T) {
	tel := obs.New(&obs.MemSink{})
	s := procexec.NewSupervisor(procexec.Config{
		Argv: []string{"/nonexistent/hauberk-worker-binary"},
		Obs:  tel,
	})
	defer s.Close()
	if _, err := s.Do(context.Background(), "echo", nil, time.Second); !errors.Is(err, procexec.ErrSpawn) {
		t.Fatalf("bad argv: got %v, want ErrSpawn", err)
	}
}

func TestSupervisorContextCancellationKillsWorker(t *testing.T) {
	s, _ := newSupervisor(t, []string{chaos.EnvVar + "=spin@0"}, func(c *procexec.Config) {
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
	if _, err := s.Do(context.Background(), "echo", json.RawMessage(`1`), 5*time.Second); err != nil {
		t.Fatalf("warm-up echo: %v", err)
	}
	// One worker idles between requests; the signal-path sweep must reach it.
	if n := procexec.KillAllWorkers(); n < 1 {
		t.Fatalf("KillAllWorkers signalled %d groups, want >= 1", n)
	}
	// The supervisor notices the death on the next request and respawns.
	if _, err := s.Do(context.Background(), "echo", json.RawMessage(`2`), 10*time.Second); err != nil {
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
