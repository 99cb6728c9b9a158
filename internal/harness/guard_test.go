package harness

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"hauberk/internal/guardian"
)

// TestGuardRetriesWithBackoff drives the guard envelope with a synthetic
// flaky runner: two infrastructure failures, then success.
func TestGuardRetriesWithBackoff(t *testing.T) {
	var delays []time.Duration
	calls := 0
	g := guard{
		timeout: time.Second,
		retries: 2,
		backoff: guardian.BackoffPolicy{Init: 1, Factor: 2},
		onRetry: func(_ int, d time.Duration) { delays = append(delays, d) },
	}
	r, err := g.run(context.Background(), Injection{}, func() (*InjectionResult, error) {
		calls++
		if calls <= 2 {
			return nil, errors.New("transient infrastructure error")
		}
		return &InjectionResult{Outcome: OutcomeMasked}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || r.Retries != 2 {
		t.Fatalf("calls=%d retries=%d, want 3 and 2", calls, r.Retries)
	}
	want := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond}
	if !reflect.DeepEqual(delays, want) {
		t.Fatalf("backoff delays %v, want %v (guardian doubling policy)", delays, want)
	}

	// Retries exhausted: the error surfaces.
	g.retries = 1
	calls = 0
	_, err = g.run(context.Background(), Injection{}, func() (*InjectionResult, error) {
		calls++
		return nil, errors.New("persistent infrastructure error")
	})
	if err == nil || calls != 2 {
		t.Fatalf("exhausted guard: err=%v calls=%d, want error after 2 calls", err, calls)
	}
}

// TestGuardTimeoutAndCancel covers the synthetic watchdog kill and the
// context-cancel path.
func TestGuardTimeoutAndCancel(t *testing.T) {
	kills := 0
	g := guard{timeout: 5 * time.Millisecond, onTimeout: func() { kills++ }}
	block := make(chan struct{})
	defer close(block)
	r, err := g.run(context.Background(), Injection{Bits: 6}, func() (*InjectionResult, error) {
		<-block
		return &InjectionResult{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut || !r.Hang || r.Outcome != OutcomeFailure || kills != 1 {
		t.Fatalf("watchdog result %+v kills=%d", r, kills)
	}
	if r.Injection.Bits != 6 {
		t.Fatal("watchdog result lost the injection metadata")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.run(ctx, Injection{}, func() (*InjectionResult, error) {
		<-block
		return &InjectionResult{}, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled guard returned %v", err)
	}
}

// TestGuardRunContainsPanic covers the in-process containment layer: a
// panic escaping the launch-level recover (setup, classification) becomes
// a classified crash failure, never a dead campaign goroutine.
func TestGuardRunContainsPanic(t *testing.T) {
	g := guard{timeout: time.Second}
	inj := Injection{Bits: 3}
	r, err := g.run(context.Background(), inj, func() (*InjectionResult, error) {
		panic("deliberate injection panic")
	})
	if err != nil {
		t.Fatalf("guard.run returned error %v for a panicking run", err)
	}
	if r.Outcome != OutcomeFailure || r.Hang {
		t.Fatalf("panicking run classified as %+v, want non-hang failure", r)
	}
}
