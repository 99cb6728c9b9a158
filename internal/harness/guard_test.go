package harness

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestGuardTimeoutAndCancel covers the synthetic watchdog kill and the
// context-cancel path.
func TestGuardTimeoutAndCancel(t *testing.T) {
	kills := 0
	g := guard{timeout: 5 * time.Millisecond, onTimeout: func() { kills++ }}
	block := make(chan struct{})
	defer close(block)
	r, err := g.run(context.Background(), Injection{Bits: 6}, func() *InjectionResult {
		<-block
		return &InjectionResult{}
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
	if _, err := g.run(ctx, Injection{}, func() *InjectionResult {
		<-block
		return &InjectionResult{}
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
	r, err := g.run(context.Background(), inj, func() *InjectionResult {
		panic("deliberate injection panic")
	})
	if err != nil {
		t.Fatalf("guard.run returned error %v for a panicking run", err)
	}
	if r.Outcome != OutcomeFailure || r.Hang {
		t.Fatalf("panicking run classified as %+v, want non-hang failure", r)
	}
}
