package harness

import (
	"runtime"
	"testing"
	"time"
)

// TestGuardOnTimeResultPassesThrough: a result that arrives before the
// deadline is returned as the run produced it, and nothing is counted.
func TestGuardOnTimeResultPassesThrough(t *testing.T) {
	kills := 0
	g := guard{timeout: time.Minute, onTimeout: func() { kills++ }}
	want := &InjectionResult{Injection: Injection{Bits: 2}, Outcome: OutcomeMasked, Activated: true}
	if r := g.run(Injection{Bits: 2}, func() *InjectionResult { return want }); r != want || kills != 0 {
		t.Fatalf("on-time result %+v (kills=%d), want %+v unchanged", r, kills, want)
	}
}

// TestGuardLateResultIsHang: a result that arrives past the deadline is a
// timed-out hang failure, whatever the run reported, counted once, and
// only once the run has returned: nothing is left running behind it.
func TestGuardLateResultIsHang(t *testing.T) {
	kills := 0
	g := guard{timeout: 5 * time.Millisecond, onTimeout: func() { kills++ }}
	returned := false
	r := g.run(Injection{Bits: 6}, func() *InjectionResult {
		time.Sleep(20 * time.Millisecond)
		returned = true
		return &InjectionResult{Outcome: OutcomeMasked}
	})
	if !returned {
		t.Fatal("guard.run returned before its run did")
	}
	if !r.TimedOut || !r.Hang || r.Outcome != OutcomeFailure || kills != 1 {
		t.Fatalf("late result %+v kills=%d, want one timed-out hang failure", r, kills)
	}
	if r.Injection.Bits != 6 {
		t.Fatal("hang result lost the injection metadata")
	}
}

// TestGuardRunContainsPanic covers the in-process containment layer: a
// panic escaping the launch-level recover (setup, classification) becomes
// a classified crash failure, never a dead campaign goroutine.
func TestGuardRunContainsPanic(t *testing.T) {
	g := guard{timeout: time.Second}
	r := g.run(Injection{Bits: 3}, func() *InjectionResult {
		panic("deliberate injection panic")
	})
	if r.Outcome != OutcomeFailure || r.Hang || r.Injection.Bits != 3 {
		t.Fatalf("panicking run classified as %+v, want non-hang failure", r)
	}
}

// TestGuardStartsNoGoroutine: the run happens on the caller's goroutine,
// so guarded runs, on time, late or panicking, leave no goroutine behind.
// Goroutines of earlier tests may exit meanwhile, so a round whose counts
// differ is tried again; one that leaked would differ every time.
func TestGuardStartsNoGoroutine(t *testing.T) {
	g := guard{timeout: time.Millisecond}
	for round := 0; ; round++ {
		before := runtime.NumGoroutine()
		g.run(Injection{}, func() *InjectionResult { return &InjectionResult{} })
		g.run(Injection{}, func() *InjectionResult {
			time.Sleep(5 * time.Millisecond)
			return &InjectionResult{}
		})
		g.run(Injection{}, func() *InjectionResult { panic("boom") })
		after := runtime.NumGoroutine()
		if after == before {
			return
		}
		if round == 20 {
			t.Fatalf("%d goroutines before the guarded runs, %d after", before, after)
		}
	}
}
