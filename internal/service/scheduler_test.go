package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hauberk/internal/obs"
)

// testCampaign builds a minimal in-memory campaign record for scheduler
// tests (no daemon, no disk).
func testCampaign(id, tenant string) *Campaign {
	return newCampaign(id, Submission{Tenant: tenant, Program: "CP", Scale: "tiny"}, "", nil)
}

// gatedExec returns an exec hook that records dispatch order and blocks
// each campaign until the test releases it, so tests control exactly
// how many slots are occupied at any moment.
type gatedExec struct {
	dispatched chan *Campaign
	release    chan struct{}
}

func newGatedExec() *gatedExec {
	return &gatedExec{
		dispatched: make(chan *Campaign, 1024),
		release:    make(chan struct{}, 1024),
	}
}

func (g *gatedExec) exec(c *Campaign) {
	g.dispatched <- c
	<-g.release
}

// next waits for one dispatch and returns the campaign.
func (g *gatedExec) next(t *testing.T) *Campaign {
	t.Helper()
	select {
	case c := <-g.dispatched:
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("no dispatch within 10s")
		return nil
	}
}

// TestSchedulerWeightedFairShare checks smooth weighted round-robin:
// with tenants at weight 3 and weight 1 both saturated, dispatches
// interleave at a 3:1 ratio rather than draining one tenant first.
func TestSchedulerWeightedFairShare(t *testing.T) {
	g := newGatedExec()
	s := newScheduler(1, 100, obs.NewRegistry(), g.exec)
	s.start()
	defer s.Drain(context.Background()) //nolint:errcheck

	for i := 0; i < 30; i++ {
		if err := s.Submit(testCampaign(fmt.Sprintf("a%02d", i), "alpha"), 3); err != nil {
			t.Fatalf("submit alpha: %v", err)
		}
		if err := s.Submit(testCampaign(fmt.Sprintf("b%02d", i), "beta"), 1); err != nil {
			t.Fatalf("submit beta: %v", err)
		}
	}

	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		c := g.next(t)
		counts[c.Tenant]++
		g.release <- struct{}{}
	}
	// 40 dispatches at weights 3:1 → 30 alpha, 10 beta (SWRR is exact
	// over full cycles; allow ±1 for the partial last cycle).
	if counts["alpha"] < 29 || counts["alpha"] > 31 {
		t.Errorf("alpha got %d of 40 dispatches, want ~30 (beta %d)", counts["alpha"], counts["beta"])
	}
	if counts["beta"] < 9 || counts["beta"] > 11 {
		t.Errorf("beta got %d of 40 dispatches, want ~10", counts["beta"])
	}
	for i := 0; i < 20; i++ { // let the remaining queue drain for Drain()
		g.release <- struct{}{}
	}
}

// TestSchedulerNoStarvation checks the SWRR starvation guarantee: a
// weight-1 tenant contending with a weight-100 tenant still gets
// dispatched — its credit grows every round it waits.
func TestSchedulerNoStarvation(t *testing.T) {
	g := newGatedExec()
	s := newScheduler(1, 200, obs.NewRegistry(), g.exec)
	s.start()
	defer s.Drain(context.Background()) //nolint:errcheck

	for i := 0; i < 150; i++ {
		if err := s.Submit(testCampaign(fmt.Sprintf("h%03d", i), "heavy"), 100); err != nil {
			t.Fatalf("submit heavy: %v", err)
		}
	}
	if err := s.Submit(testCampaign("light", "light"), 1); err != nil {
		t.Fatalf("submit light: %v", err)
	}

	sawLight := false
	released := 0
	for i := 0; i < 120 && !sawLight; i++ {
		c := g.next(t)
		sawLight = c.Tenant == "light"
		g.release <- struct{}{}
		released++
	}
	if !sawLight {
		t.Error("light tenant starved: not dispatched within 120 rounds against weight-100 contention")
	}
	for ; released < 151; released++ { // unblock the rest so Drain completes
		g.release <- struct{}{}
	}
}

// TestSchedulerAdmissionControl checks the bounded queue: submissions
// beyond QueueDepth are rejected with ErrQueueFull (per tenant — a full
// tenant does not block others), and RetryAfter gives a positive hint.
func TestSchedulerAdmissionControl(t *testing.T) {
	g := newGatedExec()
	s := newScheduler(1, 2, obs.NewRegistry(), g.exec)
	// Not started: nothing dequeues, so capacity arithmetic is exact.

	for i := 0; i < 2; i++ {
		if err := s.Submit(testCampaign(fmt.Sprintf("c%d", i), "solo"), 0); err != nil {
			t.Fatalf("submit %d within depth: %v", i, err)
		}
	}
	if err := s.Submit(testCampaign("c2", "solo"), 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past depth: got %v, want ErrQueueFull", err)
	}
	if err := s.Submit(testCampaign("d0", "other"), 0); err != nil {
		t.Fatalf("other tenant must not be blocked by solo's full queue: %v", err)
	}
	if ra := s.RetryAfter(); ra < 1 || ra > 30 {
		t.Errorf("RetryAfter = %d, want within [1, 30]", ra)
	}
	if got := s.QueueDepth("solo"); got != 2 {
		t.Errorf("QueueDepth(solo) = %d, want 2", got)
	}
}

// TestSchedulerCancelQueued checks that a queued campaign can be pulled
// back out (and an unknown or already-dispatched id returns nil).
func TestSchedulerCancelQueued(t *testing.T) {
	s := newScheduler(1, 10, obs.NewRegistry(), func(*Campaign) {})
	// Not started: both campaigns stay queued.
	a := testCampaign("a", "t")
	b := testCampaign("b", "t")
	for _, c := range []*Campaign{a, b} {
		if err := s.Submit(c, 0); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	if got := s.CancelQueued("a"); got != a {
		t.Fatalf("CancelQueued(a) = %v, want the queued campaign", got)
	}
	if got := s.CancelQueued("a"); got != nil {
		t.Fatalf("second CancelQueued(a) = %v, want nil", got)
	}
	if got := s.CancelQueued("nope"); got != nil {
		t.Fatalf("CancelQueued(unknown) = %v, want nil", got)
	}
	if got := s.QueueDepth("t"); got != 1 {
		t.Errorf("QueueDepth after cancel = %d, want 1", got)
	}
}

// TestSchedulerDrainEmptyQueue checks that draining an idle scheduler
// completes immediately and flips admission to ErrDraining.
func TestSchedulerDrainEmptyQueue(t *testing.T) {
	s := newScheduler(2, 10, obs.NewRegistry(), func(*Campaign) {})
	s.start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain of an empty, idle scheduler: %v", err)
	}
	if err := s.Submit(testCampaign("late", "t"), 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: got %v, want ErrDraining", err)
	}
}

// TestSchedulerDrainWaitsForRunning checks that drain blocks on the
// in-flight campaign and that the ctx bound is honored when it hangs.
func TestSchedulerDrainWaitsForRunning(t *testing.T) {
	g := newGatedExec()
	s := newScheduler(1, 10, obs.NewRegistry(), g.exec)
	s.start()
	if err := s.Submit(testCampaign("slow", "t"), 0); err != nil {
		t.Fatalf("submit: %v", err)
	}
	g.next(t) // campaign is now running and blocked

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with a stuck campaign: got %v, want deadline exceeded", err)
	}
	g.release <- struct{}{}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.AwaitIdle(ctx2); err != nil {
		t.Fatalf("await idle after release: %v", err)
	}
}
