package harness

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// forceBudget overrides the process-wide worker budget for one test (the
// container the suite runs on may have a single CPU, where the default
// budget is zero).
func forceBudget(t *testing.T, n int) {
	t.Helper()
	old := workerBudget.capacity.Swap(int64(n))
	t.Cleanup(func() { workerBudget.capacity.Store(old) })
}

// freeWorkerSlots reports how many of want slots the budget would grant
// right now, leaving it as it was.
func freeWorkerSlots(want int) int {
	got := acquireWorkerSlots(want)
	releaseWorkerSlots(got)
	return got
}

// TestWorkerBudgetAccounting exercises the shared slot pool directly.
func TestWorkerBudgetAccounting(t *testing.T) {
	forceBudget(t, 4)
	if got := acquireWorkerSlots(10); got != 4 {
		t.Fatalf("acquire 10 of 4 = %d, want 4", got)
	}
	if got := acquireWorkerSlots(1); got != 0 {
		t.Fatalf("acquire on an exhausted budget = %d, want 0", got)
	}
	releaseWorkerSlots(3)
	if got := acquireWorkerSlots(2); got != 2 {
		t.Fatalf("acquire 2 after releasing 3 = %d, want 2", got)
	}
	releaseWorkerSlots(2)
	releaseWorkerSlots(1)
	if got := acquireWorkerSlots(0); got != 0 {
		t.Fatalf("acquire 0 = %d, want 0", got)
	}
	forceBudget(t, 0)
	if got := acquireWorkerSlots(1); got != 0 {
		t.Fatalf("acquire on a zero budget = %d, want 0", got)
	}
}

// TestCampaignWorkerSlotsReleasedOnEarlyReturn is the regression test for
// the budget leak: a campaign that fails before, in or after its dispatch
// must leave every slot in the budget, or each such call permanently
// shrinks what later campaigns in the process get.
func TestCampaignWorkerSlotsReleasedOnEarlyReturn(t *testing.T) {
	forceBudget(t, 3)
	e := NewEnv(tinyScale())
	e.Scale.Workers = 4 // wants all 3 extra slots
	pc := planTiny(t, e)

	_, err := e.RunPrepared(context.Background(), pc, CampaignOptions{Dir: t.TempDir(), Isolation: "bogus", Timeout: time.Minute})
	if err == nil || !strings.Contains(err.Error(), "unknown isolation mode") {
		t.Fatalf("bogus isolation mode: got %v, want an unknown-isolation error", err)
	}
	if got := freeWorkerSlots(3); got != 3 {
		t.Fatalf("%d of 3 slots free after the rejected campaign; the rest leaked", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	_, err = e.RunPrepared(ctx, pc, CampaignOptions{OnResult: func(int, int) { cancel() }})
	if !errors.Is(err, ErrCampaignInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want ErrCampaignInterrupted", err)
	}
	if got := freeWorkerSlots(3); got != 3 {
		t.Fatalf("%d of 3 slots free after the interrupted campaign; the rest leaked", got)
	}
}

// TestDispatchStopsAtFirstError: once a body fails, no further index is
// handed out (only the ones already in flight finish), every slot is back
// in the budget, and the error returned is the first one.
func TestDispatchStopsAtFirstError(t *testing.T) {
	const workers, k, n = 4, 5, 200
	forceBudget(t, workers-1)
	e := NewEnv(tinyScale())
	e.Scale.Workers = workers

	errK := errors.New("store append failed")
	var (
		mu    sync.Mutex
		ran   []int
		slots = make(map[int]bool)
	)
	err := e.dispatch(context.Background(), n, func(ctx context.Context, slot, i int) error {
		mu.Lock()
		ran = append(ran, i)
		slots[slot] = true
		mu.Unlock()
		switch {
		case i < k:
			return nil
		case i == k:
			return errK
		}
		// In flight beside k: finish only once the dispatcher has seen k
		// fail, which is what cancels ctx — and fail too, later.
		<-ctx.Done()
		return errors.New("a later failure")
	})
	if err != errK {
		t.Fatalf("dispatch returned %v, want the first error %v", err, errK)
	}
	for _, i := range ran {
		if i > k+workers {
			t.Fatalf("index %d ran after index %d failed on %d workers (ran %v)", i, k, workers, ran)
		}
	}
	for slot := range slots {
		if slot < 0 || slot >= workers {
			t.Fatalf("slot %d outside [0, %d)", slot, workers)
		}
	}
	if got := freeWorkerSlots(workers - 1); got != workers-1 {
		t.Fatalf("%d of %d slots free after the failed dispatch; the rest leaked", got, workers-1)
	}

	// A cancelled caller stops the hand-out too, and is not an error here.
	ctx, cancel := context.WithCancel(context.Background())
	count := 0
	if err := e.dispatch(ctx, n, func(context.Context, int, int) error {
		mu.Lock()
		defer mu.Unlock()
		if count++; count == k {
			cancel()
		}
		return nil
	}); err != nil {
		t.Fatalf("cancelled dispatch returned %v, want nil", err)
	}
	if count < k || count > k+workers {
		t.Fatalf("%d bodies ran around a cancel at the %dth on %d workers", count, k, workers)
	}
}
