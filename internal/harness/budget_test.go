package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"hauberk/internal/core/translate"
)

// forceBudget overrides the process-wide worker budget for one test (the
// container the suite runs on may have a single CPU, where the default
// budget is zero).
func forceBudget(t *testing.T, n int) {
	t.Helper()
	old := LaunchBudget()
	SetLaunchBudget(n)
	t.Cleanup(func() { SetLaunchBudget(old) })
}

// TestLaunchBudgetAccounting exercises the shared slot pool directly.
func TestLaunchBudgetAccounting(t *testing.T) {
	forceBudget(t, 4)
	if got := AcquireLaunchSlots(10); got != 4 {
		t.Fatalf("acquire 10 of 4 = %d, want 4", got)
	}
	if got := AcquireLaunchSlots(1); got != 0 {
		t.Fatalf("acquire on an exhausted budget = %d, want 0", got)
	}
	ReleaseLaunchSlots(3)
	if got := AcquireLaunchSlots(2); got != 2 {
		t.Fatalf("acquire 2 after releasing 3 = %d, want 2", got)
	}
	ReleaseLaunchSlots(2)
	ReleaseLaunchSlots(1)
	if got := AcquireLaunchSlots(0); got != 0 {
		t.Fatalf("acquire 0 = %d, want 0", got)
	}
	SetLaunchBudget(-5)
	if got := LaunchBudget(); got != 0 {
		t.Fatalf("negative budget clamps to 0, got %d", got)
	}
	if got := AcquireLaunchSlots(1); got != 0 {
		t.Fatalf("acquire on a zero budget = %d, want 0", got)
	}
}

// TestCampaignWorkerSlotsReleasedOnEarlyReturn is the regression test for
// the budget leak: a durable campaign that fails after sizing its worker
// pool (here: an unknown isolation mode) must hand every slot back, or each
// such call permanently shrinks what later campaigns in the process get.
func TestCampaignWorkerSlotsReleasedOnEarlyReturn(t *testing.T) {
	forceBudget(t, 3)
	e := NewEnv(tinyScale())
	e.Scale.Workers = 4 // wants all 3 extra slots
	spec, golden, prof, plan := planTiny(t, e)

	_, err := e.RunCampaignDurable(context.Background(), spec, golden, prof.Store,
		translate.ModeFIFT, plan, CampaignOptions{Dir: t.TempDir(), Isolation: "bogus", Timeout: time.Minute})
	if err == nil || !strings.Contains(err.Error(), "unknown isolation mode") {
		t.Fatalf("bogus isolation mode: got %v, want an unknown-isolation error", err)
	}
	got := AcquireLaunchSlots(3)
	ReleaseLaunchSlots(got)
	if got != 3 {
		t.Fatalf("%d of 3 slots free after the failed campaign; the rest leaked", got)
	}
}
