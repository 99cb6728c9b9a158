package harness

import (
	"runtime"
	"sync/atomic"
)

// launchSlots is the process-wide campaign-worker budget: the total number
// of *extra* worker goroutines (beyond their callers) that campaigns in
// this process may run concurrently. Every kernel launch is serial, so
// campaign workers are the only consumers; sharing one budget is what keeps
// two concurrent campaigns (two hauberkd executor slots, say) from running
// 2 × NumCPU workers between them.
var launchSlots struct {
	capacity atomic.Int64
	used     atomic.Int64
}

func init() {
	launchSlots.capacity.Store(int64(runtime.NumCPU() - 1))
}

// SetLaunchBudget sets the process-wide number of extra worker slots
// (negative values clamp to zero). The default is NumCPU-1: one slot per
// core beyond the caller's. Raising it past the core count oversubscribes
// deliberately; tests use it to get parallel campaigns on small machines.
func SetLaunchBudget(n int) {
	if n < 0 {
		n = 0
	}
	launchSlots.capacity.Store(int64(n))
}

// LaunchBudget returns the configured budget (total extra slots, not
// currently free ones).
func LaunchBudget() int { return int(launchSlots.capacity.Load()) }

// AcquireLaunchSlots reserves up to want extra worker slots without
// blocking and returns how many were granted (possibly zero). Callers
// must return them with ReleaseLaunchSlots.
func AcquireLaunchSlots(want int) int {
	if want <= 0 {
		return 0
	}
	for {
		capacity := launchSlots.capacity.Load()
		used := launchSlots.used.Load()
		free := capacity - used
		if free <= 0 {
			return 0
		}
		n := int64(want)
		if n > free {
			n = free
		}
		if launchSlots.used.CompareAndSwap(used, used+n) {
			return int(n)
		}
	}
}

// ReleaseLaunchSlots returns n slots acquired with AcquireLaunchSlots.
func ReleaseLaunchSlots(n int) {
	if n > 0 {
		launchSlots.used.Add(-int64(n))
	}
}
