package harness

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerBudget is the process-wide campaign-worker budget: the total number
// of *extra* worker goroutines (beyond the one every campaign gets) that
// campaigns in this process may run concurrently. Every kernel launch is
// serial, so campaign workers are the only consumers; sharing one budget is
// what keeps two concurrent campaigns (two hauberkd executor slots, say)
// from running 2 × NumCPU workers between them. The default capacity is
// NumCPU-1: one slot per core beyond the campaign's own.
var workerBudget struct {
	capacity atomic.Int64
	used     atomic.Int64
}

func init() {
	workerBudget.capacity.Store(int64(runtime.NumCPU() - 1))
}

// acquireWorkerSlots reserves up to want extra worker slots without
// blocking and returns how many were granted (possibly zero), to be
// returned with releaseWorkerSlots. dispatch is the only caller of both.
func acquireWorkerSlots(want int) int {
	if want <= 0 {
		return 0
	}
	for {
		capacity := workerBudget.capacity.Load()
		used := workerBudget.used.Load()
		free := capacity - used
		if free <= 0 {
			return 0
		}
		n := int64(want)
		if n > free {
			n = free
		}
		if workerBudget.used.CompareAndSwap(used, used+n) {
			return int(n)
		}
	}
}

// releaseWorkerSlots returns n slots acquired with acquireWorkerSlots.
func releaseWorkerSlots(n int) {
	if n > 0 {
		workerBudget.used.Add(-int64(n))
	}
}

// dispatch runs body(ctx, slot, lo, hi) over runs [lo, hi) that together
// cover [0, n) once, and is the one place campaign worker goroutines
// start. The campaign gets one worker plus as many extra slots as the
// process-wide budget grants, capped by Scale.Workers, so concurrent
// campaigns in one process share the cores instead of multiplying them;
// the slots are acquired and released here and nowhere else, so no return
// path of a campaign can leak them. Runs are handed out in ascending order;
// slot, in [0, campaignWorkers()), names the worker and is held by one body
// at a time.
//
// A run is min(maxRun, max(1, remaining / (2 × slots))) indices long, so
// the tail of a plan still spreads over every slot; maxRun 1 hands out one
// index at a time, which is what every in-process caller takes.
//
// The first error stops the hand-out and cancels the ctx the bodies run
// under, so work in flight winds down instead of finishing a plan whose
// campaign has already failed; it is the error returned. Cancelling the
// caller's ctx stops the hand-out the same way and is not an error here.
func (e *Env) dispatch(ctx context.Context, n, maxRun int, body func(ctx context.Context, slot, lo, hi int) error) error {
	extra := acquireWorkerSlots(e.campaignWorkers() - 1)
	defer releaseWorkerSlots(extra)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards next and firstErr
		next     int
		firstErr error
	)
	take := func() (lo, hi int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || ctx.Err() != nil {
			return 0, 0, false
		}
		lo = next
		next += min(maxRun, max(1, (n-next)/(2*(extra+1))))
		return lo, next, true
	}
	for slot := 0; slot <= extra; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for lo, hi, ok := take(); ok; lo, hi, ok = take() {
				if err := body(ctx, slot, lo, hi); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
						cancel()
					}
					mu.Unlock()
					return
				}
			}
		}(slot)
	}
	wg.Wait()
	return firstErr
}
