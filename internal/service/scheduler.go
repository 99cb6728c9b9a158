package service

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"hauberk/internal/obs"
)

// Admission and lifecycle errors surfaced to the HTTP layer.
var (
	// ErrQueueFull reports that the tenant's queue is at capacity; the
	// HTTP layer answers 429 with a Retry-After hint.
	ErrQueueFull = errors.New("service: tenant queue full")
	// ErrDraining reports that the daemon is shutting down and admits no
	// new work; the HTTP layer answers 503.
	ErrDraining = errors.New("service: daemon draining")
)

// queueLatencyBuckets are the upper bounds (ms) for the per-tenant
// queue-wait histogram: submit-to-dispatch time.
var queueLatencyBuckets = []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// tenantQueue is one tenant's FIFO plus its fair-dispatch state.
type tenantQueue struct {
	name string
	// weight is the tenant's share of dispatch slots relative to other
	// tenants with queued work (smooth weighted round-robin).
	weight int
	// credit is the SWRR accumulator: every dispatch round each tenant
	// with queued work earns its weight; the winner pays the total.
	credit int
	queue  []*Campaign
}

// scheduler dispatches queued campaigns across a bounded slot budget
// with per-tenant FIFO order and smooth weighted round-robin across
// tenants: each round, every tenant with queued work earns credit equal
// to its weight, the highest-credit tenant (ties broken by name) is
// dispatched and pays the round's total weight. A tenant with weight w
// therefore gets w/Σweights of the dispatch slots under contention and
// can never starve: its credit grows every round it waits.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	slots      int
	queueDepth int
	running    int
	tenants    map[string]*tenantQueue
	draining   bool

	// exec runs one campaign to completion; the scheduler calls it on a
	// dedicated goroutine per dispatched campaign.
	exec func(*Campaign)

	wg       sync.WaitGroup
	loopDone chan struct{}
	reg      *obs.Registry
}

// newScheduler builds a scheduler (not yet dispatching; call start).
func newScheduler(slots, queueDepth int, reg *obs.Registry, exec func(*Campaign)) *scheduler {
	if slots < 1 {
		slots = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	s := &scheduler{
		slots:      slots,
		queueDepth: queueDepth,
		tenants:    make(map[string]*tenantQueue),
		exec:       exec,
		loopDone:   make(chan struct{}),
		reg:        reg,
	}
	s.cond = sync.NewCond(&s.mu)
	s.reg.Help("hauberkd_queue_depth", "queued campaigns per tenant")
	s.reg.Help("hauberkd_queue_latency_ms", "submit-to-dispatch wait per tenant (ms)")
	s.reg.Help("hauberkd_running_campaigns", "campaigns currently executing")
	s.reg.Help("hauberkd_dispatches_total", "campaigns dispatched per tenant")
	return s
}

// start launches the dispatch loop.
func (s *scheduler) start() { go s.loop() }

// Submit enqueues a campaign on its tenant's FIFO. weight, when
// positive, (re)sets the tenant's fair-dispatch weight. Admission
// control: a queue at queueDepth rejects with ErrQueueFull — bounded
// queues are what turn overload into fast 429s instead of unbounded
// memory growth and unbounded latency.
func (s *scheduler) Submit(c *Campaign, weight int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	t := s.tenants[c.Tenant]
	if t == nil {
		t = &tenantQueue{name: c.Tenant, weight: 1}
		s.tenants[c.Tenant] = t
	}
	if weight > 0 {
		t.weight = weight
	}
	if len(t.queue) >= s.queueDepth {
		return ErrQueueFull
	}
	c.enqueuedAt = time.Now()
	t.queue = append(t.queue, c)
	s.reg.Gauge("hauberkd_queue_depth", "tenant", t.name).Set(float64(len(t.queue)))
	s.cond.Broadcast()
	return nil
}

// CancelQueued removes a still-queued campaign and returns it; nil when
// the id is not queued (already dispatched, finished, or unknown).
func (s *scheduler) CancelQueued(id string) *Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		for i, c := range t.queue {
			if c.ID == id {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				s.reg.Gauge("hauberkd_queue_depth", "tenant", t.name).Set(float64(len(t.queue)))
				return c
			}
		}
	}
	return nil
}

// RetryAfter estimates (in whole seconds, minimum 1) how long a
// rejected client should wait before resubmitting: one dispatch slot's
// worth of the queue draining.
func (s *scheduler) RetryAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	queued := 0
	for _, t := range s.tenants {
		queued += len(t.queue)
	}
	est := queued / (s.slots * 4)
	if est < 1 {
		est = 1
	}
	if est > 30 {
		est = 30
	}
	return est
}

// anyQueuedLocked reports whether any tenant has queued work.
func (s *scheduler) anyQueuedLocked() bool {
	for _, t := range s.tenants {
		if len(t.queue) > 0 {
			return true
		}
	}
	return false
}

// pickLocked runs one SWRR round over tenants with queued work and pops
// the winner's FIFO head. Deterministic: ties break by tenant name.
func (s *scheduler) pickLocked() *Campaign {
	var active []*tenantQueue
	for _, t := range s.tenants {
		if len(t.queue) > 0 {
			active = append(active, t)
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i].name < active[j].name })
	total := 0
	for _, t := range active {
		if t.weight < 1 {
			t.weight = 1
		}
		t.credit += t.weight
		total += t.weight
	}
	best := active[0]
	for _, t := range active[1:] {
		if t.credit > best.credit {
			best = t
		}
	}
	best.credit -= total
	c := best.queue[0]
	best.queue = best.queue[1:]
	s.reg.Gauge("hauberkd_queue_depth", "tenant", best.name).Set(float64(len(best.queue)))
	return c
}

// loop is the dispatch loop: wait for a free slot and queued work, pick
// fairly, execute on a fresh goroutine.
func (s *scheduler) loop() {
	defer close(s.loopDone)
	for {
		s.mu.Lock()
		for !s.draining && (s.running >= s.slots || !s.anyQueuedLocked()) {
			s.cond.Wait()
		}
		if s.draining {
			s.mu.Unlock()
			return
		}
		c := s.pickLocked()
		s.running++
		s.reg.Gauge("hauberkd_running_campaigns").Set(float64(s.running))
		s.reg.Counter("hauberkd_dispatches_total", "tenant", c.Tenant).Inc()
		s.reg.Histogram("hauberkd_queue_latency_ms", queueLatencyBuckets, "tenant", c.Tenant).
			Observe(float64(time.Since(c.enqueuedAt)) / float64(time.Millisecond))
		s.mu.Unlock()

		s.wg.Add(1)
		go func(c *Campaign) {
			defer s.wg.Done()
			s.exec(c)
			s.mu.Lock()
			s.running--
			s.reg.Gauge("hauberkd_running_campaigns").Set(float64(s.running))
			s.cond.Broadcast()
			s.mu.Unlock()
		}(c)
	}
}

// StopDispatch stops admission and dispatch: Submit starts returning
// ErrDraining and no further campaign leaves the queue. It returns once
// the dispatch loop has exited, which is the point where the caller can
// safely cancel the running campaigns' contexts knowing nothing new
// will start behind its back.
func (s *scheduler) StopDispatch() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.loopDone
}

// AwaitIdle waits (bounded by ctx) for in-flight campaigns to finish.
// With the running contexts canceled, "finish" means "checkpoint
// through the durable store", not "run to completion". Queued campaigns
// stay queued — their persisted state requeues them on restart. An
// empty, idle scheduler is idle immediately.
func (s *scheduler) AwaitIdle(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Running returns how many campaigns are currently executing.
func (s *scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Queued snapshots every queued campaign (diagnostics/listing).
func (s *scheduler) Queued() []*Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Campaign
	for _, t := range s.tenants {
		out = append(out, t.queue...)
	}
	return out
}
