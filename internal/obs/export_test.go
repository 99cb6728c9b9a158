package obs

import (
	"math"
	"time"
)

// The methods below are test-only: no shipped binary calls them.

// BucketCount returns the non-cumulative count of bucket i (i ==
// len(bounds) is the +Inf overflow bucket).
func (h *Histogram) BucketCount(i int) int64 { return h.buckets[i].Load() }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SetClock replaces the wall-clock source (deterministic tests).
func (t *Telemetry) SetClock(clock func() time.Time) { t.clock = clock }

// Dropped returns how many events this subscriber missed because its
// buffer was full.
func (s *Subscriber) Dropped() int64 { return s.dropped.Load() }

// Active reports whether the span will emit on End.
func (s Span) Active() bool { return s.t != nil }

// Elapsed returns the time since the span started (zero for an inert
// span).
func (s Span) Elapsed() time.Duration {
	if s.t == nil {
		return 0
	}
	return s.t.clock().Sub(s.start)
}

// Add increments the gauge by delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}
