// Package ranges implements the value-range profiling and checking engine
// behind the HAUBERK loop error detectors (Section V.B of the paper).
//
// The key empirical finding the detector exploits (Figure 10) is that
// values computed for one program variable cluster around at most three
// correlation points: one in the negative numbers, one near zero, and one
// in the positive numbers. The profiler therefore learns up to three
// [min, max] ranges per detector, split by a zero-band threshold that is
// searched over powers of ten to minimize the total covered value space.
// At run time a value outside every (alpha-scaled) range raises an SDC
// alarm; the recovery engine widens the ranges on confirmed false alarms
// (on-line learning, Section VI).
package ranges

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Range is one closed interval [Min, Max].
type Range struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Contains reports whether v lies in the interval.
func (r Range) Contains(v float64) bool { return v >= r.Min && v <= r.Max }

// scaled returns the range widened by the multiplication factor alpha
// (Section VI(iii)): the maximum is multiplied by alpha and the minimum
// divided by alpha when positive; mirrored for negative bounds.
func (r Range) scaled(alpha float64) Range {
	if alpha <= 1 {
		return r
	}
	out := r
	if out.Max > 0 {
		out.Max *= alpha
	} else {
		out.Max /= alpha
	}
	if out.Min > 0 {
		out.Min /= alpha
	} else {
		out.Min *= alpha
	}
	return out
}

// Detector is the learned range set for one loop error detector. Check,
// Absorb, and SetAlpha synchronize internally, so a detector shared by
// concurrent supervised executions (one kernel checks values while
// another execution absorbs a confirmed false alarm) needs no external
// locking. Direct field access remains fine for
// the sequential profiling/reporting paths.
type Detector struct {
	Name   string  `json:"name"` // "<kernel>/<protected variable>"
	IsFP   bool    `json:"is_fp"`
	Ranges []Range `json:"ranges"` // at most three, ordered neg/zero/pos
	Alpha  float64 `json:"alpha"`  // recalibration factor, >= 1
	// Threshold is the zero-band half-width chosen by profiling.
	Threshold float64 `json:"threshold"`
	// Trained counts the samples the ranges were learned from.
	Trained int `json:"trained"`

	mu sync.RWMutex
}

// Check reports whether v is inside any alpha-scaled range. A detector with
// no learned ranges accepts everything (bootstrap behaviour before the
// profiling run).
func (d *Detector) Check(v float64) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.Ranges) == 0 {
		return true
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	alpha := d.Alpha
	if alpha < 1 {
		alpha = 1
	}
	for _, r := range d.Ranges {
		if r.scaled(alpha).Contains(v) {
			return true
		}
	}
	return false
}

// SetAlpha replaces the recalibration factor.
func (d *Detector) SetAlpha(alpha float64) {
	d.mu.Lock()
	d.Alpha = alpha
	d.mu.Unlock()
}

// Absorb widens the nearest range to include v. The recovery engine calls
// it when re-execution identifies a false positive (on-line learning).
func (d *Detector) Absorb(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.Ranges) == 0 {
		d.Ranges = []Range{{Min: v, Max: v}}
		return
	}
	best, bestDist := -1, math.Inf(1)
	for i, r := range d.Ranges {
		var dist float64
		switch {
		case v < r.Min:
			dist = r.Min - v
		case v > r.Max:
			dist = v - r.Max
		default:
			return // already inside
		}
		if dist < bestDist {
			best, bestDist = i, dist
		}
	}
	if best < 0 {
		// All distances overflowed to +Inf (extreme magnitudes); widen
		// the first range.
		best = 0
	}
	r := &d.Ranges[best]
	if v < r.Min {
		r.Min = v
	}
	if v > r.Max {
		r.Max = v
	}
}

// Learner accumulates profiled samples for one detector and derives its
// ranges.
type Learner struct {
	Name    string
	IsFP    bool
	samples []float64
}

// NewLearner creates a learner for the named detector.
func NewLearner(name string, isFP bool) *Learner {
	return &Learner{Name: name, IsFP: isFP}
}

// Add records one profiled value. Non-finite samples are dropped: they come
// from degenerate profiling inputs and would poison the ranges.
func (l *Learner) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	l.samples = append(l.samples, v)
}

// Samples returns the number of recorded samples.
func (l *Learner) Samples() int { return len(l.samples) }

// Raw returns the recorded samples; callers must not mutate the slice.
func (l *Learner) Raw() []float64 { return l.samples }

// Finalize derives the detector: it searches the zero-band threshold over
// powers of ten (starting from 1e-5, multiplying or dividing by 10 while
// the total covered value space shrinks — the algorithm of Section V.B)
// and produces up to three ranges.
func (l *Learner) Finalize() *Detector {
	d := &Detector{Name: l.Name, IsFP: l.IsFP, Alpha: 1, Trained: len(l.samples)}
	if len(l.samples) == 0 {
		return d
	}
	sort.Float64s(l.samples)

	const start = 1e-5
	best := start
	bestSpace := l.space(best)
	for _, dir := range []float64{10, 0.1} {
		t := best
		for {
			next := t * dir
			if next < 1e-30 || next > 1e30 {
				break
			}
			sp := l.space(next)
			if sp < bestSpace {
				best, bestSpace, t = next, sp, next
				continue
			}
			break
		}
	}
	d.Threshold = best
	d.Ranges = l.split(best)
	return d
}

// split partitions samples by the zero band [-t, t] and returns the
// non-empty [min,max] ranges in neg/zero/pos order.
func (l *Learner) split(t float64) []Range {
	var out []Range
	addGroup := func(pred func(float64) bool) {
		lo, hi := math.Inf(1), math.Inf(-1)
		any := false
		for _, v := range l.samples {
			if pred(v) {
				any = true
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		if any {
			out = append(out, Range{Min: lo, Max: hi})
		}
	}
	addGroup(func(v float64) bool { return v < -t })
	addGroup(func(v float64) bool { return v >= -t && v <= t })
	addGroup(func(v float64) bool { return v > t })
	return out
}

// space is the profiling objective: the summed sizes of the value spaces of
// the ranges a threshold induces. For FP data the natural size of [a, b]
// is measured in decades (log10), mirroring how Figure 10 buckets values;
// a tiny epsilon floors magnitudes so zero endpoints stay finite.
func (l *Learner) space(t float64) float64 {
	total := 0.0
	for _, r := range l.split(t) {
		total += rangeSpace(r)
	}
	return total
}

func rangeSpace(r Range) float64 {
	const eps = 1e-30
	mag := func(v float64) float64 {
		a := math.Abs(v)
		if a < eps {
			a = eps
		}
		return math.Log10(a)
	}
	switch {
	case r.Min >= 0 || r.Max <= 0: // one-signed range
		lo, hi := mag(r.Min), mag(r.Max)
		if lo > hi {
			lo, hi = hi, lo
		}
		return hi - lo
	default: // crosses zero: both magnitude spans down to epsilon
		return (mag(r.Min) - math.Log10(eps)) + (mag(r.Max) - math.Log10(eps))
	}
}

// Validate sanity-checks a detector loaded from disk.
func (d *Detector) Validate() error {
	if len(d.Ranges) > 3 {
		return fmt.Errorf("ranges: detector %s has %d ranges, max 3", d.Name, len(d.Ranges))
	}
	for _, r := range d.Ranges {
		if r.Min > r.Max {
			return fmt.Errorf("ranges: detector %s has inverted range [%g, %g]", d.Name, r.Min, r.Max)
		}
	}
	if d.Alpha < 0 {
		return fmt.Errorf("ranges: detector %s has negative alpha %g", d.Name, d.Alpha)
	}
	return nil
}
