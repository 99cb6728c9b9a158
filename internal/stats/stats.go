// Package stats provides deterministic random streams and the log-decade
// histograms used throughout the evaluation (Figures 10 and 15 bucket
// values by powers of ten).
package stats

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Fingerprint hashes the given labels into a stable 64-bit value (FNV-1a
// over their %v renderings). Experiment seeds and campaign plan hashes
// both go through here, so equality of fingerprints means equality of the
// label sequence across processes and runs.
func Fingerprint(labels ...any) uint64 {
	h := fnv.New64a()
	for _, l := range labels {
		fmt.Fprintf(h, "%v|", l)
	}
	return h.Sum64()
}

// NewRng returns a deterministic random stream derived from the given
// labels. Every experiment seeds its randomness through here so runs are
// reproducible bit-for-bit.
func NewRng(labels ...any) *rand.Rand {
	return rand.New(rand.NewSource(int64(Fingerprint(labels...))))
}

// DecadeHist buckets values by order of magnitude: bucket i covers
// [10^(i+MinExp), 10^(i+MinExp+1)), with separate sign planes and a zero
// band below 10^MinExp.
type DecadeHist struct {
	MinExp, MaxExp int
	Neg, Pos       []int64
	Zero           int64
	Total          int64
}

// NewDecadeHist creates a histogram covering magnitudes 10^minExp..10^maxExp.
func NewDecadeHist(minExp, maxExp int) *DecadeHist {
	n := maxExp - minExp + 1
	if n <= 0 {
		panic("stats: invalid decade range")
	}
	return &DecadeHist{MinExp: minExp, MaxExp: maxExp, Neg: make([]int64, n), Pos: make([]int64, n)}
}

// Add records one value.
func (h *DecadeHist) Add(v float64) {
	h.Total++
	a := math.Abs(v)
	if a < math.Pow(10, float64(h.MinExp)) || math.IsNaN(v) {
		h.Zero++
		return
	}
	exp := int(math.Floor(math.Log10(a)))
	if exp > h.MaxExp {
		exp = h.MaxExp
	}
	idx := exp - h.MinExp
	if idx < 0 {
		idx = 0
	}
	if v < 0 {
		h.Neg[idx]++
	} else {
		h.Pos[idx]++
	}
}

// Peak returns the largest single-bucket probability (the "sharp peak"
// statistic of Figure 10: most variables concentrate >50% of their values
// in one decade).
func (h *DecadeHist) Peak() float64 {
	if h.Total == 0 {
		return 0
	}
	best := h.Zero
	for _, c := range h.Neg {
		if c > best {
			best = c
		}
	}
	for _, c := range h.Pos {
		if c > best {
			best = c
		}
	}
	return float64(best) / float64(h.Total)
}

// MagPeak2 returns the largest probability mass held by two adjacent
// decades of magnitude — negative and positive masses of the same decade
// combine (the paper's integer observation: values computed by the same
// code fragment are "likely to be in adjacent two units of powers of
// 10s"). The paper observes that a variable's negative and
// positive correlation points sit at similar magnitude ("most of [the]
// correlation values have same order of magnitude"), so magnitude
// concentration is the property the range detector exploits.
func (h *DecadeHist) MagPeak2() float64 {
	if h.Total == 0 {
		return 0
	}
	best := h.Zero
	for i := range h.Pos {
		s := h.Pos[i] + h.Neg[i]
		if i+1 < len(h.Pos) {
			s += h.Pos[i+1] + h.Neg[i+1]
		}
		if s > best {
			best = s
		}
	}
	return float64(best) / float64(h.Total)
}

// CorrelationPoints counts the distinct sign planes holding at least frac
// of the samples' mass: negative, near-zero, positive — the "three
// correlation points" structure of Section V.B.
func (h *DecadeHist) CorrelationPoints(frac float64) int {
	if h.Total == 0 {
		return 0
	}
	n := 0
	sum := func(b []int64) int64 {
		var s int64
		for _, c := range b {
			s += c
		}
		return s
	}
	if float64(sum(h.Neg))/float64(h.Total) >= frac {
		n++
	}
	if float64(h.Zero)/float64(h.Total) >= frac {
		n++
	}
	if float64(sum(h.Pos))/float64(h.Total) >= frac {
		n++
	}
	return n
}

// Mean returns the arithmetic mean of a slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
