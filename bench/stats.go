package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 when empty.
func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// quantile interpolates linearly between order statistics of an ascending
// slice (the "inclusive" definition, so quantile(s, 0) is the minimum and
// quantile(s, 1) the maximum).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method): the driver
// judges a metric's spread by (q3-q1)/median of ten runs computed that
// way, so the A/A report must use the same arithmetic.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points, 1-based
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(3)
}

// tailCandidates are the upper percentiles a latency report may carry,
// highest first, in per mille (integers, so "ten samples beyond p90 of
// 100" is exact).
var tailCandidates = []int{999, 990, 950, 900, 750}

// highestPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it among n samples — the rule that keeps a
// reported tail from being one or two outliers. It returns 0 when no
// candidate qualifies (fewer than 40 samples for p75).
func highestPercentile(n int) float64 {
	for _, pm := range tailCandidates {
		if n*(1000-pm)/1000 >= 10 {
			return float64(pm) / 1000
		}
	}
	return 0
}

// nearestRank returns the q-th percentile of an ascending slice by the
// nearest-rank rule (always an observed sample).
func nearestRank(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
