package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie strictly above a
// percentile before the benchmark will report it as a tail: a p99 over
// 40 samples is one sample, not a percentile.
const tailMinBeyond = 10

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least tailMinBeyond
// samples beyond it, and the percentile it sits at. With fewer than
// tailMinBeyond+1 samples no percentile qualifies: tail then reports
// the maximum and ok=false, so callers can say so.
func tail(xs []float64) (v, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	n := len(s)
	i := n - 1 - tailMinBeyond
	if i < 0 {
		return s[n-1], 100, false
	}
	return s[i], 100 * float64(i+1) / float64(n), true
}

// geomean is the geometric mean of positive values (0 for none). The
// benchmark summarizes several query kinds' medians with it, so a 10%
// change in any one kind moves the summary by the same factor whatever
// that kind's absolute latency.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
