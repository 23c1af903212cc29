package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile returns the p-quantile of xs and whether it obeys the
// percentile rule (at least minBeyond samples beyond it).
func tailQuantile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	return quantile(xs, p), n-rank(n, p) >= minBeyond
}

// samplesFor returns the fewest samples for which the p-quantile obeys
// the percentile rule.
func samplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-rank(n, p) >= minBeyond {
			return n
		}
	}
}
