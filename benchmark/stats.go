package main

import (
	"sort"
	"time"
)

// median returns the middle of vs (the mean of the two middles for an
// even count), 0 for none. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// tailBeyond is how many samples must lie above a reported percentile
// for it to be a measurement and not the luck of a handful of cycles.
const tailBeyond = 10

// tail returns the highest of p95/p90/p75 that has at least tailBeyond
// samples above it, with the percentile it picked. With fewer than
// tailBeyond samples above even p75 it reports the median as p50.
func tail(samples []float64) (value float64, pct int) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for _, p := range []int{95, 90, 75} {
		// Nearest-rank percentile: the smallest sample with at least
		// p% of the samples at or below it.
		rank := (len(s)*p + 99) / 100
		if rank >= 1 && len(s)-rank >= tailBeyond {
			return s[rank-1], p
		}
	}
	return median(s), 50
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
