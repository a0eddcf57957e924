package stats

import (
	"math"
	"slices"
)

// sortedCopy returns xs in increasing order, in a new slice.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	SortFloat64s(s, nil)
	return s
}

// KolmogorovSmirnov returns the two-sample KS statistic
// sup_x |F_a(x) − F_b(x)| between the empirical CDFs of a and b.
// It is the natural headline number for "how close is a reconstructed
// inter-arrival distribution to the target's" and is reported by the
// fidelity experiment. Returns 1 when either sample is empty (the
// distributions share no mass).
func KolmogorovSmirnov(a, b []float64) float64 {
	return KolmogorovSmirnovSorted(sortedCopy(a), sortedCopy(b))
}

// KolmogorovSmirnovSorted is KolmogorovSmirnov of two samples already
// in increasing order (as SortFloat64s leaves them): a caller scoring
// many samples against one sorts each once.
func KolmogorovSmirnovSorted(sa, sb []float64) float64 {
	if len(sa) == 0 || len(sb) == 0 {
		return 1
	}
	var i, j int
	var d float64
	for i < len(sa) && j < len(sb) {
		// Step both CDFs past the next distinct value so ties advance
		// together; the supremum of |F_a − F_b| is attained just
		// after a sample point.
		x := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] == x {
			i++
		}
		for j < len(sb) && sb[j] == x {
			j++
		}
		fa := float64(i) / float64(len(sa))
		fb := float64(j) / float64(len(sb))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

// Wasserstein1 returns the first Wasserstein (earth mover) distance
// between the empirical distributions of a and b: the integral of
// |F_a − F_b| over the value domain. Unlike KS it is sensitive to
// *how far* mass moved, which is what distinguishes Acceleration
// (everything shifted 100x) from Revision (idle mass deleted) even
// when both have KS ≈ 1. Returns +Inf when either sample is empty.
func Wasserstein1(a, b []float64) float64 {
	return Wasserstein1Sorted(sortedCopy(a), sortedCopy(b))
}

// Wasserstein1Sorted is Wasserstein1 of two samples already in
// increasing order (as SortFloat64s leaves them).
func Wasserstein1Sorted(sa, sb []float64) float64 {
	if len(sa) == 0 || len(sb) == 0 {
		return math.Inf(1)
	}
	// Merge the supports; between consecutive support points the CDF
	// difference is constant.
	var sum float64
	var i, j int
	prev := math.Min(sa[0], sb[0])
	for i < len(sa) || j < len(sb) {
		var x float64
		switch {
		case i >= len(sa):
			x = sb[j]
		case j >= len(sb):
			x = sa[i]
		default:
			x = math.Min(sa[i], sb[j])
		}
		fa := float64(i) / float64(len(sa))
		fb := float64(j) / float64(len(sb))
		sum += math.Abs(fa-fb) * (x - prev)
		prev = x
		for i < len(sa) && sa[i] == x {
			i++
		}
		for j < len(sb) && sb[j] == x {
			j++
		}
	}
	return sum
}
