package infer

import (
	"math"

	"repro/internal/interp"
	"repro/internal/stats"
)

// Algorithm 1's configuration, the paper's: the PDF of a group's
// inter-arrivals over log-spaced bins (they span seven decades), the
// outlier margin at half the PDF's variance, and the CDF's rise located
// on a PCHIP scanned at a fixed density.
const (
	pdfBins           = 96
	marginDivisor     = 2
	samplesPerSegment = 8
)

// SteepnessResult is the outcome of examining one group's CDF.
type SteepnessResult struct {
	// Score is Algorithm 1's steepness: the vertical distance between
	// the utmost PDF outlier and the least-squares line at that point.
	// Higher means a sharper single rise in the CDF.
	Score float64
	// UtmostMicros is the Tintt (µs) of the utmost outlier.
	UtmostMicros float64
	// RiseMicros is the Tintt (µs) at the maximum of the interpolated
	// CDF's derivative — the representative T'intt of Section III.
	RiseMicros float64
	// MaxDeriv is the derivative value at RiseMicros.
	MaxDeriv float64
}

// ExamineSteepness runs Algorithm 1 on the inter-arrival samples (µs)
// and locates the CDF's maximum-derivative point. It returns ok=false
// when the sample is too small or degenerate (fewer than two distinct
// values) for the analysis to mean anything, or holds a NaN.
func ExamineSteepness(inttMicros []float64) (SteepnessResult, bool) {
	var x examiner
	e := x.examineSorting(append([]float64(nil), inttMicros...))
	return e.res, e.ok
}

// examination is one group's ExamineSteepness outcome.
type examination struct {
	res SteepnessResult
	ok  bool
}

// examiner is the scratch one goroutine reuses across the groups it
// examines: the radix sort's key space. No examination result points
// into it.
type examiner struct {
	keys []uint64
}

// examineSorting sorts s in place and examines it.
func (x *examiner) examineSorting(s []float64) (out examination) {
	res := &out.res
	if len(s) < 2 {
		return out
	}
	// One sorted view feeds the histogram and the knots.
	x.keys = stats.SortFloat64s(s, x.keys)
	lo, hi := s[0], s[len(s)-1]
	if lo == hi {
		// All samples identical: infinitely steep CDF. Report the
		// degenerate point directly; Score uses the full mass.
		res.Score = 1
		res.UtmostMicros = lo
		res.RiseMicros = lo
		res.MaxDeriv = math.Inf(1)
		out.ok = true
		return out
	}
	if lo <= 0 {
		lo = 1e-3 // clamp to 1ns in µs units for log binning
	}

	// Step 1: PDF of Tintt over the histogram support. A NaN sample
	// sorts first, so lo is NaN and the histogram refuses the domain.
	h, err := stats.NewLogHistogram(lo, hi, pdfBins)
	if err != nil {
		return out
	}
	h.Observe(s...)
	xs, ps := h.PDF()

	// Step 2: least-squares straight line through (Tintt, PDF).
	fit, err := stats.LeastSquares(xs, ps)
	if err != nil {
		return out
	}

	// Step 3: outliers — PDF points above the line by more than the
	// margin (half the PDF variance, per the paper).
	margin := stats.Variance(ps) / marginDivisor
	bestDist := 0.0
	bestX := 0.0
	found := false
	for i := range xs {
		dist := ps[i] - fit.At(xs[i])
		if dist > margin && dist > bestDist {
			bestDist = dist
			bestX = xs[i]
			found = true
		}
	}
	if !found {
		// No bucket stands out: fall back to the highest-mass bucket
		// so every group still yields a representative point.
		for i := range xs {
			if d := ps[i] - fit.At(xs[i]); d > bestDist {
				bestDist, bestX = d, xs[i]
			}
		}
	}
	res.Score = bestDist
	res.UtmostMicros = bestX

	// Step 4 (Section IV "steepness analysis"): interpolate the CDF
	// and find the maximum of its derivative.
	cx, cy := dedupePoints(sortedKnots(s))
	out.ok = true
	if len(cx) < 2 {
		res.RiseMicros = bestX
		res.MaxDeriv = math.Inf(1)
		return out
	}
	if len(cx) < 8 {
		// Too few distinct values for curve fitting to be meaningful
		// (a 2-knot PCHIP has a constant derivative, which would make
		// the argmax the leftmost point). The empirical CDF's largest
		// probability jump is the rise; with so few distinct values the
		// knots are the whole CDF.
		res.RiseMicros, res.MaxDeriv = stats.MaxJump(cx, cy)
		return out
	}
	f, err := interp.PCHIP(cx, cy)
	if err != nil {
		out.ok = false
		return out
	}
	res.RiseMicros, res.MaxDeriv = interp.MaxDeriv(f, samplesPerSegment)
	return out
}

// newCDFPoints builds empirical CDF step points from samples (µs),
// thinned to at most 512 knots so interpolation cost stays bounded on
// million-request groups while preserving the distribution shape.
func newCDFPoints(samples []float64) ([]float64, []float64) {
	s := append([]float64(nil), samples...)
	stats.SortFloat64s(s, nil)
	return sortedKnots(s)
}

// maxKnots bounds the CDF knots sortedKnots returns.
const maxKnots = 512

// sortedKnots returns the step points of the empirical CDF of the
// sorted sample s — each distinct value with the share of samples at
// or below it — thinned to at most maxKnots, evenly spaced over the
// distinct values, in new slices. It reads them straight off s: the
// ECDF the thinning would pick them from is never built.
func sortedKnots(s []float64) ([]float64, []float64) {
	if len(s) == 0 {
		return nil, nil
	}
	d := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			d++
		}
	}
	k := min(d, maxKnots)
	// at returns the distinct-value index of knot i: every one when
	// they fit, else the evenly spaced pick (increasing: step > 1).
	at := func(i int) int { return i }
	if d > maxKnots {
		step := float64(d-1) / float64(maxKnots-1)
		at = func(i int) int { return min(int(math.Round(float64(i)*step)), d-1) }
	}
	buf := make([]float64, 2*k)
	xs, cs := buf[:0:k], buf[k:k]
	j, want := 0, at(0) // j: distinct index of the run ending at i
	for i := range s {
		if i+1 < len(s) && s[i+1] == s[i] {
			continue
		}
		if j == want {
			xs = append(xs, s[i])
			cs = append(cs, float64(i+1)/float64(len(s)))
			if len(xs) == k {
				break
			}
			want = at(len(xs))
		}
		j++
	}
	return xs, cs
}

// dedupePoints drops knots with non-increasing x (thinning can produce
// duplicates at array ends).
func dedupePoints(xs, ys []float64) ([]float64, []float64) {
	if len(xs) == 0 {
		return xs, ys
	}
	ox := xs[:1]
	oy := ys[:1]
	for i := 1; i < len(xs); i++ {
		if xs[i] > ox[len(ox)-1] {
			ox = append(ox, xs[i])
			oy = append(oy, ys[i])
		}
	}
	return ox, oy
}
