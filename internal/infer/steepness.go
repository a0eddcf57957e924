package infer

import (
	"math"
	"slices"

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
	s := slices.Clone(inttMicros)
	stats.SortFloat64s(s, nil)
	e := examine(&sortedRun{sample: s})
	return e.res, e.ok
}

// examination is one group's ExamineSteepness outcome.
type examination struct {
	res SteepnessResult
	ok  bool
}

// sortedRun is a sample in increasing order, as the examination reads
// it: either a sample of µs values (ExamineSteepness's input) or a
// classifier group's run in nanoseconds — its negative escapes, its
// stored gaps and its other escapes, each sorted. The µs value of a
// gap is micros(ns), which is exact and one to one on stored gaps, so
// those compare as integers; escapes compare as µs, which two huge
// ones can share.
type sortedRun struct {
	sample []float64
	neg    []int64
	ns     []uint32
	pos    []int64
}

func (r *sortedRun) len() int { return len(r.sample) + len(r.neg) + len(r.ns) + len(r.pos) }

// bounds returns the smallest and largest values (µs) of a non-empty run.
func (r *sortedRun) bounds() (lo, hi float64) {
	switch {
	case len(r.sample) > 0:
		return r.sample[0], r.sample[len(r.sample)-1]
	case len(r.neg) > 0:
		lo = micros(r.neg[0])
	case len(r.ns) > 0:
		lo = micros(int64(r.ns[0]))
	default:
		lo = micros(r.pos[0])
	}
	switch {
	case len(r.pos) > 0:
		hi = micros(r.pos[len(r.pos)-1])
	case len(r.ns) > 0:
		hi = micros(int64(r.ns[len(r.ns)-1]))
	default:
		hi = micros(r.neg[len(r.neg)-1])
	}
	return lo, hi
}

// distinct yields each distinct value (µs) of the run in increasing
// order, with the number of samples at or below it.
func (r *sortedRun) distinct(yield func(v float64, upto int) bool) {
	for i, v := range r.sample {
		if i+1 < len(r.sample) && r.sample[i+1] == v {
			continue
		}
		if !yield(v, i+1) {
			return
		}
	}
	escapes := func(es []int64, base int) bool {
		for i, v := range es {
			if i+1 < len(es) && micros(es[i+1]) == micros(v) {
				continue
			}
			if !yield(micros(v), base+i+1) {
				return false
			}
		}
		return true
	}
	if !escapes(r.neg, 0) {
		return
	}
	base := len(r.neg)
	for i, v := range r.ns {
		if i+1 < len(r.ns) && r.ns[i+1] == v {
			continue
		}
		if !yield(micros(int64(v)), base+i+1) {
			return
		}
	}
	escapes(r.pos, base+len(r.ns))
}

// examiner is the scratch one goroutine reuses across the groups it
// examines: the run sort's buffer and the escapes' copy. No
// examination result points into it.
type examiner struct {
	buf []uint32
	esc []int64
}

// examineRun sorts g's samples and examines them. g's gaps are left in
// another order; its escapes are not touched.
func (x *examiner) examineRun(g *run) examination {
	x.esc = g.esc.appendTo(x.esc[:0])
	slices.Sort(x.esc)
	neg := 0
	for neg < len(x.esc) && x.esc[neg] < 0 {
		neg++
	}
	sorted := x.sortRun(&g.gaps) // the escapes' sentinels sort last
	return examine(&sortedRun{
		neg: x.esc[:neg],
		ns:  sorted[:len(sorted)-len(x.esc)],
		pos: x.esc[neg:],
	})
}

// examine is Algorithm 1 on a sorted sample: the one examination
// kernel, whatever holds the sample.
func examine(s *sortedRun) (out examination) {
	res := &out.res
	n := s.len()
	if n < 2 {
		return out
	}
	lo, hi := s.bounds()
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
	d, below := 0, 0 // distinct values, samples below the current one
	for v, upto := range s.distinct {
		h.ObserveN(v, upto-below)
		d, below = d+1, upto
	}
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
	cx, cy := dedupePoints(sortedKnots(s, d))
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
	s := slices.Clone(samples)
	stats.SortFloat64s(s, nil)
	run := &sortedRun{sample: s}
	d := 0
	for range run.distinct {
		d++
	}
	return sortedKnots(run, d)
}

// maxKnots bounds the CDF knots sortedKnots returns.
const maxKnots = 512

// sortedKnots returns the step points of the empirical CDF of the
// sorted sample s, which holds d distinct values — each distinct value
// with the share of samples at or below it — thinned to at most
// maxKnots, evenly spaced over the distinct values, in new slices. It
// reads them straight off s: the ECDF the thinning would pick them
// from is never built.
func sortedKnots(s *sortedRun, d int) ([]float64, []float64) {
	if d == 0 {
		return nil, nil
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
	n := float64(s.len())
	j, want := 0, at(0) // j: distinct index of the value at hand
	for v, upto := range s.distinct {
		if j == want {
			xs = append(xs, v)
			cs = append(cs, float64(upto)/n)
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
