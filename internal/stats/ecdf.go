package stats

import (
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a
// sample. It supports evaluation at arbitrary points, quantile lookup,
// and export as (x, F(x)) step points suitable for interpolation.
type ECDF struct {
	// sorted, deduplicated sample values
	xs []float64
	// cum[i] = P(X <= xs[i])
	cum []float64
	n   int
}

// NewECDF builds an ECDF from sample (which it copies). An empty sample
// yields a degenerate ECDF whose Eval is 0 everywhere.
func NewECDF(sample []float64) *ECDF {
	s := make([]float64, len(sample))
	copy(s, sample)
	SortFloat64s(s, nil)
	return NewSortedECDF(s)
}

// NewSortedECDF is NewECDF over a sample already in increasing order,
// as SortFloat64s leaves it, without NewECDF's sorted copy. The support
// and probabilities it keeps are its own, so a caller may reuse s once
// it returns.
func NewSortedECDF(s []float64) *ECDF {
	e := &ECDF{n: len(s)}
	if len(s) == 0 {
		return e
	}
	// Collapse duplicates so the step function has strictly increasing
	// support — required by the PCHIP interpolator downstream. Counting
	// the distinct values first sizes both slices exactly, in one block.
	d := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			d++
		}
	}
	buf := make([]float64, 2*d)
	xs, cum := buf[:0:d], buf[d:d]
	count := 0
	for i := 0; i < len(s); i++ {
		count++
		if i+1 == len(s) || s[i+1] != s[i] {
			xs = append(xs, s[i])
			cum = append(cum, float64(count)/float64(len(s)))
		}
	}
	e.xs, e.cum = xs, cum
	return e
}

// N returns the sample size.
func (e *ECDF) N() int { return e.n }

// Support returns the distinct sorted sample values (do not mutate).
func (e *ECDF) Support() []float64 { return e.xs }

// Probs returns the cumulative probabilities aligned with Support (do
// not mutate).
func (e *ECDF) Probs() []float64 { return e.cum }

// Eval returns P(X <= x).
func (e *ECDF) Eval(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	// index of first support point > x
	i := sort.SearchFloat64s(e.xs, x)
	if i < len(e.xs) && e.xs[i] == x {
		return e.cum[i]
	}
	if i == 0 {
		return 0
	}
	return e.cum[i-1]
}

// Quantile returns the smallest x with P(X <= x) >= q, clamping q into
// (0, 1]. It returns 0 for an empty sample.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	if q <= 0 {
		return e.xs[0]
	}
	if q > 1 {
		q = 1
	}
	i := sort.Search(len(e.cum), func(i int) bool { return e.cum[i] >= q })
	if i == len(e.cum) {
		i = len(e.cum) - 1
	}
	return e.xs[i]
}

// MaxGapBelow returns, for plotting convenience, the largest probability
// jump in the ECDF and the x at which it occurs. For a unimodal "global
// maxima" distribution (paper Fig 5a) this is a sharp single spike; for
// "chunky middle" shapes (Fig 5b) the max jump is small relative to the
// spread.
func (e *ECDF) MaxGapBelow() (x, gap float64) {
	return MaxJump(e.xs, e.cum)
}

// MaxJump is MaxGapBelow over CDF step points: the largest probability
// jump of cum (cumulative probabilities, increasing) and the xs value at
// which it occurs, the first on ties.
func MaxJump(xs, cum []float64) (x, gap float64) {
	prev := 0.0
	for i, c := range cum {
		if d := c - prev; d > gap {
			gap = d
			x = xs[i]
		}
		prev = c
	}
	return x, gap
}
