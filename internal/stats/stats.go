// Package stats provides the statistical substrate TraceTracker's
// inference model is built on: descriptive statistics, a log-binned
// histogram for empirical probability densities, the largest jump of an
// empirical CDF, and ordinary least-squares linear regression.
//
// All functions operate on float64 slices and never mutate their inputs,
// with one documented exception: SortFloat64s, the exact radix sort the
// inference fit sorts its samples with, sorts its argument in place. NaN and Inf values are rejected by the
// constructors that can meaningfully reject them; plain reducers follow
// IEEE-754 semantics.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by constructors and reducers that require at
// least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 when xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (division by n, not
// n-1), matching the paper's Algorithm 1 which uses the variance of the
// PDF values as the outlier margin basis. Returns 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs. It panics on empty input so
// that misuse fails loudly during development; callers with possibly
// empty data should guard with len.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs. It panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without mutating it.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks (the "R-7" method used by most
// statistics environments). It copies and sorts internally and returns
// 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		return Min(xs)
	}
	if q >= 1 {
		return Max(xs)
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary captures the usual descriptive statistics of a sample in one
// pass-friendly struct.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
	Sum    float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty when xs is
// empty.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return Summary{
		N:      len(s),
		Mean:   sum / float64(len(s)),
		StdDev: StdDev(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Median: quantileSorted(s, 0.5),
		P90:    quantileSorted(s, 0.90),
		P99:    quantileSorted(s, 0.99),
		Sum:    sum,
	}, nil
}

// LinearFit holds the result of an ordinary least-squares straight-line
// fit y = Slope*x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
}

// At evaluates the fitted line at x.
func (f LinearFit) At(x float64) float64 { return f.Slope*x + f.Intercept }

// LeastSquares fits a straight line to the points (xs[i], ys[i]) by
// ordinary least squares. The slices must have equal, non-zero length.
//
// The paper's Algorithm 1 (lines 4-6) uses the shortcut
// slope = std(PDF)/std(T); that estimator has the right magnitude but an
// arbitrary sign, so we implement the standard covariance form
// slope = cov(x,y)/var(x), which coincides in magnitude whenever the
// data are perfectly linear and is well defined otherwise.
func LeastSquares(xs, ys []float64) (LinearFit, error) {
	if len(xs) == 0 {
		return LinearFit{}, ErrEmpty
	}
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: mismatched lengths")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		// Vertical data: fall back to a flat line through the mean so
		// downstream outlier detection still works.
		return LinearFit{Slope: 0, Intercept: my}, nil
	}
	slope := sxy / sxx
	return LinearFit{Slope: slope, Intercept: my - slope*mx}, nil
}

// MaxJump returns the largest probability jump of an empirical CDF
// given as step points — cum holds the cumulative probabilities
// (increasing) at xs — and the xs value at which it occurs, the first on
// ties.
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
