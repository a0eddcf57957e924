// Package interp implements the piecewise interpolation schemes Section
// IV of the TraceTracker paper relies on to turn a discrete CDF into a
// differentiable curve: PCHIP (piecewise cubic Hermite interpolating
// polynomial, Fritsch–Carlson monotone variant) and natural cubic
// splines, plus a plain linear interpolant.
//
// The paper observes (Fig 9) that spline interpolation of a step-like
// CDF oscillates and over/undershoots while PCHIP preserves shape; both
// are implemented from scratch here so the comparison can be reproduced
// numerically.
package interp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Interpolant is a differentiable curve fitted through a set of knots.
type Interpolant interface {
	// At evaluates the curve at x. Outside the knot range the curve is
	// extrapolated with the boundary polynomial piece.
	At(x float64) float64
	// Deriv evaluates the first derivative at x.
	Deriv(x float64) float64
	// Knots returns the x coordinates of the fit points (do not mutate).
	Knots() []float64
}

// ErrTooFewKnots is returned when fewer than two knots are supplied.
var ErrTooFewKnots = errors.New("interp: need at least two knots")

// validate checks the common preconditions: equal lengths, >= 2 points,
// strictly increasing x.
func validate(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("interp: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return ErrTooFewKnots
	}
	for i := 1; i < len(xs); i++ {
		if !(xs[i] > xs[i-1]) {
			return fmt.Errorf("interp: knots not strictly increasing at %d (%g after %g)", i, xs[i], xs[i-1])
		}
	}
	return nil
}

// segment locates the polynomial piece index for x: the largest i with
// xs[i] <= x, clamped to [0, len(xs)-2].
func segment(xs []float64, x float64) int {
	i := sort.SearchFloat64s(xs, x) - 1
	if i < 0 {
		return 0
	}
	if i > len(xs)-2 {
		return len(xs) - 2
	}
	return i
}

// hermite holds per-knot values and derivatives for cubic Hermite
// evaluation, shared by PCHIP and the spline (a spline is a Hermite
// curve with C2-chosen derivatives).
type hermite struct {
	xs, ys, ds []float64
}

func (h *hermite) Knots() []float64 { return h.xs }

func (h *hermite) At(x float64) float64 {
	i := segment(h.xs, x)
	hl := h.xs[i+1] - h.xs[i]
	t := (x - h.xs[i]) / hl
	t2, t3 := t*t, t*t*t
	h00 := 2*t3 - 3*t2 + 1
	h10 := t3 - 2*t2 + t
	h01 := -2*t3 + 3*t2
	h11 := t3 - t2
	return h00*h.ys[i] + h10*hl*h.ds[i] + h01*h.ys[i+1] + h11*hl*h.ds[i+1]
}

func (h *hermite) Deriv(x float64) float64 {
	i := segment(h.xs, x)
	hl := h.xs[i+1] - h.xs[i]
	t := (x - h.xs[i]) / hl
	t2 := t * t
	dh00 := 6*t2 - 6*t
	dh10 := 3*t2 - 4*t + 1
	dh01 := -6*t2 + 6*t
	dh11 := 3*t2 - 2*t
	return (dh00*h.ys[i]+dh01*h.ys[i+1])/hl + dh10*h.ds[i] + dh11*h.ds[i+1]
}

// PCHIP fits a monotonicity-preserving piecewise cubic Hermite
// interpolant (Fritsch–Carlson 1980) through (xs, ys). The xs must be
// strictly increasing. When ys is monotone the curve is monotone, which
// is what makes PCHIP the right tool for CDFs: no overshoot above 1 and
// no oscillating derivative between knots.
func PCHIP(xs, ys []float64) (Interpolant, error) {
	if err := validate(xs, ys); err != nil {
		return nil, err
	}
	n := len(xs)
	x := append([]float64(nil), xs...)
	y := append([]float64(nil), ys...)
	// Segment slopes.
	delta := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		delta[i] = (y[i+1] - y[i]) / (x[i+1] - x[i])
	}
	d := make([]float64, n)
	if n == 2 {
		d[0], d[1] = delta[0], delta[0]
		return &hermite{x, y, d}, nil
	}
	// Interior derivatives: weighted harmonic mean of adjacent slopes
	// when they share a sign, zero otherwise (local extremum).
	for i := 1; i < n-1; i++ {
		if delta[i-1]*delta[i] <= 0 {
			d[i] = 0
			continue
		}
		h0 := x[i] - x[i-1]
		h1 := x[i+1] - x[i]
		w1 := 2*h1 + h0
		w2 := h1 + 2*h0
		d[i] = (w1 + w2) / (w1/delta[i-1] + w2/delta[i])
	}
	d[0] = endpointDeriv(x[1]-x[0], x[2]-x[1], delta[0], delta[1])
	d[n-1] = endpointDeriv(x[n-1]-x[n-2], x[n-2]-x[n-3], delta[n-2], delta[n-3])
	return &hermite{x, y, d}, nil
}

// endpointDeriv is the one-sided three-point estimate used by PCHIP at
// the boundary, clamped per Fritsch–Carlson to keep shape.
func endpointDeriv(h0, h1, d0, d1 float64) float64 {
	d := ((2*h0+h1)*d0 - h0*d1) / (h0 + h1)
	if d*d0 <= 0 {
		return 0
	}
	if d0*d1 <= 0 && math.Abs(d) > 3*math.Abs(d0) {
		return 3 * d0
	}
	return d
}

// NaturalSpline fits a C2 natural cubic spline (second derivative zero
// at both ends) through (xs, ys). Splines trade shape preservation for
// smoothness; on step-like CDFs they oscillate (paper Fig 9).
func NaturalSpline(xs, ys []float64) (Interpolant, error) {
	if err := validate(xs, ys); err != nil {
		return nil, err
	}
	n := len(xs)
	x := append([]float64(nil), xs...)
	y := append([]float64(nil), ys...)
	if n == 2 {
		s := (y[1] - y[0]) / (x[1] - x[0])
		return &hermite{x, y, []float64{s, s}}, nil
	}
	// Solve the tridiagonal system for second derivatives m[i]
	// (natural boundary: m[0] = m[n-1] = 0), then convert to first
	// derivatives at the knots for Hermite evaluation.
	h := make([]float64, n-1)
	for i := range h {
		h[i] = x[i+1] - x[i]
	}
	// Thomas algorithm on the interior unknowns m[1..n-2].
	a := make([]float64, n) // sub-diagonal
	b := make([]float64, n) // diagonal
	c := make([]float64, n) // super-diagonal
	r := make([]float64, n) // rhs
	for i := 1; i < n-1; i++ {
		a[i] = h[i-1]
		b[i] = 2 * (h[i-1] + h[i])
		c[i] = h[i]
		r[i] = 6 * ((y[i+1]-y[i])/h[i] - (y[i]-y[i-1])/h[i-1])
	}
	m := make([]float64, n)
	// Forward sweep.
	for i := 2; i < n-1; i++ {
		w := a[i] / b[i-1]
		b[i] -= w * c[i-1]
		r[i] -= w * r[i-1]
	}
	// Back substitution.
	if n > 2 {
		m[n-2] = r[n-2] / b[n-2]
		for i := n - 3; i >= 1; i-- {
			m[i] = (r[i] - c[i]*m[i+1]) / b[i]
		}
	}
	d := make([]float64, n)
	for i := 0; i < n-1; i++ {
		d[i] = (y[i+1]-y[i])/h[i] - h[i]*(2*m[i]+m[i+1])/6
	}
	// Derivative at the last knot from the last segment.
	i := n - 2
	d[n-1] = (y[i+1]-y[i])/h[i] + h[i]*(2*m[i+1]+m[i])/6
	return &hermite{x, y, d}, nil
}

// Linear fits a piecewise linear interpolant. Its derivative is a step
// function.
func Linear(xs, ys []float64) (Interpolant, error) {
	if err := validate(xs, ys); err != nil {
		return nil, err
	}
	x := append([]float64(nil), xs...)
	y := append([]float64(nil), ys...)
	return &linear{x, y}, nil
}

type linear struct{ xs, ys []float64 }

func (l *linear) Knots() []float64 { return l.xs }

func (l *linear) At(x float64) float64 {
	i := segment(l.xs, x)
	t := (x - l.xs[i]) / (l.xs[i+1] - l.xs[i])
	return l.ys[i] + t*(l.ys[i+1]-l.ys[i])
}

func (l *linear) Deriv(x float64) float64 {
	i := segment(l.xs, x)
	return (l.ys[i+1] - l.ys[i]) / (l.xs[i+1] - l.xs[i])
}

// MaxDeriv scans the interpolant's derivative over its knot range with
// samplesPerSegment evaluation points per knot interval (minimum 1) and
// returns the x of the maximum derivative and the derivative value
// there. This is the "global maxima of CDF'(Tintt)" search from
// Section III of the paper.
func MaxDeriv(f Interpolant, samplesPerSegment int) (argmax, max float64) {
	if samplesPerSegment < 1 {
		samplesPerSegment = 1
	}
	knots := f.Knots()
	max = math.Inf(-1)
	for i := 0; i < len(knots)-1; i++ {
		x0, x1 := knots[i], knots[i+1]
		step := (x1 - x0) / float64(samplesPerSegment)
		for s := 0; s <= samplesPerSegment; s++ {
			x := x0 + float64(s)*step
			if d := f.Deriv(x); d > max {
				max, argmax = d, x
			}
		}
	}
	return argmax, max
}

// LocalMaxima returns up to limit local maxima of the derivative,
// sampled like MaxDeriv, sorted by decreasing derivative value. Used to
// classify CDF shapes (paper Fig 5: single global maximum vs multiple
// maxima).
func LocalMaxima(f Interpolant, samplesPerSegment, limit int) (xs, ds []float64) {
	if samplesPerSegment < 1 {
		samplesPerSegment = 1
	}
	knots := f.Knots()
	if len(knots) < 2 {
		return nil, nil
	}
	// Dense sampling of the derivative.
	var sx, sd []float64
	for i := 0; i < len(knots)-1; i++ {
		x0, x1 := knots[i], knots[i+1]
		step := (x1 - x0) / float64(samplesPerSegment)
		for s := 0; s < samplesPerSegment; s++ {
			x := x0 + float64(s)*step
			sx = append(sx, x)
			sd = append(sd, f.Deriv(x))
		}
	}
	sx = append(sx, knots[len(knots)-1])
	sd = append(sd, f.Deriv(knots[len(knots)-1]))
	type peak struct{ x, d float64 }
	var peaks []peak
	for i := 1; i < len(sd)-1; i++ {
		if sd[i] >= sd[i-1] && sd[i] > sd[i+1] {
			peaks = append(peaks, peak{sx[i], sd[i]})
		}
	}
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].d > peaks[j].d })
	if limit > 0 && len(peaks) > limit {
		peaks = peaks[:limit]
	}
	for _, p := range peaks {
		xs = append(xs, p.x)
		ds = append(ds, p.d)
	}
	return xs, ds
}
