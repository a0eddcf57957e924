package interp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestValidation(t *testing.T) {
	if _, err := PCHIP([]float64{1}, []float64{1}); err != ErrTooFewKnots {
		t.Fatalf("want ErrTooFewKnots, got %v", err)
	}
	if _, err := PCHIP([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := NaturalSpline([]float64{1, 1, 2}, []float64{0, 1, 2}); err == nil {
		t.Fatal("want non-increasing knot error")
	}
}

func TestAllInterpolantsPassThroughKnots(t *testing.T) {
	xs := []float64{0, 1, 2.5, 4, 7}
	ys := []float64{0, 0.1, 0.5, 0.9, 1}
	for name, build := range map[string]func([]float64, []float64) (Interpolant, error){
		"pchip":  PCHIP,
		"spline": NaturalSpline,
	} {
		f, err := build(xs, ys)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range xs {
			if got := f.At(xs[i]); !almostEq(got, ys[i], 1e-9) {
				t.Errorf("%s: At(%v) = %v, want %v", name, xs[i], got, ys[i])
			}
		}
	}
}

func TestPCHIPMonotonePreservation(t *testing.T) {
	// A step-like CDF: a spline overshoots above 1 here, PCHIP must not.
	xs := []float64{0, 1, 2, 2.1, 3, 4}
	ys := []float64{0, 0.01, 0.02, 0.98, 0.99, 1}
	p, err := PCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for x := 0.0; x <= 4.0; x += 0.001 {
		v := p.At(x)
		if v < prev-1e-12 {
			t.Fatalf("PCHIP not monotone at %v: %v < %v", x, v, prev)
		}
		if v < -1e-9 || v > 1+1e-9 {
			t.Fatalf("PCHIP out of [0,1] at %v: %v", x, v)
		}
		prev = v
	}
}

func TestSplineOvershootsWherePCHIPDoesNot(t *testing.T) {
	// This is the Fig 9 phenomenon: spline oscillation on step data.
	xs := []float64{0, 1, 2, 2.1, 3, 4}
	ys := []float64{0, 0.01, 0.02, 0.98, 0.99, 1}
	s, err := NaturalSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	overshoot := false
	for x := 0.0; x <= 4.0; x += 0.001 {
		if v := s.At(x); v < -1e-9 || v > 1+1e-9 {
			overshoot = true
			break
		}
	}
	if !overshoot {
		t.Fatal("expected natural spline to overshoot on step-like data")
	}
}

func TestPCHIPTwoKnots(t *testing.T) {
	p, err := PCHIP([]float64{0, 2}, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.At(1); !almostEq(got, 2, 1e-9) {
		t.Fatalf("At(1) = %v, want 2 (linear between two knots)", got)
	}
	if got := p.Deriv(1); !almostEq(got, 2, 1e-9) {
		t.Fatalf("Deriv(1) = %v, want 2", got)
	}
}

func TestSplineReproducesCubic(t *testing.T) {
	// A natural spline exactly reproduces a function that is already a
	// natural cubic; the simplest is a straight line.
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x + 1
	}
	s, err := NaturalSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= 5; x += 0.1 {
		if got := s.At(x); !almostEq(got, 2*x+1, 1e-9) {
			t.Fatalf("spline At(%v) = %v, want %v", x, got, 2*x+1)
		}
		if got := s.Deriv(x); !almostEq(got, 2, 1e-9) {
			t.Fatalf("spline Deriv(%v) = %v, want 2", x, got)
		}
	}
}

func TestDerivMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 12)
	ys := make([]float64, 12)
	for i := range xs {
		xs[i] = float64(i) + rng.Float64()*0.3
		ys[i] = math.Sin(xs[i] / 3)
	}
	for name, build := range map[string]func([]float64, []float64) (Interpolant, error){
		"pchip":  PCHIP,
		"spline": NaturalSpline,
	} {
		f, err := build(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		const h = 1e-6
		for x := xs[0] + 0.5; x < xs[len(xs)-1]-0.5; x += 0.37 {
			fd := (f.At(x+h) - f.At(x-h)) / (2 * h)
			if got := f.Deriv(x); !almostEq(got, fd, 1e-4) {
				t.Fatalf("%s: Deriv(%v) = %v, finite diff %v", name, x, got, fd)
			}
		}
	}
}

func TestMaxDerivFindsSteepestRegion(t *testing.T) {
	// CDF rising fastest around x=5.
	var xs, ys []float64
	for x := 0.0; x <= 10; x += 0.5 {
		xs = append(xs, x)
		ys = append(ys, 1/(1+math.Exp(-(x-5)*2)))
	}
	p, err := PCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	argmax, max := MaxDeriv(p, 16)
	if math.Abs(argmax-5) > 0.5 {
		t.Fatalf("argmax = %v, want ~5", argmax)
	}
	if max <= 0 {
		t.Fatalf("max deriv = %v", max)
	}
}

func TestLocalMaximaFindsTwoModes(t *testing.T) {
	// Bimodal CDF: steep at x=2 and x=8.
	sig := func(x, c float64) float64 { return 1 / (1 + math.Exp(-(x-c)*4)) }
	var xs, ys []float64
	for x := 0.0; x <= 10; x += 0.25 {
		xs = append(xs, x)
		ys = append(ys, 0.5*sig(x, 2)+0.5*sig(x, 8))
	}
	p, err := PCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	mx, _ := LocalMaxima(p, 8, 2)
	if len(mx) != 2 {
		t.Fatalf("found %d maxima, want 2 (%v)", len(mx), mx)
	}
	near := func(x, c float64) bool { return math.Abs(x-c) < 1 }
	if !(near(mx[0], 2) || near(mx[0], 8)) || !(near(mx[1], 2) || near(mx[1], 8)) {
		t.Fatalf("maxima at %v, want near 2 and 8", mx)
	}
}

func TestLocalMaximaDegenerate(t *testing.T) {
	p, _ := PCHIP([]float64{0, 1}, []float64{0, 1})
	xs, ds := LocalMaxima(p, 4, 3)
	// A straight line has a flat derivative: no strict local maxima
	// required, but the call must not panic and lengths must agree.
	if len(xs) != len(ds) {
		t.Fatal("mismatched return lengths")
	}
}

// Property: PCHIP stays within the y-range of its knots for monotone
// data (no overshoot), for random monotone CDFs.
func TestPCHIPNoOvershootProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		x, y := 0.0, 0.0
		for i := 0; i < n; i++ {
			x += 0.01 + rng.Float64()
			y += rng.Float64()
			xs[i], ys[i] = x, y
		}
		// Normalize to a CDF.
		for i := range ys {
			ys[i] /= ys[n-1]
		}
		p, err := PCHIP(xs, ys)
		if err != nil {
			return false
		}
		for t := 0.0; t <= 1.0; t += 0.01 {
			xx := xs[0] + t*(xs[n-1]-xs[0])
			v := p.At(xx)
			if v < ys[0]-1e-9 || v > ys[n-1]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestExtrapolationUsesBoundaryPiece: outside the knots the curve is
// its boundary cubic. Through (0,0), (1,1), (2,4) PCHIP's knot slopes
// are 0, 1.5 and 4, so the pieces extend to 2 at x = -1 and 8 at x = 3.
func TestExtrapolationUsesBoundaryPiece(t *testing.T) {
	p, _ := PCHIP([]float64{0, 1, 2}, []float64{0, 1, 4})
	if got := p.At(3); !almostEq(got, 8, 1e-9) {
		t.Fatalf("extrapolate At(3) = %v, want 8", got)
	}
	if got := p.At(-1); !almostEq(got, 2, 1e-9) {
		t.Fatalf("extrapolate At(-1) = %v, want 2", got)
	}
}
