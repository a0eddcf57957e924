package interp

import (
	"math"
	"math/rand"
	"slices"
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

// TestMaxDerivMatchesSearch holds MaxDeriv's scan to the searched
// evaluation it replaced — f.Deriv at every point, each locating its
// piece by binary search — bit for bit, on generated PCHIPs and
// splines: uniform knots, knots quantised to 1 ns in µs (as csv
// arrivals are) and clusters of knots a few ulps apart, at 1, 3 and 8
// samples a segment. Every scanned point must also land on segment's
// piece.
func TestMaxDerivMatchesSearch(t *testing.T) {
	searched := func(f Interpolant, per int) (argmax, max float64) {
		knots := f.Knots()
		max = math.Inf(-1)
		for i := 0; i < len(knots)-1; i++ {
			step := (knots[i+1] - knots[i]) / float64(per)
			for s := 0; s <= per; s++ {
				x := knots[i] + float64(s)*step
				if pieceNear(knots, i, x) != segment(knots, x) {
					t.Fatalf("x=%v near piece %d: pieceNear %d, segment %d", x, i, pieceNear(knots, i, x), segment(knots, x))
				}
				if d := f.Deriv(x); d > max {
					max, argmax = d, x
				}
			}
		}
		return argmax, max
	}
	rng := rand.New(rand.NewSource(5))
	knots := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 3 + float64(i)*0.25
			}
			return xs
		},
		"quantised": func(n int) []float64 {
			seen := map[float64]bool{}
			var xs []float64
			for len(xs) < n {
				x := math.Round(rng.ExpFloat64()*5e6) / 1e3
				if !seen[x] {
					seen[x] = true
					xs = append(xs, x)
				}
			}
			slices.Sort(xs)
			return xs
		},
		"clustered": func(n int) []float64 {
			xs := make([]float64, 0, n)
			x := 1e6
			for len(xs) < n {
				if rng.Intn(4) == 0 {
					x += rng.Float64() * 1e3
				} else {
					x = math.Nextafter(x, math.Inf(1))
					for range rng.Intn(3) {
						x = math.Nextafter(x, math.Inf(1))
					}
				}
				xs = append(xs, x)
			}
			return xs
		},
	}
	for name, gen := range knots {
		for trial := range 40 {
			xs := gen(2 + rng.Intn(600))
			ys := make([]float64, len(xs))
			for i := 1; i < len(ys); i++ {
				ys[i] = ys[i-1]
				if rng.Intn(5) > 0 { // a flat step now and then
					ys[i] += rng.Float64()
				}
			}
			for _, fit := range []func([]float64, []float64) (Interpolant, error){PCHIP, NaturalSpline} {
				f, err := fit(xs, ys)
				if err != nil {
					t.Fatal(err)
				}
				for _, per := range []int{1, 3, 8} {
					ga, gm := MaxDeriv(f, per)
					wa, wm := searched(f, per)
					if math.Float64bits(ga) != math.Float64bits(wa) || math.Float64bits(gm) != math.Float64bits(wm) {
						t.Fatalf("%s trial %d, %d knots, %d a segment: MaxDeriv (%v, %v), searched (%v, %v)",
							name, trial, len(xs), per, ga, gm, wa, wm)
					}
				}
			}
		}
	}
}
