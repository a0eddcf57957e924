package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	// Population variance of {2,4,4,4,5,5,7,9} is 4.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Fatal("variance of <2 samples must be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(empty) should panic")
		}
	}()
	Min(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20}
	if got := Quantile(xs, 0.5); !almostEq(got, 15, 1e-12) {
		t.Fatalf("Quantile(0.5) = %v, want 15", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 || !almostEq(s.Mean, 5.5, 1e-12) || s.Min != 1 || s.Max != 10 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almostEq(s.Median, 5.5, 1e-12) || !almostEq(s.Sum, 55, 1e-12) {
		t.Fatalf("bad median/sum: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestLeastSquaresExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	f, err := LeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Slope, 3, 1e-12) || !almostEq(f.Intercept, -7, 1e-12) {
		t.Fatalf("fit = %+v, want slope 3 intercept -7", f)
	}
	if !almostEq(f.At(10), 23, 1e-12) {
		t.Fatalf("At(10) = %v", f.At(10))
	}
}

func TestLeastSquaresNegativeSlope(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{4, 2, 0}
	f, err := LeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Slope, -2, 1e-12) {
		t.Fatalf("slope = %v, want -2", f.Slope)
	}
}

func TestLeastSquaresDegenerateX(t *testing.T) {
	f, err := LeastSquares([]float64{2, 2, 2}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if f.Slope != 0 || !almostEq(f.Intercept, 2, 1e-12) {
		t.Fatalf("degenerate fit = %+v", f)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if _, err := LeastSquares([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want mismatch error")
	}
}

func TestMaxJump(t *testing.T) {
	// The step points of {1, 2, 7×8}: 80% of mass at x=7, so the max
	// jump must be at 7.
	x, gap := MaxJump([]float64{1, 2, 7}, []float64{0.1, 0.2, 1})
	if x != 7 {
		t.Fatalf("max gap at %v, want 7", x)
	}
	if !almostEq(gap, 0.8, 1e-12) {
		t.Fatalf("gap = %v, want 0.8", gap)
	}
	// Equal jumps: the first wins.
	if x, gap := MaxJump([]float64{3, 5}, []float64{0.5, 1}); x != 3 || gap != 0.5 {
		t.Fatalf("tie: max gap %v at %v, want 0.5 at 3", gap, x)
	}
}

// Property: mean is within [min, max] and shift-equivariant.
func TestMeanPropertyShift(t *testing.T) {
	f := func(raw []int16, shift int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		shifted := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			shifted[i] = float64(v) + float64(shift)
		}
		m := Mean(xs)
		if m < Min(xs)-1e-9 || m > Max(xs)+1e-9 {
			return false
		}
		return almostEq(Mean(shifted), m+float64(shift), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is non-negative and translation-invariant.
func TestVariancePropertyTranslation(t *testing.T) {
	f := func(raw []int16, shift int8) bool {
		xs := make([]float64, len(raw))
		sh := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			sh[i] = float64(v) + float64(shift)
		}
		v1, v2 := Variance(xs), Variance(sh)
		return v1 >= 0 && almostEq(v1, v2, 1e-4*(1+v1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0001; q += 0.01 {
		v := Quantile(xs, q)
		if v < prev-1e-9 {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}
