package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKSIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if d := KolmogorovSmirnov(a, a); d != 0 {
		t.Fatalf("KS(a,a) = %v", d)
	}
}

func TestKSDisjointSamples(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{100, 200, 300}
	if d := KolmogorovSmirnov(a, b); d != 1 {
		t.Fatalf("KS(disjoint) = %v, want 1", d)
	}
}

func TestKSEmpty(t *testing.T) {
	if KolmogorovSmirnov(nil, []float64{1}) != 1 {
		t.Fatal("KS with empty sample should be 1")
	}
}

func TestKSKnownValue(t *testing.T) {
	// a = {1,2}, b = {1.5}: F_a jumps 0.5 at 1 and 2; F_b jumps 1 at
	// 1.5. Max gap is 0.5 (at 1 or after 1.5).
	d := KolmogorovSmirnov([]float64{1, 2}, []float64{1.5})
	if !almostEq(d, 0.5, 1e-12) {
		t.Fatalf("KS = %v, want 0.5", d)
	}
}

func TestKSSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 100)
	b := make([]float64, 150)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64() + 0.5
	}
	if d1, d2 := KolmogorovSmirnov(a, b), KolmogorovSmirnov(b, a); !almostEq(d1, d2, 1e-12) {
		t.Fatalf("KS not symmetric: %v vs %v", d1, d2)
	}
}

func TestKSBoundsProperty(t *testing.T) {
	f := func(ra, rb []int8) bool {
		a := make([]float64, len(ra))
		b := make([]float64, len(rb))
		for i, v := range ra {
			a[i] = float64(v)
		}
		for i, v := range rb {
			b[i] = float64(v)
		}
		d := KolmogorovSmirnov(a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWasserstein1Shift(t *testing.T) {
	// Shifting a distribution by c moves W1 by exactly c.
	a := []float64{1, 2, 3, 4}
	b := []float64{11, 12, 13, 14}
	if d := Wasserstein1(a, b); !almostEq(d, 10, 1e-9) {
		t.Fatalf("W1(shift 10) = %v", d)
	}
}

func TestWasserstein1Identical(t *testing.T) {
	a := []float64{5, 5, 7}
	if d := Wasserstein1(a, a); !almostEq(d, 0, 1e-12) {
		t.Fatalf("W1(a,a) = %v", d)
	}
}

func TestWasserstein1Empty(t *testing.T) {
	if !math.IsInf(Wasserstein1(nil, []float64{1}), 1) {
		t.Fatal("W1 with empty sample should be +Inf")
	}
}

func TestWassersteinDistinguishesWhatKSCannot(t *testing.T) {
	// Both b and c are fully disjoint from a (KS = 1 for both), but c
	// moved its mass 100x further; W1 must see that.
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	c := []float64{1000, 1001, 1002}
	if KolmogorovSmirnov(a, b) != 1 || KolmogorovSmirnov(a, c) != 1 {
		t.Fatal("setup: both should be KS=1")
	}
	if Wasserstein1(a, c) <= Wasserstein1(a, b) {
		t.Fatal("W1 should rank the farther distribution higher")
	}
}

func TestWasserstein1SymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		m := 1 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = rng.Float64() * 100
		}
		for i := range b {
			b[i] = rng.Float64() * 100
		}
		return almostEq(Wasserstein1(a, b), Wasserstein1(b, a), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
