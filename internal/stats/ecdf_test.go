package stats

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, 2})
	if e.N() != 4 {
		t.Fatalf("N = %d", e.N())
	}
	if got := e.Eval(0.5); got != 0 {
		t.Fatalf("Eval below min = %v", got)
	}
	if got := e.Eval(1); !almostEq(got, 0.25, 1e-12) {
		t.Fatalf("Eval(1) = %v", got)
	}
	if got := e.Eval(2); !almostEq(got, 0.75, 1e-12) {
		t.Fatalf("Eval(2) = %v (duplicates must collapse)", got)
	}
	if got := e.Eval(2.5); !almostEq(got, 0.75, 1e-12) {
		t.Fatalf("Eval(2.5) = %v", got)
	}
	if got := e.Eval(99); got != 1 {
		t.Fatalf("Eval above max = %v", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.Eval(1) != 0 || e.Quantile(0.5) != 0 || e.N() != 0 {
		t.Fatal("empty ECDF should be degenerate zeros")
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40})
	if got := e.Quantile(0.25); got != 10 {
		t.Fatalf("Q(0.25) = %v", got)
	}
	if got := e.Quantile(0.5); got != 20 {
		t.Fatalf("Q(0.5) = %v", got)
	}
	if got := e.Quantile(1); got != 40 {
		t.Fatalf("Q(1) = %v", got)
	}
	if got := e.Quantile(2); got != 40 {
		t.Fatalf("Q(clamped) = %v", got)
	}
	if got := e.Quantile(-1); got != 10 {
		t.Fatalf("Q(<=0) = %v", got)
	}
}

func TestECDFSupportStrictlyIncreasing(t *testing.T) {
	e := NewECDF([]float64{5, 5, 5, 1, 1, 9})
	sup := e.Support()
	for i := 1; i < len(sup); i++ {
		if sup[i] <= sup[i-1] {
			t.Fatal("support must be strictly increasing")
		}
	}
	if len(sup) != 3 {
		t.Fatalf("support len = %d, want 3", len(sup))
	}
}

// NewSortedECDF over a sorted slice is NewECDF over the same values,
// and owns its support: the caller may reuse the slice afterwards.
func TestSortedECDFOwnsItsSupport(t *testing.T) {
	s := []float64{1, 2, 2, 5}
	e := NewSortedECDF(s)
	want := NewECDF([]float64{5, 2, 1, 2})
	if !reflect.DeepEqual(e, want) {
		t.Fatalf("NewSortedECDF = %+v, NewECDF = %+v", e, want)
	}
	for i := range s {
		s[i] = -99
	}
	if !reflect.DeepEqual(e, want) {
		t.Fatal("NewSortedECDF kept a reference to its input")
	}
}

func TestECDFMaxGap(t *testing.T) {
	// 80% of mass at x=7: the max jump must be at 7.
	sample := []float64{1, 2, 7, 7, 7, 7, 7, 7, 7, 7}
	x, gap := NewECDF(sample).MaxGapBelow()
	if x != 7 {
		t.Fatalf("max gap at %v, want 7", x)
	}
	if !almostEq(gap, 0.8, 1e-12) {
		t.Fatalf("gap = %v, want 0.8", gap)
	}
}

// Property: Eval agrees with the definitional count-based CDF.
func TestECDFEvalMatchesDefinition(t *testing.T) {
	f := func(raw []int8, probe int8) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		e := NewECDF(xs)
		x := float64(probe)
		count := 0
		for _, v := range xs {
			if v <= x {
				count++
			}
		}
		want := 0.0
		if len(xs) > 0 {
			want = float64(count) / float64(len(xs))
		}
		return almostEq(e.Eval(x), want, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cumulative probabilities are monotone and end at 1.
func TestECDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 1000
		}
		e := NewECDF(xs)
		probs := e.Probs()
		if !sort.Float64sAreSorted(probs) {
			t.Fatal("probs not monotone")
		}
		if !almostEq(probs[len(probs)-1], 1, 1e-12) {
			t.Fatalf("last prob = %v", probs[len(probs)-1])
		}
	}
}
