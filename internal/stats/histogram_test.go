package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(LinearBins, 0, 10, 0); err == nil {
		t.Fatal("want error for zero buckets")
	}
	if _, err := NewHistogram(LinearBins, 10, 10, 4); err == nil {
		t.Fatal("want error for empty domain")
	}
	if _, err := NewHistogram(LogBins, 0, 10, 4); err == nil {
		t.Fatal("want error for log bins with lo=0")
	}
}

func TestLinearBucketPlacement(t *testing.T) {
	h, err := NewHistogram(LinearBins, 0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.5)  // bucket 0
	h.Observe(9.5)  // bucket 9
	h.Observe(5.0)  // bucket 5
	h.Observe(-3)   // clamps to 0
	h.Observe(42)   // clamps to 9
	h.Observe(10.0) // exactly hi clamps to last bucket
	if h.Count(0) != 2 {
		t.Fatalf("bucket0 = %d, want 2", h.Count(0))
	}
	if h.Count(9) != 3 {
		t.Fatalf("bucket9 = %d, want 3", h.Count(9))
	}
	if h.Count(5) != 1 {
		t.Fatalf("bucket5 = %d, want 1", h.Count(5))
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d, want 6", h.Total())
	}
}

func TestLogBucketPlacement(t *testing.T) {
	// Decades 1..10^4 with 4 buckets: one bucket per decade.
	h, err := NewHistogram(LogBins, 1, 1e4, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(2)    // decade [1,10)
	h.Observe(50)   // [10,100)
	h.Observe(500)  // [100,1000)
	h.Observe(5000) // [1000,10000)
	for i := 0; i < 4; i++ {
		if h.Count(i) != 1 {
			t.Fatalf("bucket %d = %d, want 1", i, h.Count(i))
		}
	}
	// Non-positive value clamps to bucket 0 rather than NaN-ing.
	h.Observe(0)
	if h.Count(0) != 2 {
		t.Fatal("zero should clamp into first log bucket")
	}
}

func TestHistogramCenters(t *testing.T) {
	h, _ := NewHistogram(LinearBins, 0, 10, 5)
	if got := h.Center(0); !almostEq(got, 1, 1e-12) {
		t.Fatalf("center0 = %v, want 1", got)
	}
	if got := h.Center(4); !almostEq(got, 9, 1e-12) {
		t.Fatalf("center4 = %v, want 9", got)
	}
	hl, _ := NewHistogram(LogBins, 1, 100, 2)
	// Geometric midpoints of [1,10] and [10,100].
	if got := hl.Center(0); !almostEq(got, math.Sqrt(10), 1e-9) {
		t.Fatalf("log center0 = %v", got)
	}
	if got := hl.Center(1); !almostEq(got, math.Sqrt(1000), 1e-9) {
		t.Fatalf("log center1 = %v", got)
	}
}

func TestPDFSumsToOne(t *testing.T) {
	h, _ := NewHistogram(LinearBins, 0, 100, 13)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i % 100))
	}
	_, ps := h.PDF()
	var sum float64
	for _, p := range ps {
		sum += p
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Fatalf("PDF sums to %v", sum)
	}
}

func TestCDFMonotoneReachesOne(t *testing.T) {
	h, _ := NewHistogram(LogBins, 1, 1e6, 60)
	for i := 1; i <= 500; i++ {
		h.Observe(float64(i * i))
	}
	xs, cs := h.CDF()
	prev := 0.0
	for i, c := range cs {
		if c < prev {
			t.Fatalf("CDF decreasing at %d", i)
		}
		prev = c
		if i > 0 && xs[i] <= xs[i-1] {
			t.Fatalf("CDF x not increasing at %d", i)
		}
	}
	if !almostEq(cs[len(cs)-1], 1, 1e-9) {
		t.Fatalf("CDF ends at %v", cs[len(cs)-1])
	}
}

// Property: every observation lands in exactly one bucket (total counts
// always equal observations) for arbitrary values, and one Observe of
// the sorted sample, which counts runs of equal values at once, fills
// the same buckets as one Observe per value.
func TestHistogramTotalProperty(t *testing.T) {
	h, _ := NewHistogram(LogBins, 0.1, 1e7, 80)
	f := func(vals []float64) bool {
		before := h.Total()
		var kept []float64
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Observe(v)
			kept = append(kept, v, v) // a duplicate makes a run
		}
		var sum uint64
		for i := 0; i < h.Buckets(); i++ {
			sum += h.Count(i)
		}
		one, _ := NewHistogram(LogBins, 0.1, 1e7, 80)
		for _, v := range kept {
			one.Observe(v)
		}
		sorted, _ := NewHistogram(LogBins, 0.1, 1e7, 80)
		SortFloat64s(kept, nil)
		sorted.Observe(kept...)
		return h.Total() == before+uint64(len(kept)/2) && sum == h.Total() &&
			reflect.DeepEqual(one, sorted)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinningString(t *testing.T) {
	if LinearBins.String() != "linear" || LogBins.String() != "log" {
		t.Fatal("Binning.String broken")
	}
	if Binning(9).String() == "" {
		t.Fatal("unknown binning should still stringify")
	}
}
