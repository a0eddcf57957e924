package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewLogHistogram(1, 10, 0); err == nil {
		t.Fatal("want error for zero buckets")
	}
	if _, err := NewLogHistogram(10, 10, 4); err == nil {
		t.Fatal("want error for empty domain")
	}
	if _, err := NewLogHistogram(0, 10, 4); err == nil {
		t.Fatal("want error for log bins with lo=0")
	}
}

func TestLogBucketPlacement(t *testing.T) {
	// Decades 1..10^4 with 4 buckets: one bucket per decade.
	h, err := NewLogHistogram(1, 1e4, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(2)    // decade [1,10)
	h.Observe(50)   // [10,100)
	h.Observe(500)  // [100,1000)
	h.Observe(5000) // [1000,10000)
	for i := 0; i < 4; i++ {
		if h.counts[i] != 1 {
			t.Fatalf("bucket %d = %d, want 1", i, h.counts[i])
		}
	}
	// Non-positive value clamps to bucket 0 rather than NaN-ing.
	h.Observe(0)
	if h.counts[0] != 2 {
		t.Fatal("zero should clamp into first log bucket")
	}
	// Values past either end clamp into the end buckets.
	h.Observe(0.5, 1e4, 42e6)
	if h.counts[0] != 3 || h.counts[3] != 3 || h.total != 8 {
		t.Fatalf("clamping: counts %v total %d", h.counts, h.total)
	}
}

func TestHistogramCenters(t *testing.T) {
	hl, _ := NewLogHistogram(1, 100, 2)
	// Geometric midpoints of [1,10] and [10,100].
	if got := hl.center(0); !almostEq(got, math.Sqrt(10), 1e-9) {
		t.Fatalf("log center0 = %v", got)
	}
	if got := hl.center(1); !almostEq(got, math.Sqrt(1000), 1e-9) {
		t.Fatalf("log center1 = %v", got)
	}
}

func TestPDFSumsToOne(t *testing.T) {
	h, _ := NewLogHistogram(1, 100, 13)
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

// Property: every observation lands in exactly one bucket (total counts
// always equal observations) for arbitrary values, and one Observe of
// the sorted sample, which counts runs of equal values at once, fills
// the same buckets as one Observe per value.
func TestHistogramTotalProperty(t *testing.T) {
	h, _ := NewLogHistogram(0.1, 1e7, 80)
	f := func(vals []float64) bool {
		before := h.total
		var kept []float64
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Observe(v)
			kept = append(kept, v, v) // a duplicate makes a run
		}
		var sum uint64
		for _, c := range h.counts {
			sum += c
		}
		one, _ := NewLogHistogram(0.1, 1e7, 80)
		for _, v := range kept {
			one.Observe(v)
		}
		sorted, _ := NewLogHistogram(0.1, 1e7, 80)
		SortFloat64s(kept, nil)
		sorted.Observe(kept...)
		return h.total == before+uint64(len(kept)/2) && sum == h.total &&
			reflect.DeepEqual(one, sorted)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
