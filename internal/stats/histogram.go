package stats

import (
	"errors"
	"fmt"
	"math"
)

// Histogram is a fixed-bucket histogram over a float64 domain whose
// buckets have equal width in log10 space. Inter-arrival times span
// seven orders of magnitude (Fig 1 of the paper plots 10^-1..10^7 µs),
// so Algorithm 1 bins their PDF logarithmically.
type Histogram struct {
	counts   []uint64
	total    uint64
	llo, lhi float64 // log10 of the domain [lo, hi]
}

// NewLogHistogram creates a histogram with n log-spaced buckets over
// [lo, hi]. lo must be > 0, hi must exceed lo and n must be >= 1.
func NewLogHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n < 1 {
		return nil, errors.New("stats: histogram needs at least one bucket")
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: invalid histogram domain [%g,%g]", lo, hi)
	}
	if lo <= 0 {
		return nil, errors.New("stats: log histogram requires lo > 0")
	}
	return &Histogram{counts: make([]uint64, n), llo: math.Log10(lo), lhi: math.Log10(hi)}, nil
}

// Observe records each sample of xs. Values outside [lo, hi] are
// clamped into the first/last bucket: for inter-arrival analysis losing
// the exact magnitude of an extreme outlier is preferable to dropping
// it, because the CDF tail mass matters for idle-period accounting. A
// run of equal values costs one bucket computation, so a sorted sample
// pays one per distinct value.
func (h *Histogram) Observe(xs ...float64) {
	for i := 0; i < len(xs); {
		j := i + 1
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		h.counts[h.bucketOf(xs[i])] += uint64(j - i)
		i = j
	}
	h.total += uint64(len(xs))
}

func (h *Histogram) bucketOf(x float64) int {
	if x <= 0 {
		return 0
	}
	frac := (math.Log10(x) - h.llo) / (h.lhi - h.llo)
	i := int(frac * float64(len(h.counts)))
	if i < 0 {
		return 0
	}
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// center returns the representative x value of bucket i: its geometric
// midpoint.
func (h *Histogram) center(i int) float64 {
	w := (h.lhi - h.llo) / float64(len(h.counts))
	return math.Pow(10, h.llo+(float64(i)+0.5)*w)
}

// PDF returns parallel slices (x, p) where x[i] is the bucket center and
// p[i] the empirical probability mass of bucket i. Empty buckets are
// included; the caller may filter. An empty histogram yields zero-valued
// p.
func (h *Histogram) PDF() (xs, ps []float64) {
	xs = make([]float64, len(h.counts))
	ps = make([]float64, len(h.counts))
	for i := range h.counts {
		xs[i] = h.center(i)
		if h.total > 0 {
			ps[i] = float64(h.counts[i]) / float64(h.total)
		}
	}
	return xs, ps
}
