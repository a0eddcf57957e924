package stats

import (
	"errors"
	"fmt"
	"math"
)

// Binning selects how a Histogram partitions its domain.
type Binning int

const (
	// LinearBins partitions [min,max] into equal-width buckets.
	LinearBins Binning = iota
	// LogBins partitions [min,max] into buckets of equal width in
	// log10 space. Inter-arrival times span seven orders of magnitude
	// (Fig 1 of the paper plots 10^-1..10^7 µs), so log binning is the
	// pipeline default; the ablation bench compares against linear.
	LogBins
)

// String implements fmt.Stringer.
func (b Binning) String() string {
	switch b {
	case LinearBins:
		return "linear"
	case LogBins:
		return "log"
	default:
		return fmt.Sprintf("Binning(%d)", int(b))
	}
}

// Histogram is a fixed-bucket histogram over a float64 domain.
type Histogram struct {
	binning Binning
	lo, hi  float64 // domain, in linear space
	counts  []uint64
	total   uint64
	// log-space cached bounds when binning == LogBins
	llo, lhi float64
}

// NewHistogram creates a histogram with n buckets over [lo, hi].
// For LogBins, lo must be > 0. hi must exceed lo and n must be >= 1.
func NewHistogram(binning Binning, lo, hi float64, n int) (*Histogram, error) {
	if n < 1 {
		return nil, errors.New("stats: histogram needs at least one bucket")
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: invalid histogram domain [%g,%g]", lo, hi)
	}
	h := &Histogram{binning: binning, lo: lo, hi: hi, counts: make([]uint64, n)}
	if binning == LogBins {
		if lo <= 0 {
			return nil, errors.New("stats: log histogram requires lo > 0")
		}
		h.llo, h.lhi = math.Log10(lo), math.Log10(hi)
	}
	return h, nil
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Total returns the number of observations recorded, including clamped
// out-of-range ones.
func (h *Histogram) Total() uint64 { return h.total }

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
	var frac float64
	switch h.binning {
	case LogBins:
		if x <= 0 {
			return 0
		}
		frac = (math.Log10(x) - h.llo) / (h.lhi - h.llo)
	default:
		frac = (x - h.lo) / (h.hi - h.lo)
	}
	i := int(frac * float64(len(h.counts)))
	if i < 0 {
		return 0
	}
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// Count returns the raw count of bucket i.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Center returns the representative x value (bucket midpoint; geometric
// midpoint for log bins) of bucket i.
func (h *Histogram) Center(i int) float64 {
	n := float64(len(h.counts))
	switch h.binning {
	case LogBins:
		w := (h.lhi - h.llo) / n
		return math.Pow(10, h.llo+(float64(i)+0.5)*w)
	default:
		w := (h.hi - h.lo) / n
		return h.lo + (float64(i)+0.5)*w
	}
}

// EdgeLo returns the inclusive lower edge of bucket i.
func (h *Histogram) EdgeLo(i int) float64 {
	n := float64(len(h.counts))
	switch h.binning {
	case LogBins:
		w := (h.lhi - h.llo) / n
		return math.Pow(10, h.llo+float64(i)*w)
	default:
		w := (h.hi - h.lo) / n
		return h.lo + float64(i)*w
	}
}

// PDF returns parallel slices (x, p) where x[i] is the bucket center and
// p[i] the empirical probability mass of bucket i. Empty buckets are
// included; the caller may filter. Total()==0 yields zero-valued p.
func (h *Histogram) PDF() (xs, ps []float64) {
	xs = make([]float64, len(h.counts))
	ps = make([]float64, len(h.counts))
	for i := range h.counts {
		xs[i] = h.Center(i)
		if h.total > 0 {
			ps[i] = float64(h.counts[i]) / float64(h.total)
		}
	}
	return xs, ps
}

// CDF returns parallel slices (x, c) where c[i] is the cumulative
// probability at the bucket-i upper edge.
func (h *Histogram) CDF() (xs, cs []float64) {
	xs = make([]float64, len(h.counts))
	cs = make([]float64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if i+1 < len(h.counts) {
			xs[i] = h.EdgeLo(i + 1)
		} else {
			xs[i] = h.hi
		}
		if h.total > 0 {
			cs[i] = float64(cum) / float64(h.total)
		}
	}
	return xs, cs
}
