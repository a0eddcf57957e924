package main

import (
	"math"
	"sort"
)

// Verdicts, in the vocabulary the benchmark's bounds are read in.
const (
	better     = "better"
	worse      = "worse"
	noise      = "within noise"
	unresolved = "unresolved"
)

// metricDef is one metric of BENCHMARK.json: its direction and, for an
// end-to-end metric, the share of the base's median by which the
// change may worsen it (0 for a per-layer metric, which has none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// summary is one metric over the completed pairs.
type summary struct {
	Metric       string  `json:"metric"`
	Unit         string  `json:"unit"`
	Better       string  `json:"better"`
	Bound        float64 `json:"bound,omitempty"`
	Pairs        int     `json:"pairs"`
	BaseMedian   float64 `json:"base_median"`
	BaseIQR      float64 `json:"base_iqr"`
	ChangeMedian float64 `json:"change_median"`
	ChangeIQR    float64 `json:"change_iqr"`
	Wins         int     `json:"wins"`
	Ratio        float64 `json:"ratio"`
	Verdict      string  `json:"verdict"`
}

// median of vs; vs is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// iqr is the distance between the quartiles of vs.
func iqr(vs []float64) float64 { return quantile(vs, 0.75) - quantile(vs, 0.25) }

// quantile interpolates linearly between the order statistics of vs
// (the definition numpy and R's type 7 use); 0 for an empty vs.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// minMove is the least move, as a share of the base's median, that
// earns a better or worse verdict without a bound to judge by: below
// it the printed ratio reads 1.000, and a consistent move that small
// (a few bytes of a per-cycle byte count) says nothing.
const minMove = 0.001

// minPairs is the fewest completed pairs that earn a better or worse
// verdict, the project's evidence bar: three pairs can all lose by chance.
const minPairs = 10

// judge summarizes one metric over paired values (base[i] and
// change[i] come from pair i). The change wins a pair when its value
// is better than the base's in the metric's direction. The verdict,
// by the rule benchmark/compare.go's verdict applies to two files:
//   - unresolved: fewer than minPairs pairs, whatever they read; or
//     either side's IQR, as a share of its median, is wider than the
//     bound, so a move of the bound's size cannot be told, unless every
//     change value beats every base value;
//   - worse: the change's median is worse than the base's by more than
//     the bound, or, for a metric with no bound, it loses at least nine
//     in ten pairs and its median is worse by more than the base's IQR
//     and by more than minMove;
//   - better: the change wins at least nine in ten pairs and its median
//     is better by more than the base's IQR and by more than minMove;
//   - within noise otherwise.
func judge(d metricDef, base, change []float64) summary {
	s := summary{Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Pairs: len(base),
		BaseMedian: median(base), BaseIQR: iqr(base), ChangeMedian: median(change), ChangeIQR: iqr(change)}
	sign := 1.0 // gain = sign * (change - base)
	if d.Better == "lower" {
		sign = -1
	}
	losses := 0
	for i := range base {
		switch g := sign * (change[i] - base[i]); {
		case g > 0:
			s.Wins++
		case g < 0:
			losses++
		}
	}
	if s.BaseMedian != 0 {
		s.Ratio = s.ChangeMedian / s.BaseMedian
	}
	gain := sign * (s.ChangeMedian - s.BaseMedian)
	need := int(math.Ceil(0.9 * float64(s.Pairs)))
	// The least median move that can be told from the base's spread.
	told := math.Max(s.BaseIQR, minMove*math.Abs(s.BaseMedian))
	wide := relative(s.BaseIQR, s.BaseMedian) > d.Bound || relative(s.ChangeIQR, s.ChangeMedian) > d.Bound
	switch {
	case s.Pairs < minPairs, d.Bound > 0 && wide && !separated(sign, base, change):
		s.Verdict = unresolved
	case d.Bound > 0 && relative(-gain, s.BaseMedian) > d.Bound:
		s.Verdict = worse
	case s.Wins >= need && gain > told:
		s.Verdict = better
	case d.Bound == 0 && losses >= need && -gain > told:
		s.Verdict = worse
	default:
		s.Verdict = noise
	}
	return s
}

// separated reports whether every change value beats every base value
// in the direction sign gives (+1: higher is better).
func separated(sign float64, base, change []float64) bool {
	for _, b := range base {
		for _, c := range change {
			if sign*(c-b) <= 0 {
				return false
			}
		}
	}
	return true
}

// relative is x as a share of the magnitude of ref; when ref is 0, any
// positive x is an infinite share and any other none.
func relative(x, ref float64) float64 {
	if ref == 0 {
		if x > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return x / math.Abs(ref)
}
