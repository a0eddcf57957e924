package infer

import (
	"fmt"
	"math"

	"repro/internal/interp"
)

// Shape is the CDF taxonomy of paper Fig 5.
type Shape int

const (
	// ShapeGlobalMaxima: the CDF rises sharply once; its derivative
	// has a single dominant maximum (Fig 5a). Simple differential
	// analysis predicts Tslat directly.
	ShapeGlobalMaxima Shape = iota
	// ShapeChunkyMiddle: the CDF climbs smoothly with no pronounced
	// spike (Fig 5b).
	ShapeChunkyMiddle
	// ShapeMultiMaxima: the derivative exhibits two or more comparable
	// maxima (Fig 5c); per-group decomposition is required.
	ShapeMultiMaxima
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case ShapeGlobalMaxima:
		return "global-maxima"
	case ShapeChunkyMiddle:
		return "chunky-middle"
	case ShapeMultiMaxima:
		return "multi-maxima"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// ClassifyShape assigns one of the Fig 5 classes to an inter-arrival
// sample (µs). The analysis happens in log10(Tintt) space — the axes
// the paper plots CDFs on — so that modes decades apart compare on
// equal footing. The decision uses the interpolated CDF's derivative
// peaks: a peak within comparableFrac of the top peak counts as a
// second mode; a top peak that concentrates less than sharpFrac of the
// total rise across its neighbourhood is "chunky".
func ClassifyShape(inttMicros []float64) Shape {
	logs := make([]float64, 0, len(inttMicros))
	floor := math.Inf(1)
	for _, v := range inttMicros {
		if v > 0 && v < floor {
			floor = v
		}
	}
	if math.IsInf(floor, 1) {
		floor = 1
	}
	for _, v := range inttMicros {
		if v <= 0 {
			v = floor / 2
		}
		logs = append(logs, math.Log10(v))
	}
	xs, ys := dedupePoints(newCDFPoints(logs))
	if len(xs) < 3 {
		return ShapeGlobalMaxima
	}
	f, err := interp.PCHIP(xs, ys)
	if err != nil {
		return ShapeChunkyMiddle
	}
	px, _ := interp.LocalMaxima(f, 8, 16)
	if len(px) == 0 {
		return ShapeChunkyMiddle
	}
	// A "mode" is a derivative peak that concentrates real probability
	// mass: the CDF must rise by at least massFrac within a ±2.5%-of-
	// span window around it. Noise ripples in a smooth (chunky) CDF
	// fail this; the spikes of Fig 5a/5c pass it.
	span := xs[len(xs)-1] - xs[0]
	w := span * 0.025
	const massFrac = 0.2
	minSep := span / 20
	// Clamped evaluation: outside the support a CDF is 0 or 1; the
	// interpolant's boundary extrapolation must not leak in.
	at := func(x float64) float64 {
		if x <= xs[0] {
			return 0
		}
		if x >= xs[len(xs)-1] {
			return 1
		}
		return f.At(x)
	}
	var accepted []float64
	for _, x := range px {
		tooClose := false
		for _, a := range accepted {
			if math.Abs(x-a) < minSep {
				tooClose = true
				break
			}
		}
		if tooClose {
			continue
		}
		if rise := at(x+w) - at(x-w); rise >= massFrac {
			accepted = append(accepted, x)
		}
	}
	switch {
	case len(accepted) >= 2:
		return ShapeMultiMaxima
	case len(accepted) == 1:
		return ShapeGlobalMaxima
	default:
		return ShapeChunkyMiddle
	}
}
