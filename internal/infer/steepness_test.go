package infer

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestExamineSteepnessSharpVsDiffuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Sharp: 95% of samples at ~200µs, a thin uniform tail.
	sharp := make([]float64, 0, 2000)
	for i := 0; i < 1900; i++ {
		sharp = append(sharp, 200+rng.Float64()*2)
	}
	for i := 0; i < 100; i++ {
		sharp = append(sharp, 10+rng.Float64()*100000)
	}
	// Diffuse: log-uniform over 5 decades.
	diffuse := make([]float64, 0, 2000)
	for i := 0; i < 2000; i++ {
		diffuse = append(diffuse, math.Pow(10, 1+rng.Float64()*5))
	}
	rs, ok1 := ExamineSteepness(sharp)
	rd, ok2 := ExamineSteepness(diffuse)
	if !ok1 || !ok2 {
		t.Fatal("examination failed")
	}
	if rs.Score <= rd.Score {
		t.Fatalf("sharp score %v should exceed diffuse %v", rs.Score, rd.Score)
	}
	// The sharp sample's rise must be located near 200µs.
	if rs.RiseMicros < 150 || rs.RiseMicros > 260 {
		t.Fatalf("rise at %vµs, want ~200µs", rs.RiseMicros)
	}
}

func TestExamineSteepnessDegenerate(t *testing.T) {
	if _, ok := ExamineSteepness(nil); ok {
		t.Fatal("empty sample must not examine")
	}
	if _, ok := ExamineSteepness([]float64{5}); ok {
		t.Fatal("single sample must not examine")
	}
	res, ok := ExamineSteepness([]float64{7, 7, 7, 7})
	if !ok {
		t.Fatal("identical samples should examine (infinitely steep)")
	}
	if res.RiseMicros != 7 || !math.IsInf(res.MaxDeriv, 1) {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestExamineSteepnessZeroAndNegativeClamped(t *testing.T) {
	// Zero inter-arrivals occur in real traces (same-timestamp
	// arrivals); log binning must survive them.
	samples := []float64{0, 0, 100, 100, 100, 100, 100, 200, 100000}
	res, ok := ExamineSteepness(samples)
	if !ok {
		t.Fatal("examination failed on zero-containing sample")
	}
	if math.IsNaN(res.Score) || math.IsNaN(res.RiseMicros) {
		t.Fatalf("NaN leaked: %+v", res)
	}
}

func TestNewCDFPointsThinning(t *testing.T) {
	big := make([]float64, 5000)
	for i := range big {
		big[i] = float64(i) // all distinct
	}
	xs, ys := newCDFPoints(big)
	if len(xs) > 512 {
		t.Fatalf("thinning failed: %d knots", len(xs))
	}
	if len(xs) != len(ys) {
		t.Fatal("mismatched lengths")
	}
	// Endpoints preserved.
	if xs[0] != 0 || xs[len(xs)-1] != 4999 {
		t.Fatalf("endpoints lost: [%v, %v]", xs[0], xs[len(xs)-1])
	}
	if ys[len(ys)-1] != 1 {
		t.Fatalf("final CDF value %v", ys[len(ys)-1])
	}
	// Below the cap every distinct value is a knot, carrying the share
	// of samples at or below it.
	xs, ys = newCDFPoints([]float64{3, 1, 2, 2})
	if !reflect.DeepEqual(xs, []float64{1, 2, 3}) || !reflect.DeepEqual(ys, []float64{0.25, 0.75, 1}) {
		t.Fatalf("knots of {3,1,2,2}: %v %v", xs, ys)
	}
}

func TestDedupePoints(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{0.1, 0.2, 0.3, 0.4}
	ox, oy := dedupePoints(xs, ys)
	if len(ox) != 3 || ox[1] != 2 || oy[2] != 0.4 {
		t.Fatalf("dedupe: %v %v", ox, oy)
	}
	ex, ey := dedupePoints(nil, nil)
	if len(ex) != 0 || len(ey) != 0 {
		t.Fatal("empty dedupe broken")
	}
}

func TestUtmostOutlierIsSpike(t *testing.T) {
	// One bucket holds 60% of mass; Algorithm 1's utmost outlier must
	// land on it.
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 0, 1000)
	for i := 0; i < 600; i++ {
		samples = append(samples, 1000+rng.Float64()*10)
	}
	for i := 0; i < 400; i++ {
		samples = append(samples, math.Pow(10, rng.Float64()*6))
	}
	res, ok := ExamineSteepness(samples)
	if !ok {
		t.Fatal("failed")
	}
	if res.UtmostMicros < 800 || res.UtmostMicros > 1300 {
		t.Fatalf("utmost outlier at %v, want ~1000", res.UtmostMicros)
	}
}
