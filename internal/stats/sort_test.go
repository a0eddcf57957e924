package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sameOrder reports the first index where got and want differ under ==,
// with NaN counted equal only to NaN; -1 when they agree.
func sameOrder(got, want []float64) int {
	for i := range want {
		if math.IsNaN(want[i]) {
			if !math.IsNaN(got[i]) {
				return i
			}
			continue
		}
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

func checkSort(t *testing.T, xs []float64, scratch []uint64) []uint64 {
	t.Helper()
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	got := append([]float64(nil), xs...)
	scratch = SortFloat64s(got, scratch)
	if i := sameOrder(got, want); i >= 0 {
		t.Fatalf("len %d: element %d is %v, sort.Float64s has %v", len(xs), i, got[i], want[i])
	}
	return scratch
}

// TestSortFloat64sMatchesSortPackage covers both sides of radixMin with
// the shapes the fit sorts (inter-arrival µs spanning decades, heavy
// duplication from quantized timestamps) and signed, degenerate ones,
// reusing one scratch buffer across calls as the examiners do.
func TestSortFloat64sMatchesSortPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var scratch []uint64
	for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 1000, 44256} {
		gens := map[string]func(int) float64{
			"exp-micros": func(int) float64 { return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7))) },
			"quantized":  func(int) float64 { return float64(rng.Intn(50)) / 1000 },
			"signed":     func(int) float64 { return rng.NormFloat64() * 1e3 },
			"constant":   func(int) float64 { return 7 },
			"descending": func(i int) float64 { return float64(n - i) },
			"extremes": func(i int) float64 {
				return [...]float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
					math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0, 1, -1}[i%9]
			},
		}
		for name, gen := range gens {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i)
			}
			t.Run(name, func(t *testing.T) { scratch = checkSort(t, xs, scratch) })
		}
	}
}

// TestSortFloat64sSignedZero states the one order the radix sort fixes
// that sort.Float64s leaves open: -0 sorts before +0, because its key
// (every bit of 0x8000000000000000 flipped) is 0x7fffffffffffffff and
// +0's (sign bit flipped) is 0x8000000000000000. The fit never sees the
// difference: a classifier sample is a time.Duration divided by
// time.Microsecond as float64, and an integer converts to +0, never -0,
// and +0 divided by a positive number stays +0.
func TestSortFloat64sSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	xs := make([]float64, 2*radixMin)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 0
		} else {
			xs[i] = negZero
		}
	}
	xs[0] = -1 // radixMin -0s, radixMin-1 +0s
	SortFloat64s(xs, nil)
	if xs[0] != -1 {
		t.Fatalf("xs[0] = %v, want -1", xs[0])
	}
	for i, x := range xs[1:] {
		neg := i < radixMin
		if x != 0 || math.Signbit(x) != neg {
			t.Fatalf("xs[%d] = %v (signbit %v), want every -0 before every +0", i+1, x, math.Signbit(x))
		}
	}
}

// FuzzSortFloat64s feeds arbitrary bit patterns — NaN, ±0, ±Inf,
// subnormals, negatives — tiled to a length on either side of radixMin,
// which makes runs of duplicates, and asserts sort.Float64s's order.
func FuzzSortFloat64s(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(bits(3, 1, 2), uint16(0))
	f.Add(bits(0, math.Copysign(0, -1), -1, 1), uint16(radixMin+3))
	f.Add(bits(math.NaN(), 5, -5), uint16(radixMin*2))
	f.Add(bits(math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64), uint16(radixMin-1))
	f.Add(bits(1e-3, 250.5, 250.5, 4e6, 17), uint16(5000))
	f.Fuzz(func(t *testing.T, data []byte, length uint16) {
		vals := make([]float64, 0, len(data)/8)
		for len(data) >= 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		if len(vals) == 0 {
			return
		}
		n := max(len(vals), int(length)%(8*radixMin))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = vals[i%len(vals)]
		}
		checkSort(t, xs, nil)
	})
}
