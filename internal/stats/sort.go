package stats

import (
	"math"
	"sort"
)

// radixMin is the length below which SortFloat64s hands the slice to
// sort.Float64s: on inter-arrival samples the two cross near 1,000
// values (≈ 26 µs each on a 2-CPU Xeon VM); below that the radix sort's
// six full passes cost more than the comparison sort saves.
const radixMin = 1024

// The radix sort takes a 64-bit key in six 11-bit digits (the last has
// 9 bits). Against eight 8-bit digits it saves two scatter passes, ≈ 20%
// on a 44k-sample group, and its 6×2048 uint32 counters still fit L1.
const (
	digitBits = 11
	digits    = (64 + digitBits - 1) / digitBits
	digitMask = 1<<digitBits - 1
)

// SortFloat64s sorts xs into increasing order in place. It is the one
// function in this package that mutates its argument.
//
// It is an LSD radix sort over an order-preserving uint64 key of each
// value: the sign bit is flipped for positives and every bit for
// negatives, so unsigned key order is numeric order from -Inf to +Inf.
// For every input without a NaN it yields exactly sort.Float64s's
// order, element by element under ==. The one pair == cannot tell
// apart is -0 and +0: the radix sort puts every -0 before every +0,
// where sort.Float64s, which holds them equal, leaves them in any
// order. Slices shorter than radixMin, and any slice holding a NaN, are
// sorted by sort.Float64s itself.
//
// scratch is reusable key space: SortFloat64s grows it to 2·len(xs)
// when it is shorter and returns it, so a caller sorting many slices
// passes back what the previous call returned. A nil scratch is fine.
func SortFloat64s(xs []float64, scratch []uint64) []uint64 {
	n := len(xs)
	if n < radixMin || uint64(n) > math.MaxUint32 {
		sort.Float64s(xs)
		return scratch
	}
	if cap(scratch) < 2*n {
		scratch = make([]uint64, 2*n)
	}
	keys, tmp := scratch[:n], scratch[n:2*n]
	// One pass builds every digit's histogram.
	var counts [digits][1 << digitBits]uint32
	for i, x := range xs {
		if x != x {
			sort.Float64s(xs)
			return scratch
		}
		k := math.Float64bits(x)
		k ^= uint64(int64(k)>>63) | 1<<63
		keys[i] = k
		counts[0][k&digitMask]++
		counts[1][k>>digitBits&digitMask]++
		counts[2][k>>(2*digitBits)&digitMask]++
		counts[3][k>>(3*digitBits)&digitMask]++
		counts[4][k>>(4*digitBits)&digitMask]++
		counts[5][k>>(5*digitBits)&digitMask]++
	}
	for d := range counts {
		c := &counts[d]
		shift := digitBits * uint(d)
		if c[keys[0]>>shift&digitMask] == uint32(n) {
			continue // every key shares this digit: the pass would be the identity
		}
		var sum uint32
		for b, v := range c {
			c[b] = sum
			sum += v
		}
		for _, k := range keys {
			b := k >> shift & digitMask
			tmp[c[b]] = k
			c[b]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		xs[i] = math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
	}
	return scratch
}
