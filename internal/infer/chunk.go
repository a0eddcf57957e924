package infer

import (
	"slices"
	"unsafe"
)

// chunkLen is the number of values in a full chunk: 1 KiB of gaps,
// 2 KiB of escapes. A chunk's table entry costs 24 bytes, 2.3% of a
// chunk of gaps.
const chunkLen = 256

// firstLen is the capacity a list's first chunk is made with. The first
// chunk doubles as the list grows until it holds chunkLen values, so a
// list of n values holds room for at most max(2n, firstLen) of them
// until then, and at most one part-filled chunk after: a group of one
// sample costs 8 bytes of gaps, not a whole chunk.
const firstLen = 2

// chunkList is a sequence of values held in chunks, each as long as the
// values it holds; value i is chunks[i/chunkLen][i%chunkLen]. The first
// chunk is grown by doubling; every later one is made full-size.
type chunkList[T uint32 | int64] struct {
	chunks [][]T
}

// len returns the number of values in l.
func (l *chunkList[T]) len() int {
	k := len(l.chunks)
	if k == 0 {
		return 0
	}
	return (k-1)*chunkLen + len(l.chunks[k-1])
}

func (l *chunkList[T]) push(v T) {
	k := len(l.chunks) - 1
	switch {
	case k < 0:
		l.chunks = append(l.chunks, make([]T, 0, firstLen))
		k = 0
	case len(l.chunks[k]) == chunkLen:
		l.chunks = append(l.chunks, make([]T, 0, chunkLen))
		k++
	case len(l.chunks[k]) == cap(l.chunks[k]): // the first chunk, still growing
		grown := make([]T, len(l.chunks[k]), min(2*cap(l.chunks[k]), chunkLen))
		copy(grown, l.chunks[k])
		l.chunks[k] = grown
	}
	l.chunks[k] = append(l.chunks[k], v)
}

// bytes returns what l holds: its chunks and its table.
func (l *chunkList[T]) bytes() int64 {
	n := int64(cap(l.chunks)) * int64(unsafe.Sizeof([]T(nil)))
	for _, ch := range l.chunks {
		n += int64(cap(ch)) * int64(unsafe.Sizeof(T(0)))
	}
	return n
}

// at returns value i.
func (l *chunkList[T]) at(i int) T { return l.chunks[i/chunkLen][i%chunkLen] }

// appendTo appends l's values to dst in order.
func (l *chunkList[T]) appendTo(dst []T) []T {
	for _, ch := range l.chunks {
		dst = append(dst, ch...)
	}
	return dst
}

// The run sort takes a gap in three digits of 11, 11 and 10 bits.
const (
	digitBits = 11
	digits    = 3
	digitMask = 1<<digitBits - 1
)

// sortRun returns the n values of g in increasing order in x.buf[:n]:
// an LSD radix sort whose passes alternate between x.buf and g's own
// chunks, so it needs 4 bytes of scratch a sample. A pass whose digit
// every value shares is skipped. g is left holding the same values in
// another order.
func (x *examiner) sortRun(g *chunkList[uint32]) []uint32 {
	n := g.len()
	x.buf = slices.Grow(x.buf[:0], n)[:n]
	buf := x.buf
	// One pass builds every digit's histogram.
	var counts [digits][1 << digitBits]uint32
	var first uint32
	for i, vs := range g.chunks {
		if i == 0 {
			first = vs[0]
		}
		for _, v := range vs {
			counts[0][v&digitMask]++
			counts[1][v>>digitBits&digitMask]++
			counts[2][v>>(2*digitBits)]++
		}
	}
	inBuf := false // where the values are now: g's chunks or buf
	for d := range counts {
		c := &counts[d]
		shift := digitBits * uint(d)
		if c[first>>shift&digitMask] == uint32(n) {
			continue // every value shares this digit: the pass would be the identity
		}
		var sum uint32
		for b, v := range c {
			c[b] = sum
			sum += v
		}
		if inBuf {
			for _, v := range buf {
				b := v >> shift & digitMask
				k := c[b]
				g.chunks[k/chunkLen][k%chunkLen] = v
				c[b]++
			}
		} else {
			for _, vs := range g.chunks {
				for _, v := range vs {
					b := v >> shift & digitMask
					buf[c[b]] = v
					c[b]++
				}
			}
		}
		inBuf = !inBuf
	}
	if !inBuf {
		g.appendTo(buf[:0])
	}
	return buf
}
