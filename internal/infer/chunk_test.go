package infer

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzSortRun feeds arbitrary uint32 gaps — the escape sentinel, digit
// boundaries, values that share one or two of the sort's digits — tiled
// to a length of up to a few chunks, which makes runs of duplicates, and
// asserts slices.Sort's order. The run's chunks must be left holding
// the same values, and a second sort with the same examiner must agree.
func FuzzSortRun(f *testing.F) {
	vals := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f.Add(vals(3, 1, 2), uint16(0))
	f.Add(vals(escape, 0, escape-1, 1<<22, 1<<11), uint16(chunkLen+3))
	f.Add(vals(7, 7), uint16(3*chunkLen))                     // every pass is the identity
	f.Add(vals(5, 2047, 1, 2046), uint16(2*chunkLen-1))       // one pass: the low digit
	f.Add(vals(1e3, 250_500, 250_500, 4e9, 17), uint16(5000)) // three passes
	f.Fuzz(func(t *testing.T, data []byte, length uint16) {
		var vs []uint32
		for ; len(data) >= 4; data = data[4:] {
			vs = append(vs, binary.LittleEndian.Uint32(data))
		}
		if len(vs) == 0 {
			return
		}
		var l chunkList[uint32]
		want := make([]uint32, max(len(vs), int(length)%(8*chunkLen)))
		for i := range want {
			want[i] = vs[i%len(vs)]
			l.push(want[i])
		}
		slices.Sort(want)
		var x examiner
		for pass := range 2 {
			if got := x.sortRun(&l); !slices.Equal(got, want) {
				t.Fatalf("sort %d of %d values differs from slices.Sort", pass, len(want))
			}
			if held := slices.Sorted(slices.Values(l.appendTo(nil))); !slices.Equal(held, want) {
				t.Fatalf("sort %d left the run holding other values", pass)
			}
		}
	})
}
