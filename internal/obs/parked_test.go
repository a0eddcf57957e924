package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"slices"
	"testing"
)

// opReader hands out FuzzParkedTimeline's program: bytes and zigzag
// varints, zero once the input runs out.
type opReader struct{ b []byte }

func (r *opReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *opReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// fuzzTracer records the timeline ops describes into a tracer of the
// given capacity. Each op is a byte (its low two bits pick the kind)
// and its arguments:
//
//	0 start  parent, name, start delta: Start under span parent-1 (0:
//	         no parent), its start stamped at the previous span's plus
//	         the delta
//	1 epoch  parent, index, start delta: StartEpoch, stamped the same way
//	2 attr   span, key, value: SetAttr
//	3 end    span, end: the span's end, if it is still open
//
// Spans and attributes go through the tracer's own recording, so its
// capacity, epoch sampling and maxSpanAttrs apply; only the times are
// written directly, which lets them take any int64 value.
func fuzzTracer(capacity uint8, ops []byte) *Tracer {
	tr := NewTracer("fuzz", int(capacity), TraceContext{})
	r := &opReader{ops}
	pick := func() Span { return Span{t: tr, i: uint32(int(r.byte()) % len(tr.spans))} }
	stamp := func(s Span, delta int64) {
		if s.t != nil {
			tr.spans[s.i].start = tr.spans[s.i-1].start + delta
		}
	}
	for len(r.b) > 0 {
		switch r.byte() % 4 {
		case 0:
			var parent Span
			if p := int(r.byte()) % (len(tr.spans) + 1); p > 0 {
				parent = Span{t: tr, i: uint32(p - 1)}
			}
			s := tr.Start(parent, SpanName(r.byte()%byte(numSpanNames)))
			stamp(s, r.varint())
		case 1:
			parent := pick()
			s := tr.StartEpoch(parent, int(r.varint()))
			stamp(s, r.varint())
		case 2:
			pick().SetAttr(AttrKey(r.byte()%byte(numAttrKeys)), r.varint())
		case 3:
			s, end := pick(), r.varint()
			if tr.spans[s.i].end == 0 {
				tr.spans[s.i].end = end
			}
		}
	}
	return tr
}

// FuzzParkedTimeline holds a parked timeline to the one it froze: for
// any record set a tracer can hold, finishing at now packs records that
// unpack to exactly the recorded ones, with every open span ending at
// now, and the parked Snapshot renders the same JSON as the live
// tracer rendered at now.
//
//	go test -run '^$' -fuzz '^FuzzParkedTimeline$' -fuzztime 30s -fuzzminimizetime 2s ./internal/obs
func FuzzParkedTimeline(f *testing.F) {
	f.Fuzz(func(t *testing.T, capacity uint8, now int64, ops []byte) {
		tr := fuzzTracer(capacity, ops)
		wantSpans := slices.Clone(tr.spans)
		for i := range wantSpans {
			if wantSpans[i].end == 0 {
				wantSpans[i].end = now
			}
		}
		wantAttrs := slices.Clone(tr.attrs)
		tr.mu.Lock()
		live, err := json.Marshal(tr.renderLocked(tr.spans, tr.attrs, now))
		tr.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}

		tr.finishAt(now)
		tr.Finish()
		if tr.spans != nil || tr.attrs != nil || len(tr.parked) != cap(tr.parked) {
			t.Fatalf("parked tracer holds records beside its %d/%d packed bytes: %d spans, %d attrs",
				len(tr.parked), cap(tr.parked), len(tr.spans), len(tr.attrs))
		}
		spans, attrs := unpackRecords(tr.parked)
		if !slices.Equal(spans, wantSpans) {
			t.Fatalf("spans unpacked as\n%+v\nwant\n%+v", spans, wantSpans)
		}
		if !slices.Equal(attrs, wantAttrs) {
			t.Fatalf("attrs unpacked as\n%+v\nwant\n%+v", attrs, wantAttrs)
		}
		for range 2 {
			parked, err := json.Marshal(tr.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(parked, live) {
				t.Fatalf("parked timeline renders\n%s\nlive at finish\n%s", parked, live)
			}
		}
	})
}

// TestFlightRecorderBytes parks, replaces and evicts timelines and
// holds Bytes to the packed size of what the ring holds after each step.
func TestFlightRecorderBytes(t *testing.T) {
	small, big := flightTrace("small"), coldArrayBinTracer("big")
	s, b := len(small.parked), len(big.parked)
	if s == 0 || b <= s {
		t.Fatalf("packed sizes: small %d B, big %d B", s, b)
	}
	f := NewFlightRecorder(2, nil)
	for _, step := range []struct {
		do   func()
		want int
	}{
		{func() {}, 0},
		{func() { f.Add("job-1", small) }, s},
		{func() { f.Add("job-2", big) }, s + b},
		{func() { f.Add("job-1", big) }, 2 * b},   // replaced in place
		{func() { f.Add("job-3", small) }, b + s}, // evicts job-1
		{func() { f.Add("job-4", small) }, 2 * s}, // evicts job-2
	} {
		step.do()
		if got := f.Bytes(); got != step.want {
			t.Fatalf("ring of %d timelines holds %d B, want %d", f.Len(), got, step.want)
		}
	}
}
