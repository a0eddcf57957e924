package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// summarySample is a sorted trace with a mix of ops, devices and a
// sequential run.
func summarySample() *Trace {
	return &Trace{
		Name: "sum", Workload: "w", Set: "FIU", TsdevKnown: true,
		Requests: []Request{
			{Arrival: 0, Device: 0, LBA: 100, Sectors: 8, Op: Read, Latency: 90 * time.Microsecond},
			{Arrival: 500 * time.Microsecond, Device: 0, LBA: 108, Sectors: 8, Op: Read},
			{Arrival: time.Millisecond, Device: 1, LBA: 50, Sectors: 16, Op: Write},
			{Arrival: 4 * time.Millisecond, Device: 0, LBA: 116, Sectors: 32, Op: Write},
			{Arrival: 10 * time.Millisecond, Device: 1, LBA: 9999, Sectors: 1, Op: Read},
		},
	}
}

// TestSummarizerMatchesTraceMethods locks the summary of a decoded
// stream to the same fold over the trace in memory, and to its
// Duration and Meta.
func TestSummarizerMatchesTraceMethods(t *testing.T) {
	tr := summarySample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(newSeq(t, "csv", buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests != int64(tr.Len()) {
		t.Fatalf("requests: %d want %d", sum.Requests, tr.Len())
	}
	if sum.Duration() != tr.Duration() {
		t.Fatalf("duration: %v want %v", sum.Duration(), tr.Duration())
	}
	if want := tr.Summary(); sum != want {
		t.Fatalf("summary: %+v want %+v", sum, want)
	}
	if sum.Meta != tr.Meta() {
		t.Fatalf("meta: %+v want %+v", sum.Meta, tr.Meta())
	}
}

// TestSummarizerSmall covers the zero- and one-request edges.
func TestSummarizerSmall(t *testing.T) {
	empty := NewSummarizer().Summary(Meta{})
	if empty.Requests != 0 || empty.Duration() != 0 || empty.ReadFraction() != 0 ||
		empty.SeqFraction() != 0 || empty.AvgRequestBytes() != 0 {
		t.Fatalf("empty summary: %+v", empty)
	}
	one := NewSummarizer()
	one.AddBatch([]Request{{Arrival: time.Second, LBA: 1, Sectors: 4, Op: Write}})
	s := one.Summary(Meta{})
	if s.Requests != 1 || s.Duration() != 0 || s.TotalBytes != 4*SectorSize {
		t.Fatalf("single summary: %+v", s)
	}
}

// TestSummarizerBatchSplit folds one stream, unsorted in places and
// with a zero-size request, whole and in runs of every length: the fold
// keeps its counters in locals per batch, so the summary must not
// depend on where the batches break.
func TestSummarizerBatchSplit(t *testing.T) {
	rs := []Request{
		{Arrival: 5 * time.Millisecond, LBA: 8, Sectors: 8, Op: Read},
		{Arrival: 7 * time.Millisecond, LBA: 16, Sectors: 8, Op: Read},
		{Arrival: 2 * time.Millisecond, LBA: 100, Sectors: 4, Op: Write},
		{Arrival: 9 * time.Millisecond, LBA: 104, Sectors: 0, Op: Write},
		{Arrival: 11 * time.Millisecond, LBA: 200, Sectors: 16, Op: Read},
		{Arrival: 1 * time.Millisecond, LBA: 216, Sectors: 8, Op: Read},
	}
	whole := NewSummarizer()
	whole.AddBatch(rs)
	want := whole.Summary(Meta{})
	if want.MinArrival != time.Millisecond || want.MaxArrival != 11*time.Millisecond ||
		want.Reads != 4 || want.Requests != 6 {
		t.Fatalf("whole-stream summary: %+v", want)
	}
	if err := want.Validate(); !errors.Is(err, ErrUnsorted) || !strings.Contains(err.Error(), "index 2") {
		t.Fatalf("whole-stream validation: %v", err)
	}
	for n := 1; n < len(rs); n++ {
		acc := NewSummarizer()
		for i := 0; i < len(rs); i += n {
			acc.AddBatch(rs[i:min(i+n, len(rs))])
		}
		if got := acc.Summary(Meta{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("runs of %d: %+v, want %+v", n, got, want)
		}
	}
}
