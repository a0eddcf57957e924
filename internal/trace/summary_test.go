package trace

import (
	"bytes"
	"math"
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

// TestSummarizerMatchesTraceMethods locks the one-pass summary to the
// whole-trace accessor methods.
func TestSummarizerMatchesTraceMethods(t *testing.T) {
	tr := summarySample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(NewCSVDecoder(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests != int64(tr.Len()) {
		t.Fatalf("requests: %d want %d", sum.Requests, tr.Len())
	}
	if sum.Duration() != tr.Duration() {
		t.Fatalf("duration: %v want %v", sum.Duration(), tr.Duration())
	}
	if sum.TotalBytes != tr.TotalBytes() {
		t.Fatalf("bytes: %d want %d", sum.TotalBytes, tr.TotalBytes())
	}
	if sum.ReadFraction() != tr.ReadFraction() {
		t.Fatalf("read fraction: %v want %v", sum.ReadFraction(), tr.ReadFraction())
	}
	if sum.SeqFraction() != tr.SeqFraction() {
		t.Fatalf("seq fraction: %v want %v", sum.SeqFraction(), tr.SeqFraction())
	}
	if sum.AvgRequestBytes() != tr.AvgRequestBytes() {
		t.Fatalf("avg bytes: %v want %v", sum.AvgRequestBytes(), tr.AvgRequestBytes())
	}
	if sum.Meta != tr.Meta() {
		t.Fatalf("meta: %+v want %+v", sum.Meta, tr.Meta())
	}

	// Inter-arrival moments against a direct computation.
	ia := tr.InterArrivalMicros()
	var mean, max float64
	for _, v := range ia {
		mean += v
		max = math.Max(max, v)
	}
	mean /= float64(len(ia))
	var m2 float64
	for _, v := range ia {
		m2 += (v - mean) * (v - mean)
	}
	std := math.Sqrt(m2 / float64(len(ia)))
	if math.Abs(sum.IntervalMeanUS-mean) > 1e-9 {
		t.Fatalf("ia mean: %v want %v", sum.IntervalMeanUS, mean)
	}
	if math.Abs(sum.IntervalStdUS-std) > 1e-6 {
		t.Fatalf("ia std: %v want %v", sum.IntervalStdUS, std)
	}
	if sum.IntervalMaxUS != max {
		t.Fatalf("ia max: %v want %v", sum.IntervalMaxUS, max)
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
	if s.Requests != 1 || s.Duration() != 0 || s.IntervalMeanUS != 0 || s.TotalBytes != 4*SectorSize {
		t.Fatalf("single summary: %+v", s)
	}
}
