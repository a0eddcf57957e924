package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tc, ok := ParseTraceparent(valid)
	if !ok {
		t.Fatalf("valid traceparent rejected: %s", valid)
	}
	if tc.TraceID != "0af7651916cd43dd8448eb211c80319c" || tc.SpanID != "b7ad6b7169203331" {
		t.Fatalf("parsed %+v", tc)
	}
	if got := tc.Traceparent(); got != valid {
		t.Fatalf("round trip: %s", got)
	}
	// A future version may carry extra dash-separated fields.
	if _, ok := ParseTraceparent("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"); !ok {
		t.Fatal("future-version traceparent with extra field rejected")
	}

	for _, bad := range []string{
		"",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",      // no flags
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",   // all-zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",   // all-zero span id
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // forbidden version
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",   // uppercase hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x", // version 00 has no extra fields
		"00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // wrong separator
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("accepted malformed traceparent %q", bad)
		}
	}
}

func TestNewTraceContextValid(t *testing.T) {
	a, b := NewTraceContext(), NewTraceContext()
	if !a.Valid() || !b.Valid() {
		t.Fatalf("minted contexts invalid: %+v %+v", a, b)
	}
	if a.TraceID == b.TraceID {
		t.Fatal("minted trace IDs collide")
	}
	if _, ok := ParseTraceparent(a.Traceparent()); !ok {
		t.Fatalf("minted context does not round-trip: %s", a.Traceparent())
	}
}

func TestTracerSpanTree(t *testing.T) {
	parent := TraceContext{
		TraceID: "0af7651916cd43dd8448eb211c80319c",
		SpanID:  "b7ad6b7169203331",
	}
	tr := NewTracer("job-1 web_0", 64, parent)
	if got := tr.Context().TraceID; got != parent.TraceID {
		t.Fatalf("tracer did not join the parent trace: %s", got)
	}
	if tr.Context().SpanID == parent.SpanID {
		t.Fatal("root span reused the parent's span ID")
	}

	plan := tr.Start(tr.Root(), StagePlan)
	plan.SetAttr(AttrTokenWaitNS, 42)
	ep := tr.StartEpoch(tr.Root(), 0)
	dec := ep.Child(StageDecompose)
	dec.End()
	ep.End()
	plan.End()
	time.Sleep(time.Millisecond)
	tr.Finish()
	jt := tr.Snapshot()

	if jt.TraceID != parent.TraceID || jt.ParentSpanID != parent.SpanID {
		t.Fatalf("exported trace identity: %+v", jt)
	}
	if len(jt.Spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(jt.Spans))
	}
	root := jt.Spans[0]
	if root.Name != "job-1 web_0" || root.Parent != "" || root.ID != tr.Context().SpanID {
		t.Fatalf("root span: %+v", root)
	}
	if jt.DurationNS != root.EndNS-root.StartNS || jt.DurationNS < int64(time.Millisecond) {
		t.Fatalf("root duration %d ns does not cover the job", jt.DurationNS)
	}
	byName := map[string]SpanOut{}
	for _, s := range jt.Spans {
		byName[s.Name] = s
		if s.EndNS < s.StartNS {
			t.Fatalf("span %s ends before it starts: %+v", s.Name, s)
		}
		if s.EndNS > root.EndNS {
			t.Fatalf("span %s outlives the root: %+v", s.Name, s)
		}
	}
	if byName["plan"].Parent != root.ID || byName["epoch"].Parent != root.ID {
		t.Fatalf("top-level spans not parented on root: %+v", jt.Spans)
	}
	if byName["decompose"].Parent != byName["epoch"].ID {
		t.Fatalf("decompose not nested in its epoch: %+v", jt.Spans)
	}
	if byName["plan"].Attrs["token_wait_ns"] != 42 {
		t.Fatalf("plan attrs: %+v", byName["plan"].Attrs)
	}
	if byName["epoch"].Attrs["epoch"] != 0 {
		t.Fatalf("epoch attrs: %+v", byName["epoch"].Attrs)
	}
}

func TestTracerTraceIDOnlyParent(t *testing.T) {
	tr := NewTracer("restored", 0, TraceContext{TraceID: "0af7651916cd43dd8448eb211c80319c"})
	tr.Finish()
	jt := tr.Snapshot()
	if jt.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace ID not pinned: %s", jt.TraceID)
	}
	if jt.ParentSpanID != "" {
		t.Fatalf("parent span invented: %s", jt.ParentSpanID)
	}
}

// TestTracerNilSafety locks the disabled-hook contract: every method
// on a nil *Tracer and the zero Span is a safe no-op.
func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Context().Valid() {
		t.Fatal("nil tracer has a valid context")
	}
	s := tr.Root()
	if s != (Span{}) {
		t.Fatal("nil tracer's root claims to record")
	}
	s = tr.Start(s, JobSpanStream)
	s = tr.StartEpoch(s, 7)
	s = s.Child(StageMerge)
	s.SetAttr(AttrRequests, 1)
	s.End()
	tr.Finish()
	if jt := tr.Snapshot(); jt != nil {
		t.Fatalf("nil tracer snapshot %+v", jt)
	}
	var jtNil *JobTrace
	if got := jtNil.SlowestSpans(3); got != nil {
		t.Fatalf("nil JobTrace slowest spans: %v", got)
	}
	if got := SummarizeSpans(nil); got != "" {
		t.Fatalf("empty summary: %q", got)
	}
}

// TestTracerEpochSampling drives far more epochs than the buffer
// holds and checks the memory bound and the sampling spread.
func TestTracerEpochSampling(t *testing.T) {
	const capacity, epochs = 64, 10_000
	tr := NewTracer("long-job", capacity, TraceContext{})
	for i := 0; i < epochs; i++ {
		ep := tr.StartEpoch(tr.Root(), i)
		ep.End()
	}
	tr.Finish()
	jt := tr.Snapshot()

	if len(jt.Spans) > capacity {
		t.Fatalf("recorded %d spans, capacity %d", len(jt.Spans), capacity)
	}
	if jt.DroppedEpochs == 0 {
		t.Fatal("no epochs reported dropped")
	}
	var indexes []int64
	for _, s := range jt.Spans[1:] {
		indexes = append(indexes, s.Attrs["epoch"])
	}
	if int64(len(indexes))+jt.DroppedEpochs != epochs {
		t.Fatalf("recorded %d + dropped %d != %d epochs", len(indexes), jt.DroppedEpochs, epochs)
	}
	if indexes[0] != 0 {
		t.Fatalf("first epoch not recorded: %v", indexes)
	}
	// Stride doubling keeps later epochs represented instead of only
	// recording the first bufferful.
	if last := indexes[len(indexes)-1]; last <= capacity {
		t.Fatalf("sampling stopped at epoch %d — no spread over %d epochs", last, epochs)
	}
}

func TestTracerBufferFullDropsSpans(t *testing.T) {
	tr := NewTracer("tiny", 16, TraceContext{})
	for i := 0; i < 40; i++ {
		sp := tr.Start(tr.Root(), JobSpanStore)
		sp.End() // ending a dropped (zero) span must be safe
	}
	tr.Finish()
	jt := tr.Snapshot()
	if len(jt.Spans) != 16 {
		t.Fatalf("recorded %d spans, want the full capacity 16", len(jt.Spans))
	}
	if jt.DroppedSpans != 40-15 {
		t.Fatalf("dropped %d spans, want %d", jt.DroppedSpans, 40-15)
	}
}

func TestSlowestSpansAndSummary(t *testing.T) {
	jt := &JobTrace{Spans: []SpanOut{
		{ID: "1", Name: "root", StartNS: 0, EndNS: 100},
		{ID: "2", Name: "fast", StartNS: 0, EndNS: 10},
		{ID: "3", Name: "epoch", StartNS: 0, EndNS: 90_000, Attrs: map[string]int64{"epoch": 12}},
		{ID: "4", Name: "mid", StartNS: 0, EndNS: 50_000},
	}}
	top := jt.SlowestSpans(2)
	if len(top) != 2 || top[0].Name != "epoch" || top[1].Name != "mid" {
		t.Fatalf("slowest spans: %+v", top)
	}
	sum := SummarizeSpans(top)
	if !strings.Contains(sum, "epoch[12] 90µs") || !strings.Contains(sum, "mid 50µs") {
		t.Fatalf("summary: %q", sum)
	}
}

// TestTracerFinishFreezes pins what Finish leaves parked: every span
// still open (a failed job's) ends with the root, nothing recorded
// afterwards lands, the records are packed into one byte slice of its
// exact length with no record slice beside it, and every later
// Snapshot renders the same bytes.
func TestTracerFinishFreezes(t *testing.T) {
	tr := NewTracer("job-9 failed", 0, TraceContext{})
	stream := tr.Start(tr.Root(), JobSpanStream)
	ep := tr.StartEpoch(stream, 0)
	ep.SetAttr(AttrRequests, 512)
	dec := ep.Child(StageDecompose)
	dec.End()
	ep.Child(StageEmulate) // left open, as a failed job leaves it
	tr.Finish()
	first, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(2 * time.Millisecond)
	ep.End()
	ep.SetAttr(AttrEpoch, 7)
	tr.Start(stream, StageMerge).End()
	tr.StartEpoch(stream, 1)
	tr.Finish()
	jt := tr.Snapshot()
	again, err := json.Marshal(jt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatalf("a finished timeline moved:\n%s\n%s", first, again)
	}

	root := jt.Spans[0]
	if len(jt.Spans) != 5 || jt.DroppedSpans != 0 || jt.DroppedEpochs != 0 {
		t.Fatalf("finished timeline: %+v", jt)
	}
	for _, s := range jt.Spans {
		if s.Name != StageDecompose.String() && s.EndNS != root.EndNS {
			t.Errorf("open span %s ends at %d, not with the root at %d", s.Name, s.EndNS, root.EndNS)
		}
	}
	if tr.spans != nil || tr.attrs != nil || len(tr.parked) == 0 || cap(tr.parked) != len(tr.parked) {
		t.Fatalf("parked tracer holds spans %d/%d, attrs %d/%d, packed %d/%d B; want only the packed bytes, at their exact length",
			len(tr.spans), cap(tr.spans), len(tr.attrs), cap(tr.attrs), len(tr.parked), cap(tr.parked))
	}
}

// TestTracerConcurrentSnapshot renders a live tracer while stage
// goroutines record into it, as the engine's workers do, and then
// checks that every span they recorded landed whole.
func TestTracerConcurrentSnapshot(t *testing.T) {
	tr := NewTracer("live", 0, TraceContext{})
	const workers, epochs = 4, 100
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range epochs {
				ep := tr.StartEpoch(tr.Root(), w*epochs+i)
				ep.SetAttr(AttrRequests, 1)
				ep.Child(StageDecompose).End()
				ep.End()
			}
		}()
	}
	for range epochs {
		if jt := tr.Snapshot(); len(jt.Spans) == 0 {
			t.Fatal("live snapshot lost the root")
		}
	}
	wg.Wait()
	tr.Finish()
	jt := tr.Snapshot()
	if len(jt.Spans) != 1+2*workers*epochs {
		t.Fatalf("recorded %d spans, want %d", len(jt.Spans), 1+2*workers*epochs)
	}
	for _, s := range jt.Spans[1:] {
		if s.Name == SpanEpoch.String() && len(s.Attrs) != 2 {
			t.Fatalf("epoch span lost attributes: %+v", s)
		}
	}
}
