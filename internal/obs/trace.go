package obs

// Per-job span tracing: a lock-cheap recorder in the same nil-safe
// hook idiom as EngineMetrics. A Tracer collects a bounded tree of
// spans (monotonic start/end, parent links, a few int64 attributes) for
// one job; components receive it through config pointers and call
// Start/Child/End without caring whether tracing is on. Every method
// tolerates a nil *Tracer and the zero Span, so the disabled path costs
// a nil check and no time.Now.
//
// Memory is hard-bounded and pointer-free: a span is a fixed-size
// record naming its parent, its name from the one vocabulary and its
// times, attributes are (span, key, value) records beside them, and no
// more than capacity spans are recorded, so a 100k-epoch job records
// O(cap) spans. Epoch spans go through StartEpoch, which samples —
// every stride-th epoch is recorded, and the stride doubles as the
// buffer fills — so early, middle and late epochs all survive in a long
// job. Children of an unsampled epoch get the zero Span and record
// nothing. Finish freezes the records and packs them into one byte
// slice of varints, ≈ 10 B a span against a record's 24 (≈ 10 KB for a
// 985-span job); the JobTrace a client reads is rendered from them only
// on request (Snapshot), which unpacks them first.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"
)

// TraceContext is a position in a W3C trace: the 16-byte trace ID and
// 8-byte span ID as lowercase hex. The zero value means "no incoming
// trace".
type TraceContext struct {
	TraceID string // 32 lowercase hex chars, not all zero
	SpanID  string // 16 lowercase hex chars, not all zero
}

// Valid reports whether tc carries a usable trace ID.
func (tc TraceContext) Valid() bool {
	return isHexID(tc.TraceID, 32) && isHexID(tc.SpanID, 16)
}

// Traceparent renders the W3C traceparent header value
// (version 00, sampled flag set).
func (tc TraceContext) Traceparent() string {
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. Unknown
// versions with the version-00 shape are accepted (per spec); all-zero
// IDs and malformed values are rejected.
func ParseTraceparent(s string) (TraceContext, bool) {
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	version, traceID, spanID := s[:2], s[3:35], s[36:52]
	if !isHexID(version, 2) || version == "ff" {
		return TraceContext{}, false
	}
	if len(s) > 55 && (version == "00" || s[55] != '-') {
		return TraceContext{}, false
	}
	if !isHexID(s[53:55], 2) {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: traceID, SpanID: spanID}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// isHexID reports whether s is exactly n lowercase hex chars and (for
// ID fields) not all zero.
func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return n == 2 || !zero
}

// NewTraceContext mints a fresh random trace position.
func NewTraceContext() TraceContext {
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion never happens on the platforms we run on,
		// but an all-zero ID would be invalid per spec.
		b[0], b[16] = 1, 1
	}
	return TraceContext{
		TraceID: hex.EncodeToString(b[:16]),
		SpanID:  hex.EncodeToString(b[16:]),
	}
}

// spanRec is the recorded form of a span, 24 bytes with no pointer in
// it. The span's ID is implicit, its index in Tracer.spans plus one.
type spanRec struct {
	parent uint32   // the parent's ID; 0 = no parent (the root span)
	name   SpanName // unused on the root, which carries Tracer.name
	nattrs uint8    // the span's records in Tracer.attrs
	start  int64    // ns since Tracer start
	end    int64    // 0 while open
}

// attrRec is one span attribute, 16 bytes with no pointer in it. Values
// are int64 — counts, indexes, nanosecond durations — so recording one
// never allocates beyond the slice's growth.
type attrRec struct {
	span uint32 // index in Tracer.spans
	key  AttrKey
	val  int64
}

// maxSpanAttrs bounds the attributes one span records; pairs beyond it
// are dropped.
const maxSpanAttrs = 4

// Span is a handle to one recorded span. The zero value is a no-op:
// every method is safe and free on it, which is how unsampled epochs
// and disabled tracers cost nothing downstream.
type Span struct {
	t *Tracer
	i uint32 // index in t.spans
}

// Child starts a span parented under s, no-op if s is.
func (s Span) Child(name SpanName) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.Start(s, name)
}

// End closes the span at the current time. Idempotent: the first End
// wins, so a deferred safety End after an explicit one is harmless.
func (s Span) End() {
	if s.t == nil {
		return
	}
	now := int64(time.Since(s.t.start))
	s.t.mu.Lock()
	if !s.t.frozen && s.t.spans[s.i].end == 0 {
		s.t.spans[s.i].end = now
	}
	s.t.mu.Unlock()
}

// SetAttr attaches a key/value pair. A span carries at most
// maxSpanAttrs pairs; pairs beyond them are dropped.
func (s Span) SetAttr(key AttrKey, v int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if !s.t.frozen {
		s.t.setAttrLocked(s.i, key, v)
	}
	s.t.mu.Unlock()
}

// DefaultTracerCapacity bounds a job's span count when the caller
// doesn't choose: enough for the full fixed stages plus a few
// thousand sampled epochs.
const DefaultTracerCapacity = 4096

// epochReserve is the headroom StartEpoch demands before recording an
// epoch, so the epoch's per-stage children (decompose, service,
// emulate, merge) still fit in the buffer after the epoch span does.
const epochReserve = 8

// Tracer records one job's span tree. Create with NewTracer, hand to
// the engine/daemon via config pointers, Finish when the job ends, and
// Snapshot for the exportable tree. All methods are safe on a nil
// receiver (recording disabled) and safe for concurrent use.
type Tracer struct {
	mu            sync.Mutex
	ctx           TraceContext
	parentSpan    string // incoming traceparent span ID, if any
	name          string // the root span's name
	start         time.Time
	capacity      int       // the most spans recorded; written once in NewTracer
	spans         []spanRec // spans[0] is the root; nil once parked. guarded by mu
	attrs         []attrRec // nil once parked. guarded by mu
	parked        []byte    // spans and attrs packed by Finish. guarded by mu
	stride        int       // guarded by mu
	droppedSpans  int64     // guarded by mu
	droppedEpochs int64     // guarded by mu
	frozen        bool      // set by Finish: nothing records after it. guarded by mu
}

// NewTracer starts a trace for one job. capacity bounds the recorded
// span count (<= 0 means DefaultTracerCapacity). If parent carries a
// valid trace ID the job joins that trace (and when it also names a
// span, the root span records it as its parent — a trace-ID-only
// parent, e.g. one restored from a journal, just pins the trace ID);
// otherwise a fresh trace ID is minted. The root span is open on
// return; Finish closes it.
func NewTracer(name string, capacity int, parent TraceContext) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	if capacity < 16 {
		capacity = 16
	}
	ctx := NewTraceContext()
	parentSpan := ""
	if isHexID(parent.TraceID, 32) {
		ctx.TraceID = parent.TraceID
		if isHexID(parent.SpanID, 16) {
			parentSpan = parent.SpanID
		}
	}
	t := &Tracer{
		ctx:        ctx,
		parentSpan: parentSpan,
		name:       name,
		start:      time.Now(),
		capacity:   capacity,
		stride:     1,
	}
	t.mu.Lock()
	t.startLocked(Span{}, 0)
	t.mu.Unlock()
	return t
}

// Context returns the trace position of the job's root span — what a
// response traceparent should carry.
func (t *Tracer) Context() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	return t.ctx
}

// Root returns the job root span (the zero Span on a nil tracer).
func (t *Tracer) Root() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t}
}

// Start opens a span under parent (use Root() for top-level phases).
// Returns the zero Span when the buffer is full, the tracer finished or
// t is nil.
func (t *Tracer) Start(parent Span, name SpanName) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	s := t.startLocked(parent, name)
	t.mu.Unlock()
	return s
}

// startLocked appends the span record; the caller holds t.mu.
//
//tracelint:holds mu
func (t *Tracer) startLocked(parent Span, name SpanName) Span {
	if t.frozen {
		return Span{}
	}
	if len(t.spans) == t.capacity {
		t.droppedSpans++
		return Span{}
	}
	var pid uint32
	if parent.t != nil {
		pid = parent.i + 1
	}
	t.spans = append(t.spans, spanRec{
		parent: pid,
		name:   name,
		start:  int64(time.Since(t.start)),
	})
	return Span{t: t, i: uint32(len(t.spans) - 1)}
}

// setAttrLocked records one attribute of span i; the caller holds t.mu.
//
//tracelint:holds mu
func (t *Tracer) setAttrLocked(i uint32, key AttrKey, v int64) {
	if rec := &t.spans[i]; rec.nattrs < maxSpanAttrs {
		rec.nattrs++
		t.attrs = append(t.attrs, attrRec{span: i, key: key, val: v})
	}
}

// StartEpoch opens a sampled epoch span under parent, carrying the
// epoch index as an attribute. Epochs are recorded every stride-th
// index, and the stride doubles whenever the buffer passes 3/4 full,
// so arbitrarily long jobs keep a spread of epochs within the fixed
// capacity. Unsampled epochs return the zero Span — their per-stage
// children then record nothing, at nil-check cost.
func (t *Tracer) StartEpoch(parent Span, index int) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return Span{}
	}
	if index%t.stride != 0 || len(t.spans)+epochReserve > t.capacity {
		t.droppedEpochs++
		return Span{}
	}
	if 4*len(t.spans) >= 3*t.capacity {
		t.stride *= 2
	}
	s := t.startLocked(parent, SpanEpoch)
	if s.t != nil {
		t.setAttrLocked(s.i, AttrEpoch, int64(index))
	}
	return s
}

// Finish freezes the timeline. It closes the root and stamps every
// span still open (a failed job's epochs, say) with the same finish
// time, so the served timeline never drifts with the time it is read;
// it then packs the records into one slice of its exact length and
// drops them, so a parked tracer holds ≈ 10 B a span and no spare
// capacity. Nothing records after Finish, and Finish renders nothing:
// Snapshot does. Safe on a nil tracer; a second Finish is a no-op.
func (t *Tracer) Finish() {
	if t == nil {
		return
	}
	t.finishAt(int64(time.Since(t.start)))
}

// finishAt is Finish with the finish time given.
func (t *Tracer) finishAt(now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return
	}
	t.frozen = true
	for i := range t.spans {
		if t.spans[i].end == 0 {
			t.spans[i].end = now
		}
	}
	t.parked = packRecords(t.spans, t.attrs)
	t.spans, t.attrs = nil, nil
}

// parkedBytes returns the size of the packed timeline, 0 before Finish.
func (t *Tracer) parkedBytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.parked)
}

// packRecords encodes a frozen timeline: a uvarint span count; per
// span a uvarint parent distance (the span's ID minus its parent's, mod
// 2³², so a span with no parent stores its own ID), the name and
// attribute-count bytes, a zigzag-varint start delta from the previous
// span's start and a uvarint duration; then per attribute a
// zigzag-varint span delta from the previous attribute's span, the key
// byte and a zigzag-varint value. Every difference wraps, so any record
// set round-trips through unpackRecords. The result has no spare
// capacity.
func packRecords(spans []spanRec, attrs []attrRec) []byte {
	b := make([]byte, 0, 12*len(spans)+6*len(attrs)) // ≈ 10 B a span, 5 an attribute
	b = binary.AppendUvarint(b, uint64(len(spans)))
	var start int64
	for i, rec := range spans {
		b = binary.AppendUvarint(b, uint64(uint32(i+1)-rec.parent))
		b = append(b, byte(rec.name), rec.nattrs)
		b = binary.AppendVarint(b, rec.start-start)
		b = binary.AppendUvarint(b, uint64(rec.end-rec.start))
		start = rec.start
	}
	var span uint32
	for _, a := range attrs {
		b = binary.AppendVarint(b, int64(a.span)-int64(span))
		b = append(b, byte(a.key))
		b = binary.AppendVarint(b, a.val)
		span = a.span
	}
	return append(make([]byte, 0, len(b)), b...)
}

// unpackRecords decodes what packRecords encoded.
func unpackRecords(b []byte) ([]spanRec, []attrRec) {
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b)
		b = b[n:]
		return v
	}
	varint := func() int64 {
		v, n := binary.Varint(b)
		b = b[n:]
		return v
	}
	spans := make([]spanRec, uvarint())
	var start int64
	for i := range spans {
		rec := &spans[i]
		rec.parent = uint32(i+1) - uint32(uvarint())
		rec.name, rec.nattrs = SpanName(b[0]), b[1]
		b = b[2:]
		start += varint()
		rec.start = start
		rec.end = start + int64(uvarint())
	}
	var attrs []attrRec
	var span uint32
	for len(b) > 0 {
		span = uint32(int64(span) + varint())
		key := AttrKey(b[0])
		b = b[1:]
		attrs = append(attrs, attrRec{span: span, key: key, val: varint()})
	}
	return spans, attrs
}

// Snapshot renders the span tree. After Finish every call renders the
// same tree, unpacked from the parked records; before it, open spans
// (the root included) export with their duration so far.
func (t *Tracer) Snapshot() *JobTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		spans, attrs := unpackRecords(t.parked)
		return t.renderLocked(spans, attrs, 0)
	}
	return t.renderLocked(t.spans, t.attrs, int64(time.Since(t.start)))
}

// renderLocked builds the JobTrace of the given records, exporting a
// span still open as ending at now; the caller holds t.mu.
//
//tracelint:holds mu
func (t *Tracer) renderLocked(spans []spanRec, attrs []attrRec, now int64) *JobTrace {
	jt := &JobTrace{
		TraceID:       t.ctx.TraceID,
		ParentSpanID:  t.parentSpan,
		Name:          t.name,
		Start:         t.start,
		DroppedSpans:  t.droppedSpans,
		DroppedEpochs: t.droppedEpochs,
		Spans:         make([]SpanOut, len(spans)),
	}
	for i, rec := range spans {
		end := rec.end
		if end == 0 {
			end = now
		}
		out := &jt.Spans[i]
		*out = SpanOut{
			ID:      t.spanID(uint32(i) + 1),
			Name:    rec.name.String(),
			StartNS: rec.start,
			EndNS:   end,
		}
		if i == 0 {
			out.Name = t.name
		}
		if rec.parent != 0 {
			out.Parent = t.spanID(rec.parent)
		}
		if rec.nattrs > 0 {
			out.Attrs = make(map[string]int64, rec.nattrs)
		}
	}
	for _, a := range attrs {
		jt.Spans[a.span].Attrs[a.key.String()] = a.val
	}
	jt.DurationNS = jt.Spans[0].EndNS - jt.Spans[0].StartNS
	return jt
}

// spanID renders a span's wire ID. The root span carries the trace
// context's W3C span ID (so the echoed traceparent points at it);
// descendants use their sequence number.
func (t *Tracer) spanID(id uint32) string {
	if id == 1 {
		return t.ctx.SpanID
	}
	return fmt.Sprintf("%016x", id)
}

// JobTrace is one job's exported span tree: the JSON served by
// GET /v1/jobs/{id}/trace and the input to WriteChromeTrace.
type JobTrace struct {
	TraceID       string    `json:"trace_id"`
	ParentSpanID  string    `json:"parent_span_id,omitempty"`
	Name          string    `json:"name"`
	Start         time.Time `json:"start"`
	DurationNS    int64     `json:"duration_ns"`
	DroppedSpans  int64     `json:"dropped_spans,omitempty"`
	DroppedEpochs int64     `json:"dropped_epochs,omitempty"`
	Spans         []SpanOut `json:"spans"`
}

// SpanOut is one span in the exported tree. Times are nanoseconds
// relative to the trace start; the first span is always the job root.
type SpanOut struct {
	ID      string           `json:"id"`
	Parent  string           `json:"parent,omitempty"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// Duration returns the span's wall time.
func (s SpanOut) Duration() time.Duration {
	return time.Duration(s.EndNS - s.StartNS)
}

// SlowestSpans returns the k longest non-root spans, longest first —
// the payload of the daemon's slow-job log line.
func (jt *JobTrace) SlowestSpans(k int) []SpanOut {
	if jt == nil || len(jt.Spans) <= 1 || k <= 0 {
		return nil
	}
	spans := make([]SpanOut, len(jt.Spans)-1)
	copy(spans, jt.Spans[1:])
	sort.SliceStable(spans, func(i, j int) bool {
		return spans[i].Duration() > spans[j].Duration()
	})
	if len(spans) > k {
		spans = spans[:k]
	}
	return spans
}

// SummarizeSpans renders spans as "name dur; name dur" for log lines.
func SummarizeSpans(spans []SpanOut) string {
	var b []byte
	for i, s := range spans {
		if i > 0 {
			b = append(b, "; "...)
		}
		b = append(b, s.Name...)
		if v, ok := s.Attrs["epoch"]; ok {
			b = append(b, fmt.Sprintf("[%d]", v)...)
		}
		b = append(b, ' ')
		b = append(b, s.Duration().Round(time.Microsecond).String()...)
	}
	return string(b)
}
