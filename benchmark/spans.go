package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. IDs start at 1; Parent 0 marks
// a root.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration // since the recorder's origin
}

// recorder is the traced pass's span store: everything stays in memory
// until writeChrome, so recording costs two clock reads and an append.
type recorder struct {
	workload string
	origin   time.Time
	reps     int
	spans    []span
}

func newRecorder(workload string, reps int) *recorder {
	return &recorder{workload: workload, origin: time.Now(), reps: reps}
}

func (r *recorder) start(parent int, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: time.Since(r.origin)})
	return len(r.spans)
}

func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = time.Since(r.origin)
	return s.End - s.Start
}

// timed runs op r.reps times, each under its own span named name, and
// returns the median span duration. prep, when non-nil, runs before
// each repetition outside the span (fresh devices, scratch copies).
func (r *recorder) timed(parent int, name string, prep func(), op func() error) (time.Duration, error) {
	durs := make([]float64, 0, r.reps)
	for i := 0; i < r.reps; i++ {
		if prep != nil {
			prep()
		}
		id := r.start(parent, name)
		err := op()
		durs = append(durs, float64(r.end(id)))
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(median(durs)), nil
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func (r *recorder) writeChrome(path string) error {
	doc := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(r.spans))}
	for _, s := range r.spans {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": r.workload},
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}
