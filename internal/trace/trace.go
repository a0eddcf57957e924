// Package trace defines the block-trace data model every stage of the
// TraceTracker pipeline consumes and produces, together with readers
// and writers for the on-disk formats the public trace corpora use
// (native CSV, MSRC-style CSV, SPC-1 ASCII) and a compact binary format
// for large reconstructed traces.
//
// A trace is an ordered sequence of block-layer requests. Timestamps
// are offsets from the start of the trace, stored as time.Duration
// (nanosecond resolution, which subsumes the microsecond resolution of
// every public corpus).
package trace

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// SectorSize is the logical block size all corpora use.
const SectorSize = 512

// Op is the I/O operation type of a block request.
type Op uint8

const (
	// Read transfers data from the device to the host.
	Read Op = iota
	// Write transfers data from the host to the device.
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// ParseOp converts the spellings found in public corpora ("R", "Read",
// "r", "0" / "W", "Write", "w", "1") into an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "R", "r", "Read", "READ", "read", "0":
		return Read, nil
	case "W", "w", "Write", "WRITE", "write", "1":
		return Write, nil
	default:
		return 0, fmt.Errorf("trace: unknown op %q", s)
	}
}

// Request is one block-layer I/O instruction.
type Request struct {
	// Arrival is when the request crossed the block layer, relative to
	// the start of the trace. This is the timestamp every corpus
	// records and the one inter-arrival analysis uses.
	Arrival time.Duration
	// Device identifies the disk/LUN within multi-device traces.
	Device uint32
	// LBA is the starting logical block address in sectors.
	LBA uint64
	// Sectors is the request length in 512-byte sectors.
	Sectors uint32
	// Op is Read or Write.
	Op Op
	// Latency is the device service time when the corpus records
	// completion events (MSPS/MSRC event-tracing style). Zero means
	// unknown (FIU style). The paper calls traces with this field
	// "Tsdev known".
	Latency time.Duration
	// Async marks requests known to have been issued without waiting
	// for the previous completion. Only synthetic traces carry ground
	// truth here; reconstruction infers it for real corpora.
	Async bool
}

// Bytes returns the request size in bytes.
func (r Request) Bytes() int64 { return int64(r.Sectors) * SectorSize }

// End returns the first LBA after the request, used for sequentiality
// detection.
func (r Request) End() uint64 { return r.LBA + uint64(r.Sectors) }

// Trace is an ordered block trace plus identifying metadata.
type Trace struct {
	// Name identifies the trace (e.g. "ikki-000").
	Name string
	// Workload is the workload family ("ikki", "MSNFS", ...).
	Workload string
	// Set is the corpus ("FIU", "MSPS", "MSRC").
	Set string
	// TsdevKnown records whether per-request Latency is populated.
	TsdevKnown bool
	// Requests in non-decreasing Arrival order.
	Requests []Request
}

// Errors returned by Validate.
var (
	ErrUnsorted  = errors.New("trace: requests not sorted by arrival")
	ErrZeroSize  = errors.New("trace: request with zero sectors")
	ErrNoRequest = errors.New("trace: empty trace")
)

// Validate checks the invariants the pipeline relies on: at least one
// request, non-decreasing arrivals, non-zero sizes. It is
// Summary.Validate over the trace, so a streamed input is held to the
// same rules.
func (t *Trace) Validate() error {
	return t.Summary().Validate()
}

// Summary folds the trace's requests into their one-pass
// characterization, exactly as Summarize folds a decoded stream: the
// whole-trace metrics (bytes, read and sequential fractions) are its
// methods.
func (t *Trace) Summary() Summary {
	acc := NewSummarizer()
	acc.AddBatch(t.Requests)
	return acc.Summary(t.Meta())
}

// Sort orders requests by arrival time (stable, preserving issue order
// of simultaneous requests).
func (t *Trace) Sort() {
	sort.SliceStable(t.Requests, func(i, j int) bool {
		return t.Requests[i].Arrival < t.Requests[j].Arrival
	})
}

// Clone deep-copies the trace.
func (t *Trace) Clone() *Trace {
	c := *t
	c.Requests = append([]Request(nil), t.Requests...)
	return &c
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }

// Duration returns the arrival-span of the trace (last arrival minus
// first arrival); zero for traces with fewer than two requests.
func (t *Trace) Duration() time.Duration {
	if len(t.Requests) < 2 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].Arrival - t.Requests[0].Arrival
}

// InterArrivals returns the n-1 inter-arrival times Tintt[i] =
// Arrival[i+1] - Arrival[i]. The paper's whole inference model operates
// on this series.
func (t *Trace) InterArrivals() []time.Duration {
	if len(t.Requests) < 2 {
		return nil
	}
	out := make([]time.Duration, len(t.Requests)-1)
	for i := 1; i < len(t.Requests); i++ {
		out[i-1] = t.Requests[i].Arrival - t.Requests[i-1].Arrival
	}
	return out
}

// Micros converts ds to float64 microseconds, the unit the paper plots
// inter-arrival times in everywhere.
func Micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	return out
}

// SeqFlags classifies each request as sequential (true) or random
// (false). Request i is sequential when it starts exactly where the
// previous request on the same device ended; the first request seen on
// a device is random by convention. This matches the block-level
// definition the paper's grouping step uses.
func (t *Trace) SeqFlags() []bool {
	return NewSeqState().AppendFlags(make([]bool, 0, len(t.Requests)), t.Requests)
}
