package trace

// One-pass characterization: Summarizer folds a request stream into
// the whole-trace metrics tracestat prints and the corpus store
// records in its sidecars, without materializing the trace.
// Trace.Summary is the same fold over a trace in memory.

import (
	"fmt"
	"time"
)

// Summary is the one-pass characterization of a request stream. The
// order-sensitive metrics (sequential fraction, the sortedness check)
// are computed in stream order: over OpenFileDecoder that is arrival
// order, the near-sorted corpora (msrc/spc) included.
type Summary struct {
	// Meta is the stream metadata observed by the decoder.
	Meta Meta
	// Requests is the record count.
	Requests int64
	// MinArrival/MaxArrival bound the arrivals seen.
	MinArrival, MaxArrival time.Duration
	// TotalBytes is the sum of request sizes.
	TotalBytes int64
	// Reads and Seq count read and sequential requests.
	Reads, Seq int64

	// invalid is the first invariant the stream broke (ErrZeroSize or
	// ErrUnsorted), at request index invalidAt.
	invalid   error
	invalidAt int64
}

// Validate checks the invariants the pipeline relies on over the
// stream as folded: at least one request, non-zero sizes,
// non-decreasing arrivals in stream order. The error names the first
// offending index.
func (s Summary) Validate() error {
	if s.Requests == 0 {
		return ErrNoRequest
	}
	if s.invalid != nil {
		return fmt.Errorf("%w (index %d)", s.invalid, s.invalidAt)
	}
	return nil
}

// Duration returns the arrival span, zero below two requests —
// matching Trace.Duration on sorted input (Trace.Duration is last minus
// first arrival, so the two differ on unsorted input).
func (s Summary) Duration() time.Duration {
	if s.Requests < 2 {
		return 0
	}
	return s.MaxArrival - s.MinArrival
}

// ReadFraction returns the fraction of read requests.
func (s Summary) ReadFraction() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Requests)
}

// SeqFraction returns the fraction of sequential requests.
func (s Summary) SeqFraction() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Seq) / float64(s.Requests)
}

// AvgRequestBytes returns the mean request size in bytes.
func (s Summary) AvgRequestBytes() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.TotalBytes) / float64(s.Requests)
}

// Summarizer accumulates a Summary incrementally (O(1) memory beyond
// the per-device sequentiality map).
type Summarizer struct {
	sum   Summary
	seq   *SeqState
	prev  time.Duration
	flags []bool // AddBatch's result, reused across calls
}

// NewSummarizer returns an empty accumulator.
func NewSummarizer() *Summarizer {
	return &Summarizer{seq: NewSeqState()}
}

// AddBatch folds a run of consecutive requests into the summary and
// returns their sequentiality flags, so a consumer folding something
// else over the same stream (corpus ingest's model fit) need not track
// them twice. The flags are valid until the next call.
//
//tracelint:hotpath
func (a *Summarizer) AddBatch(rs []Request) []bool {
	a.flags = a.seq.AppendFlags(a.flags[:0], rs)
	if len(rs) == 0 {
		return a.flags
	}
	// The fold runs on locals, written back once per batch.
	s := &a.sum
	n, prev := s.Requests, a.prev
	lo, hi := s.MinArrival, s.MaxArrival
	if n == 0 {
		prev, lo, hi = rs[0].Arrival, rs[0].Arrival, rs[0].Arrival
	}
	valid := s.invalid == nil
	var bytes, reads, seq int64
	for i := range rs {
		r := &rs[i]
		if valid && (r.Sectors == 0 || r.Arrival < prev) {
			s.invalid, s.invalidAt, valid = ErrUnsorted, n, false
			if r.Sectors == 0 {
				s.invalid = ErrZeroSize
			}
		}
		lo, hi = min(lo, r.Arrival), max(hi, r.Arrival)
		prev = r.Arrival
		n++
		bytes += r.Bytes()
		if r.Op == Read {
			reads++
		}
	}
	for _, f := range a.flags {
		if f {
			seq++
		}
	}
	s.Requests, a.prev = n, prev
	s.MinArrival, s.MaxArrival = lo, hi
	s.TotalBytes += bytes
	s.Reads += reads
	s.Seq += seq
	return a.flags
}

// Summary finalizes the accumulated metrics under the stream metadata
// m (pass dec.Meta() after draining, when it is complete).
func (a *Summarizer) Summary(m Meta) Summary {
	s := a.sum
	s.Meta = m
	return s
}

// Summarize drains dec and returns its one-pass summary. It reads a run
// at a time (ForEachBatch), so the per-record cost is the AddBatch
// fold, not interface dispatch. On a decode error the decoder is
// closed, so an abandoned read-ahead decode never leaks its goroutine.
func Summarize(dec Decoder) (Summary, error) {
	acc := NewSummarizer()
	err := ForEachBatch(dec, func(batch []Request) error {
		acc.AddBatch(batch)
		return nil
	})
	if err != nil {
		dec.Close()
		return Summary{}, err
	}
	return acc.Summary(dec.Meta()), nil
}
