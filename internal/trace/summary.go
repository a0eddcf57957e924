package trace

// One-pass characterization: Summarizer folds a request stream into
// the whole-trace metrics tracestat prints and the corpus store
// records in its sidecars, without materializing the trace — the
// bounded-memory counterpart of the Trace accessor methods.

import (
	"fmt"
	"math"
	"time"
)

// Summary is the one-pass characterization of a request stream. All
// order-sensitive metrics (sequential fraction, inter-arrival moments)
// are computed in stream order; wrap near-sorted corpora (msrc/spc) in
// a ReorderDecoder when arrival-order semantics matter.
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
	// IntervalMeanUS/IntervalStdUS/IntervalMaxUS are moments of the
	// successive inter-arrival gaps in microseconds.
	IntervalMeanUS, IntervalStdUS, IntervalMaxUS float64

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
// matching Trace.Duration on sorted input.
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
	m2    float64 // Welford sum of squared deviations of the gaps
	flags []bool  // AddBatch's result, reused across calls
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
	s := &a.sum
	a.flags = a.seq.AppendFlags(a.flags[:0], rs)
	for i := range rs {
		r := &rs[i]
		if r.Sectors == 0 && s.invalid == nil {
			s.invalid, s.invalidAt = ErrZeroSize, s.Requests
		}
		if s.Requests == 0 {
			s.MinArrival, s.MaxArrival = r.Arrival, r.Arrival
		} else {
			if r.Arrival < a.prev && s.invalid == nil {
				s.invalid, s.invalidAt = ErrUnsorted, s.Requests
			}
			if r.Arrival < s.MinArrival {
				s.MinArrival = r.Arrival
			}
			if r.Arrival > s.MaxArrival {
				s.MaxArrival = r.Arrival
			}
			gap := float64(r.Arrival-a.prev) / float64(time.Microsecond)
			n := float64(s.Requests) // gap count including this one
			delta := gap - s.IntervalMeanUS
			s.IntervalMeanUS += delta / n
			a.m2 += delta * (gap - s.IntervalMeanUS)
			if gap > s.IntervalMaxUS {
				s.IntervalMaxUS = gap
			}
		}
		a.prev = r.Arrival
		s.Requests++
		s.TotalBytes += r.Bytes()
		if r.Op == Read {
			s.Reads++
		}
	}
	for _, seq := range a.flags {
		if seq {
			s.Seq++
		}
	}
	return a.flags
}

// Summary finalizes the accumulated metrics under the stream metadata
// m (pass dec.Meta() after draining, when it is complete).
func (a *Summarizer) Summary(m Meta) Summary {
	s := a.sum
	s.Meta = m
	if n := s.Requests - 1; n > 0 {
		s.IntervalStdUS = math.Sqrt(a.m2 / float64(n))
	}
	return s
}

// Summarize drains dec and returns its one-pass summary. It reads
// through the batched decode path — or straight out of a parallel
// decoder's internal batches — so the per-record cost is the AddBatch
// fold, not interface dispatch. On a decode error the decoder
// is closed (CloseDecoder), so abandoned parallel decodes never leak
// workers.
func Summarize(dec Decoder) (Summary, error) {
	acc := NewSummarizer()
	err := ForEachBatch(dec, func(batch []Request) error {
		acc.AddBatch(batch)
		return nil
	})
	if err != nil {
		CloseDecoder(dec)
		return Summary{}, err
	}
	return acc.Summary(dec.Meta()), nil
}
