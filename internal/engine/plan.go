package engine

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// shard is one epoch of the trace plus the carry state that makes its
// reconstruction independent: the sequentiality flags of its requests
// (computed against full-trace history), the request immediately
// before it, and the arrival immediately after it.
type shard struct {
	index int
	reqs  []trace.Request
	seq   []bool

	hasPrev bool
	prev    trace.Request
	prevSeq bool

	hasNext     bool
	nextArrival time.Duration
}

// idleCutGap is the idle boundary the paper's inference attributes to
// application think time, well above device service times; idleCutMin
// keeps a gap-heavy trace from cutting confetti shards.
const idleCutGap, idleCutMin = time.Millisecond, 1024

// shouldCut reports whether the planner cuts before a request that
// arrives gap after the previous one, given the current shard length:
// at the memory bound, or at an idle gap once the shard holds
// min(idleCutMin, MaxShardRequests) requests.
func shouldCut(cfg Config, curLen int, gap time.Duration) bool {
	if curLen >= cfg.MaxShardRequests {
		return true
	}
	return curLen >= idleCutMin && gap >= idleCutGap
}

// streamPlanner builds shards incrementally from a request stream,
// owning each shard's buffer. It also validates the invariants the
// pipeline relies on (trace.Validate equivalents) as it goes. New shard
// buffers come from the run's pool (the executor returns them there
// once a shard is merged), so a long run reuses a bounded set of
// buffers instead of allocating per shard.
type streamPlanner struct {
	cfg   Config
	pool  *bufPool
	seq   *trace.SeqState
	cur   shard
	count int64
	index int
}

func newStreamPlanner(cfg Config, pool *bufPool) *streamPlanner {
	p := &streamPlanner{cfg: cfg, pool: pool, seq: trace.NewSeqState()}
	p.cur.reqs, p.cur.seq = p.buffers()
	return p
}

// buffers returns the request and flag buffers of a new shard: recycled
// ones when any are free, otherwise new ones with room for an idle cut's
// minimum plus an eighth, which holds nearly every shard of a gap-rich
// workload without a regrow (a gap-free one grows to MaxShardRequests).
func (p *streamPlanner) buffers() ([]trace.Request, []bool) {
	reqs, seq := p.pool.reqs.get(0), p.pool.seqs.get(0)
	n := min(idleCutMin+idleCutMin/8, p.cfg.MaxShardRequests)
	if reqs == nil {
		reqs = make([]trace.Request, 0, n)
	}
	if seq == nil {
		seq = make([]bool, 0, n)
	}
	return reqs, seq
}

// checkInput applies the planner's input rules to the request at index
// i of the stream: it has a size, and it does not arrive before prev,
// its predecessor's arrival (hasPrev is false for the first request).
func checkInput(r *trace.Request, i int64, hasPrev bool, prev time.Duration) error {
	if r.Sectors == 0 || hasPrev && r.Arrival < prev {
		return inputError(r, i)
	}
	return nil
}

// inputError is checkInput's error for the request r at index i, built
// out of line so that checkInput inlines into per-request loops.
func inputError(r *trace.Request, i int64) error {
	err := trace.ErrUnsorted
	if r.Sectors == 0 {
		err = trace.ErrZeroSize
	}
	return fmt.Errorf("%w (index %d)", err, i)
}

// addBatch consumes the next run of requests in stream order, handing
// each shard it completes to submit. The input rules and the cut rule
// are applied per request, in order; every stretch between two cuts
// joins the current shard in one bulk append, its flags in one run of
// the sequentiality tracker.
//
//tracelint:hotpath
func (p *streamPlanner) addBatch(batch []trace.Request, submit func(shard) error) error {
	start := 0 // batch[start:i] is the stretch not yet in p.cur
	for i := range batch {
		r := &batch[i]
		n := len(p.cur.reqs) + i - start // the shard's length before r
		var prev time.Duration
		if i > 0 {
			prev = batch[i-1].Arrival
		} else if n > 0 {
			prev = p.cur.reqs[n-1].Arrival
		}
		if err := checkInput(r, p.count+int64(i-start), n > 0, prev); err != nil {
			return err
		}
		if n > 0 && shouldCut(p.cfg, n, r.Arrival-prev) {
			p.extend(batch[start:i])
			start = i
			if err := submit(p.cut(r.Arrival)); err != nil {
				return err
			}
		}
	}
	p.extend(batch[start:])
	return nil
}

// extend appends a stretch with no cut to the current shard.
func (p *streamPlanner) extend(run []trace.Request) {
	p.cur.reqs = append(p.cur.reqs, run...)
	p.cur.seq = p.seq.AppendFlags(p.cur.seq, run)
	p.count += int64(len(run))
}

// cut completes the current shard before a request arriving at next and
// opens the one that request starts, carrying the completed shard's
// last request and flag into it.
func (p *streamPlanner) cut(next time.Duration) shard {
	done := p.cur
	done.hasNext = true
	done.nextArrival = next
	n := len(done.reqs)
	p.index++
	// The new shard's buffers join the recycling loop once it retires.
	p.cur = shard{
		index:   p.index,
		hasPrev: true,
		prev:    done.reqs[n-1],
		prevSeq: done.seq[n-1],
	}
	p.cur.reqs, p.cur.seq = p.buffers()
	return done
}

// finish returns the trailing shard, if any.
func (p *streamPlanner) finish() *shard {
	if len(p.cur.reqs) == 0 {
		return nil
	}
	last := p.cur
	p.cur = shard{}
	return &last
}
