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

// shouldCut reports whether the planner cuts before a request that
// arrives gap after the previous one, given the current shard length.
func shouldCut(cfg Config, curLen int, gap time.Duration) bool {
	if curLen >= cfg.MaxShardRequests {
		return true
	}
	return curLen >= cfg.MinShardRequests && gap >= cfg.MinIdleGap
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
	return &streamPlanner{cfg: cfg, pool: pool, seq: trace.NewSeqState()}
}

// checkInput applies the planner's input rules to the request at index
// i of the stream: it has a size, and it does not arrive before prev,
// its predecessor's arrival (hasPrev is false for the first request).
func checkInput(r trace.Request, i int64, hasPrev bool, prev time.Duration) error {
	if r.Sectors == 0 {
		return fmt.Errorf("%w (index %d)", trace.ErrZeroSize, i)
	}
	if hasPrev && r.Arrival < prev {
		return fmt.Errorf("%w (index %d); widen the reorder window for near-sorted corpora", trace.ErrUnsorted, i)
	}
	return nil
}

// add consumes the next request. When it opens a new epoch, the
// completed previous shard is returned.
func (p *streamPlanner) add(r trace.Request) (*shard, error) {
	n := len(p.cur.reqs)
	var last trace.Request
	if n > 0 {
		last = p.cur.reqs[n-1]
	}
	if err := checkInput(r, p.count, n > 0, last.Arrival); err != nil {
		return nil, err
	}
	var done *shard
	if n > 0 && shouldCut(p.cfg, n, r.Arrival-last.Arrival) {
		finished := p.cur
		finished.hasNext = true
		finished.nextArrival = r.Arrival
		done = &finished
		p.index++
		// The new shard appends into recycled buffers when any are free;
		// otherwise append grows them, and they join the recycling loop
		// once their shard retires.
		p.cur = shard{
			index:   p.index,
			reqs:    p.pool.reqs.get(0),
			seq:     p.pool.seqs.get(0),
			hasPrev: true,
			prev:    last,
			prevSeq: finished.seq[n-1],
		}
	}
	p.cur.reqs = append(p.cur.reqs, r)
	p.cur.seq = append(p.cur.seq, p.seq.Flag(r))
	p.count++
	return done, nil
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
