package infer

import (
	"time"

	"repro/internal/trace"
)

// StreamClassifier builds a Grouping incrementally from a request
// stream, so the Section III model can be fitted without materializing
// the trace. Feeding every request of a trace in order produces the
// same groups (keys and inter-arrival samples) as Classify; only the
// per-sample trace indices are omitted, which the estimator never
// consults.
type StreamClassifier struct {
	groups  map[GroupKey]*Group
	seq     *trace.SeqState
	flags   []bool // AddBatch's flag scratch
	prev    trace.Request
	prevSeq bool
	have    bool
	n       int
	// cache is a direct-mapped cache in front of groups, checked for key
	// equality. Workloads interleave their groups (webmail cycles
	// through 12), so a one-entry cache of the last group rarely hits;
	// with a slot per hashed key nearly every Add skips the map lookup.
	cache [64]struct {
		key GroupKey
		grp *Group
	}
}

// cacheSlot hashes k onto one of the StreamClassifier's cache slots
// (Fibonacci hashing; the top 6 bits of the product).
func cacheSlot(k GroupKey) uint32 {
	h := k.Sectors<<2 ^ uint32(k.Op)<<1
	if k.Seq {
		h ^= 1
	}
	return h * 0x9E3779B9 >> 26
}

// NewStreamClassifier returns an empty incremental classifier.
func NewStreamClassifier() *StreamClassifier {
	return &StreamClassifier{
		groups: make(map[GroupKey]*Group),
		seq:    trace.NewSeqState(),
	}
}

// AddBatch presents the next run of consecutive requests of the trace
// (in arrival order) — the fold the engine's model-fit pass runs over
// pre-decoded batches from the parallel decoders.
func (c *StreamClassifier) AddBatch(rs []trace.Request) {
	c.flags = c.seq.AppendFlags(c.flags[:0], rs)
	c.AddFlagged(rs, c.flags)
}

// AddFlagged is AddBatch for a caller that already computed the
// sequentiality flags of rs over the same stream (corpus ingest, whose
// summary fold runs its own trace.SeqState): seq[i] is rs[i]'s flag.
// The classifier's tracker is left out, so one classifier takes either
// AddBatch or AddFlagged, never both.
func (c *StreamClassifier) AddFlagged(rs []trace.Request, seq []bool) {
	for i := range rs {
		r := &rs[i]
		if c.have {
			k := GroupKey{Seq: c.prevSeq, Op: c.prev.Op, Sectors: c.prev.Sectors}
			slot := &c.cache[cacheSlot(k)]
			grp := slot.grp
			if grp == nil || slot.key != k {
				grp = c.groups[k]
				if grp == nil {
					grp = &Group{Key: k}
					c.groups[k] = grp
				}
				slot.key, slot.grp = k, grp
			}
			intt := float64(r.Arrival-c.prev.Arrival) / float64(time.Microsecond)
			grp.InttMicros = append(grp.InttMicros, intt)
		}
		c.prevSeq = seq[i]
		c.prev = *r
		c.have = true
	}
	c.n += len(rs)
}

// N returns the number of requests seen.
func (c *StreamClassifier) N() int { return c.n }

// Grouping returns the classification accumulated so far.
func (c *StreamClassifier) Grouping() *Grouping {
	return &Grouping{Groups: c.groups}
}

// Estimate fits the model to everything added so far; name labels
// errors. It is the second half of every streamed fit — the engine's
// per-job pass (engine.FitModel) and the corpus store's ingest fold.
func (c *StreamClassifier) Estimate(name string, opts EstimateOptions) (*Model, error) {
	return EstimateGrouping(c.Grouping(), name, opts)
}

// SummarizeAndClassify drains dec in the one streamed pass corpus
// ingest and tracestat share: the summary fold (trace.Summarizer) and,
// when classify accepts the stream's metadata (complete by the first
// batch), a classifier riding the summary's sequentiality flags, ready
// for Estimate. On a decode error the decoder is closed.
func SummarizeAndClassify(dec trace.Decoder, classify func(trace.Meta) bool) (trace.Summary, *StreamClassifier, error) {
	acc := trace.NewSummarizer()
	var cls *StreamClassifier
	first := true
	err := trace.ForEachBatch(dec, func(batch []trace.Request) error {
		if first {
			first = false
			if classify(dec.Meta()) {
				cls = NewStreamClassifier()
			}
		}
		seq := acc.AddBatch(batch)
		if cls != nil {
			cls.AddFlagged(batch, seq)
		}
		return nil
	})
	if err != nil {
		trace.CloseDecoder(dec)
		return trace.Summary{}, nil, err
	}
	return acc.Summary(dec.Meta()), cls, nil
}

// ShardContext carries the cross-boundary state DecomposeShard needs
// to reproduce the whole-trace decomposition on a sub-range: the
// request immediately before the shard (with its sequentiality flag),
// the arrival immediately after it, and the shard's own flags.
type ShardContext struct {
	// TsdevKnown selects recorded per-request latencies over the model
	// (the whole-trace path's effective t.TsdevKnown).
	TsdevKnown bool
	// Seq[i] is the sequentiality flag of shard request i, computed
	// against the full-trace history (trace.SeqState carried across
	// shards).
	Seq []bool
	// Prev is the last request before the shard, nil for the first
	// shard; PrevSeq is its flag.
	Prev    *trace.Request
	PrevSeq bool
	// HasNext reports whether a request follows the shard; NextArrival
	// is its arrival time.
	HasNext     bool
	NextArrival time.Duration
}

// DecomposeShard computes the per-instruction decomposition of one
// shard of a trace. With a context describing the full trace (nil
// Prev, no Next, whole-trace Seq) it is exactly Decompose; with carry
// state from a shard planner the per-shard results concatenate to the
// whole-trace result, which is what makes parallel reconstruction
// byte-identical to the sequential pipeline.
func DecomposeShard(m *Model, reqs []trace.Request, ctx ShardContext) (idle []time.Duration, async []bool) {
	idle = make([]time.Duration, len(reqs))
	async = make([]bool, len(reqs))
	DecomposeShardInto(idle, async, m, reqs, ctx)
	return idle, async
}

// DecomposeShardInto is DecomposeShard writing into caller-provided
// slices (len == len(reqs)), so a parallel engine can fill its merged
// report slots without per-shard allocations.
func DecomposeShardInto(idle []time.Duration, async []bool, m *Model, reqs []trace.Request, ctx ShardContext) {
	n := len(reqs)
	if n == 0 {
		return
	}
	// Every other slot is assigned unconditionally below, so only the
	// two boundary defaults need clearing — the slices may be reused
	// scratch, not fresh allocations.
	idle[0] = 0
	async[n-1] = false
	// pair evaluates the decomposition across one adjacent pair: r at
	// trace order position i (seq flag rseq), followed by an arrival at
	// next. It reports the idle preceding the follower and whether r
	// was issued asynchronously.
	pair := func(r trace.Request, rseq bool, next time.Duration) (time.Duration, bool) {
		intt := next - r.Arrival
		var slat, sdev time.Duration
		if ctx.TsdevKnown && r.Latency > 0 {
			slat = r.Latency
			sdev = r.Latency
		} else if m != nil {
			slat = m.Tslat(r.Op, r.Sectors, rseq)
			sdev = time.Duration(m.TsdevMicros(r.Op, r.Sectors, rseq) * float64(time.Microsecond))
		}
		var id time.Duration
		if intt > slat {
			id = intt - slat
		}
		return id, intt < sdev
	}
	if ctx.Prev != nil {
		idle[0], _ = pair(*ctx.Prev, ctx.PrevSeq, reqs[0].Arrival)
	}
	for i := 0; i+1 < n; i++ {
		id, as := pair(reqs[i], ctx.Seq[i], reqs[i+1].Arrival)
		idle[i+1] = id
		async[i] = as
	}
	if ctx.HasNext {
		_, async[n-1] = pair(reqs[n-1], ctx.Seq[n-1], ctx.NextArrival)
	}
}
