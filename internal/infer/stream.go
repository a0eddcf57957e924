package infer

import (
	"slices"
	"time"

	"repro/internal/trace"
)

// StreamClassifier builds a Grouping incrementally from a request
// stream, so the Section III model can be fitted without materializing
// the trace. Feeding every request of a trace in order produces the
// same groups (keys and inter-arrival samples) as Classify; only the
// per-sample trace indices are omitted, which the estimator never
// consults.
//
// The samples of every group live in one flat slice, each tagged with
// its group's ordinal, so adding a sample never copies a group, and
// Reset keeps that storage for the next stream: a classifier reused
// across fits stops allocating once it has held its largest stream.
type StreamClassifier struct {
	keys    []GroupKey // the groups by ordinal, in order of first sample
	index   map[GroupKey]int32
	samples []float64 // every inter-arrival sample (µs), in stream order until Estimate
	ids     []int32   // ids[i] is the ordinal of samples[i]'s group
	ex      []examiner
	seq     *trace.SeqState
	flags   []bool // AddBatch's flag scratch
	prev    trace.Request
	prevSeq bool
	have    bool
	n       int
	// cache is a direct-mapped cache in front of index, checked for key
	// equality; a slot holds its group's ordinal plus one (0 is empty).
	// Workloads interleave their groups (webmail cycles through 12), so
	// a one-entry cache of the last group rarely hits; with a slot per
	// hashed key nearly every Add skips the map lookup.
	cache [64]struct {
		key GroupKey
		id  int32
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
		index: make(map[GroupKey]int32),
		seq:   trace.NewSeqState(),
	}
}

// Reset empties the classifier for a new stream, keeping its storage.
func (c *StreamClassifier) Reset() {
	clear(c.index)
	c.keys = c.keys[:0]
	c.samples, c.ids, c.flags = c.samples[:0], c.ids[:0], c.flags[:0]
	c.seq = trace.NewSeqState()
	c.prev, c.prevSeq, c.have, c.n = trace.Request{}, false, false, 0
	c.cache = [64]struct {
		key GroupKey
		id  int32
	}{}
}

// Bytes returns the size of the storage the classifier holds — what
// keeping it for another stream keeps.
func (c *StreamClassifier) Bytes() int64 {
	n := int64(cap(c.samples))*8 + int64(cap(c.ids))*4 + int64(cap(c.flags))
	for i := range c.ex {
		n += int64(cap(c.ex[i].sorted))*8 + int64(cap(c.ex[i].keys))*8
	}
	return n
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
			id := slot.id - 1
			if id < 0 || slot.key != k {
				id = c.group(k)
				slot.key, slot.id = k, id+1
			}
			c.samples = append(c.samples, float64(r.Arrival-c.prev.Arrival)/float64(time.Microsecond))
			c.ids = append(c.ids, id)
		}
		c.prevSeq = seq[i]
		c.prev = *r
		c.have = true
	}
	c.n += len(rs)
}

// group returns k's ordinal, opening the group on its first sample.
func (c *StreamClassifier) group(k GroupKey) int32 {
	id, ok := c.index[k]
	if !ok {
		id = int32(len(c.keys))
		c.index[k] = id
		c.keys = append(c.keys, k)
	}
	return id
}

// N returns the number of requests seen.
func (c *StreamClassifier) N() int { return c.n }

// Grouping returns the classification accumulated so far, each group's
// samples in a new slice. Before Estimate they are in stream order;
// Estimate sorts them within their groups.
func (c *StreamClassifier) Grouping() *Grouping {
	counts, next := c.runs()
	flat := make([]float64, len(c.samples))
	for i, v := range c.samples {
		id := c.ids[i]
		flat[next[id]] = v
		next[id]++
	}
	return c.grouping(flat, counts)
}

// Estimate fits the model to everything added so far; name labels
// errors. It is the second half of every streamed fit — the engine's
// per-job pass (engine.FitModel) and the corpus store's ingest fold.
// The fit is EstimateGrouping's on Grouping, computed in the
// classifier's own storage: the samples are permuted in place into one
// run per group and each run is sorted where it lies.
func (c *StreamClassifier) Estimate(name string, opts EstimateOptions) (*Model, error) {
	counts, starts := c.runs()
	// next[id] is the first slot of group id's run not yet holding one
	// of its samples; each swap puts one sample in its run for good.
	next := slices.Clone(starts)
	for id := range c.keys {
		for end := starts[id] + counts[id]; next[id] < end; {
			i := next[id]
			j := c.ids[i]
			if int(j) == id {
				next[id]++
				continue
			}
			k := next[j]
			c.samples[i], c.samples[k] = c.samples[k], c.samples[i]
			c.ids[i], c.ids[k] = c.ids[k], c.ids[i]
			next[j]++
		}
	}
	m, ex, err := estimateGrouping(c.grouping(c.samples, counts), name, opts, c.ex, true)
	c.ex = ex
	return m, err
}

// runs returns each group's sample count and where its run starts in
// a slice of the samples partitioned by group, in ordinal order.
func (c *StreamClassifier) runs() (counts, starts []int) {
	counts = make([]int, len(c.keys))
	for _, id := range c.ids {
		counts[id]++
	}
	starts = make([]int, len(c.keys))
	off := 0
	for id, n := range counts {
		starts[id] = off
		off += n
	}
	return counts, starts
}

// grouping views flat, the samples partitioned by group in ordinal
// order, as a Grouping.
func (c *StreamClassifier) grouping(flat []float64, counts []int) *Grouping {
	g := &Grouping{Groups: make(map[GroupKey]*Group, len(c.keys))}
	off := 0
	for id, k := range c.keys {
		g.Groups[k] = &Group{Key: k, InttMicros: flat[off : off+counts[id] : off+counts[id]]}
		off += counts[id]
	}
	return g
}

// SummarizeAndClassify drains dec in the one streamed pass corpus
// ingest and tracestat share: the summary fold (trace.Summarizer) and,
// when classify returns an empty classifier for the stream's metadata
// (complete by the first batch), that classifier riding the summary's
// sequentiality flags, ready for Estimate. On a decode error the
// decoder is closed.
func SummarizeAndClassify(dec trace.Decoder, classify func(trace.Meta) *StreamClassifier) (trace.Summary, *StreamClassifier, error) {
	acc := trace.NewSummarizer()
	var cls *StreamClassifier
	first := true
	err := trace.ForEachBatch(dec, func(batch []trace.Request) error {
		if first {
			first = false
			cls = classify(dec.Meta())
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
