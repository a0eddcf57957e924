package infer

import (
	"math"
	"slices"
	"time"
	"unsafe"

	"repro/internal/trace"
)

// StreamClassifier builds a Grouping incrementally from a request
// stream, so the Section III model can be fitted without materializing
// the trace: every request but the last contributes the inter-arrival
// that follows it to its group (sequentiality × op × size). It is the
// fit's one classifier; Estimate feeds it a whole trace.
//
// Each group keeps one run of its gaps in integer nanoseconds, 4 bytes
// a sample: a gap in [0, escape) is stored as it is, any other (a gap
// of 2³²−1 ns or more, or a negative one from unsorted input) as the
// escape sentinel, with its exact value on the group's escape list in
// the same order. Both live in chunks: a list's first chunk doubles up
// to chunkLen values, so a small group holds little, and every later
// one is fixed-size, so adding a sample never copies more than a first
// chunk. A classifier serves one stream and one fit.
type StreamClassifier struct {
	keys    []GroupKey // the groups by ordinal, in order of first sample
	index   map[GroupKey]int32
	runs    []run // runs[id] is group id's run
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

// escape is the run value of a gap kept on the escape list. 2³²−1 ns
// itself is escaped, so every stored value below it is a real gap; all
// escapes sort after every stored gap.
const escape = math.MaxUint32

// run is one group's samples: a value per sample in stream order until
// Estimate, and the exact gaps behind its escapes, in the same order.
type run struct {
	gaps chunkList[uint32]
	esc  chunkList[int64]
}

// micros is the classifier's one conversion of a gap to the fit's unit.
func micros(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }

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

// Bytes returns the size of the storage a fit holds until it ends: the
// group keys and runs, their chunks and tables, and the flag scratch.
// (The index map, and the sort scratch Estimate makes and drops, are
// left out.)
func (c *StreamClassifier) Bytes() int64 {
	n := int64(cap(c.flags)) +
		int64(cap(c.keys))*int64(unsafe.Sizeof(GroupKey{})) + int64(cap(c.runs))*int64(unsafe.Sizeof(run{}))
	for i := range c.runs {
		n += c.runs[i].gaps.bytes() + c.runs[i].esc.bytes()
	}
	return n
}

// AddBatch presents the next run of consecutive requests of the trace
// (in arrival order) — the fold the engine's model-fit pass runs over
// the decoder's batches.
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
			g := &c.runs[id]
			if gap := r.Arrival - c.prev.Arrival; uint64(gap) < escape {
				g.gaps.push(uint32(gap))
			} else {
				g.gaps.push(escape)
				g.esc.push(int64(gap))
			}
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
		c.runs = append(c.runs, run{})
	}
	return id
}

// N returns the number of requests seen.
func (c *StreamClassifier) N() int { return c.n }

// Grouping returns the classification accumulated so far, each group's
// samples (µs) in a new slice. Before Estimate they are in stream
// order; Estimate leaves each examined group's samples in an order of
// its sort's making.
func (c *StreamClassifier) Grouping() *Grouping {
	total := 0
	for id := range c.keys {
		total += c.runs[id].gaps.len()
	}
	flat := make([]float64, 0, total)
	g := &Grouping{Groups: make(map[GroupKey]*Group, len(c.keys))}
	for id, k := range c.keys {
		r := &c.runs[id]
		off, e := len(flat), 0
		for i := range r.gaps.len() {
			ns := int64(r.gaps.at(i))
			if ns == escape {
				ns = r.esc.at(e)
				e++
			}
			flat = append(flat, micros(ns))
		}
		g.Groups[k] = &Group{Key: k, InttMicros: flat[off:len(flat):len(flat)]}
	}
	return g
}

// Estimate fits the model to everything added so far; name labels
// errors. It is the second half of every fit — infer.Estimate, the
// engine's per-job pass (engine.FitModel) and the corpus store's ingest
// fold. Each group the fit can select is sorted and examined from its
// own run (examiner.examineRun); no float64 copy of a group is made.
func (c *StreamClassifier) Estimate(name string) (*Model, error) {
	fits := make([]groupFit, len(c.keys))
	var big []int // the ordinals of the groups to examine
	for id, k := range c.keys {
		fits[id] = groupFit{key: k, n: c.runs[id].gaps.len()}
		if fits[id].n >= minGroupSamples {
			big = append(big, id)
		}
	}
	// Largest first, so the largest group is not the last one taken.
	slices.SortFunc(big, func(a, b int) int { return fits[b].n - fits[a].n })
	examineEach(len(big), func(x *examiner, i int) {
		fits[big[i]].ex = x.examineRun(&c.runs[big[i]])
	})
	return fitModel(fits, name)
}

// SummarizeAndClassify drains dec in the one streamed pass corpus
// ingest and tracestat share: the summary fold (trace.Summarizer) and,
// when classify says so for the stream's metadata (complete by the
// first batch), a new classifier riding the summary's sequentiality
// flags, ready for Estimate; otherwise the classifier is nil. On a
// decode error the decoder is closed.
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
		dec.Close()
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
