package infer

// Differential oracle for the StreamClassifier. oracleClassifier is the
// classifier as it was before the runs of integer nanoseconds: every
// sample a float64 µs value in one flat slice, tagged with its group's
// ordinal, permuted into one run per group by Estimate and sorted where
// it lies. It is kept here, test-only, as the reference model: the
// classifier is only ever allowed to be a smaller way of holding the
// same samples, so every Grouping (order included) and every fitted
// model must match it bit for bit. classifierAdversary decodes an
// arbitrary byte string into streams of requests with batch splits and
// stream ends, so one driver serves TestClassifierVsOracle and
// FuzzClassifierVsOracle.

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

type oracleClassifier struct {
	keys    []GroupKey
	index   map[GroupKey]int32
	samples []float64 // every inter-arrival sample (µs), in stream order until Estimate
	ids     []int32   // ids[i] is the ordinal of samples[i]'s group
	seq     *trace.SeqState
	prev    trace.Request
	prevSeq bool
	have    bool
}

func newOracleClassifier() *oracleClassifier {
	return &oracleClassifier{index: make(map[GroupKey]int32), seq: trace.NewSeqState()}
}

func (o *oracleClassifier) AddBatch(rs []trace.Request) {
	for _, r := range rs {
		seq := o.seq.Flag(r)
		if o.have {
			k := GroupKey{Seq: o.prevSeq, Op: o.prev.Op, Sectors: o.prev.Sectors}
			id, ok := o.index[k]
			if !ok {
				id = int32(len(o.keys))
				o.index[k] = id
				o.keys = append(o.keys, k)
			}
			o.samples = append(o.samples, float64(r.Arrival-o.prev.Arrival)/float64(time.Microsecond))
			o.ids = append(o.ids, id)
		}
		o.prevSeq, o.prev, o.have = seq, r, true
	}
}

func (o *oracleClassifier) Grouping() *Grouping {
	counts, next := o.runs()
	flat := make([]float64, len(o.samples))
	for i, v := range o.samples {
		id := o.ids[i]
		flat[next[id]] = v
		next[id]++
	}
	return o.grouping(flat, counts)
}

// Estimate permutes the samples in place into one run per group and
// fits those runs.
func (o *oracleClassifier) Estimate(name string) (*Model, error) {
	counts, starts := o.runs()
	// next[id] is the first slot of group id's run not yet holding one
	// of its samples; each swap puts one sample in its run for good.
	next := slices.Clone(starts)
	for id := range o.keys {
		for end := starts[id] + counts[id]; next[id] < end; {
			i := next[id]
			j := o.ids[i]
			if int(j) == id {
				next[id]++
				continue
			}
			k := next[j]
			o.samples[i], o.samples[k] = o.samples[k], o.samples[i]
			o.ids[i], o.ids[k] = o.ids[k], o.ids[i]
			next[j]++
		}
	}
	return estimateGrouping(o.grouping(o.samples, counts), name)
}

func (o *oracleClassifier) runs() (counts, starts []int) {
	counts = make([]int, len(o.keys))
	for _, id := range o.ids {
		counts[id]++
	}
	starts = make([]int, len(o.keys))
	off := 0
	for id, n := range counts {
		starts[id] = off
		off += n
	}
	return counts, starts
}

func (o *oracleClassifier) grouping(flat []float64, counts []int) *Grouping {
	g := &Grouping{Groups: make(map[GroupKey]*Group, len(o.keys))}
	off := 0
	for id, k := range o.keys {
		g.Groups[k] = &Group{Key: k, InttMicros: flat[off : off+counts[id] : off+counts[id]]}
		off += counts[id]
	}
	return g
}

// estimateGrouping is the reference fit of a float classification:
// every group the fit can select sorted where it lies and examined as
// ExamineSteepness examines a sample.
func estimateGrouping(g *Grouping, name string) (*Model, error) {
	var fits []groupFit
	for k, grp := range g.Groups {
		f := groupFit{key: k, n: grp.N()}
		if f.n >= minGroupSamples {
			stats.SortFloat64s(grp.InttMicros, nil)
			f.ex = examine(&sortedRun{sample: grp.InttMicros})
		}
		fits = append(fits, f)
	}
	return fitModel(fits, name)
}

// sameModel reports whether two fits agree bit for bit: the same
// error class, or the same coefficients and sizes.
func sameModel(a *Model, aerr error, b *Model, berr error) bool {
	if aerr != nil || berr != nil {
		return errors.Is(aerr, ErrTooSparse) && errors.Is(berr, ErrTooSparse)
	}
	bits := func(m *Model) [7]uint64 {
		return [7]uint64{
			math.Float64bits(m.BetaMicros), math.Float64bits(m.EtaMicros),
			math.Float64bits(m.TcdelReadMicros), math.Float64bits(m.TcdelWriteMicros),
			math.Float64bits(m.TmovdMicros), math.Float64bits(m.FlatReadMicros), math.Float64bits(m.FlatWriteMicros),
		}
	}
	return bits(a) == bits(b) && a.ReadSizes == b.ReadSizes && a.WriteSizes == b.WriteSizes
}

// adversarySizes are the request sizes (sectors) a request picks from:
// the common ones repeat, so most streams fill a few groups past
// minGroupSamples. The last, 0, takes 1 + the gap byte: up to 256 sizes.
var adversarySizes = [16]uint32{8, 8, 8, 8, 16, 16, 16, 32, 32, 64, 1, 128, 256, 1024, 4096, 0}

// adversaryGap decodes a gap class byte: the edges of the stored range
// and of the escapes, huge escapes that share a µs value, negative
// gaps (unsorted input) and ordinary ones.
func adversaryGap(b byte) time.Duration {
	k := time.Duration(b & 31)
	switch b >> 5 {
	case 0:
		return 0
	case 1:
		return escape - 2 + k%3 // 2³²−2, 2³²−1 (escaped), 2³² ns
	case 2:
		return escape + k<<30 // past 2³² ns: 4.3 s up to 37 s
	case 3:
		return 1<<55 + k // distinct in ns, mostly one value in µs
	case 4:
		return -(k + 1) * 997 // an arrival before the one it follows
	case 5:
		return k * time.Microsecond
	default:
		return k<<27 | k*7919 // spread over the stored range
	}
}

// classifierAdversary drives a StreamClassifier and the oracle through
// the streams data encodes, three bytes a request: op, LBA kind and
// size; gap class; control. A control byte ending in four zero bits
// ends the batch (0x10 also compares the Groupings); 0xff ends the
// stream: both fit, and a new pair takes the next one. Every stream
// ends with a compared fit. It returns the number of fits compared and
// how many of them fitted a model.
func classifierAdversary(t testing.TB, data []byte) (fits, models int) {
	t.Helper()
	c, o := NewStreamClassifier(), newOracleClassifier()
	var batch []trace.Request
	var now time.Duration
	var last uint64
	ends := make(map[uint32]uint64)
	flush := func() {
		c.AddBatch(batch)
		o.AddBatch(batch)
		batch = batch[:0]
	}
	compareGroupings := func(when string) {
		if got, want := c.Grouping(), o.Grouping(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Grouping differs from the oracle's (%d groups, want %d)", when, len(got.Groups), len(want.Groups))
		}
	}
	fit := func() {
		flush()
		compareGroupings("before Estimate")
		m, err := c.Estimate("adversary")
		wm, werr := o.Estimate("adversary")
		if !sameModel(m, err, wm, werr) {
			t.Fatalf("fit %d: model differs from the oracle's\n got %+v (%v)\nwant %+v (%v)", fits, m, err, wm, werr)
		}
		fits++
		if err == nil {
			models++
		}
		c, o = NewStreamClassifier(), newOracleClassifier()
		now, last = 0, 0
		clear(ends)
	}
	for i := 0; i+2 < len(data); i += 3 {
		a, g, ctl := data[i], data[i+1], data[i+2]
		r := trace.Request{Arrival: now, Op: trace.Op(a & 1), Sectors: adversarySizes[a>>4], Device: uint32(a >> 3 & 1)}
		if r.Sectors == 0 {
			r.Sectors = 1 + uint32(g)
		}
		switch a >> 1 & 3 {
		case 0, 1: // continues its device
			r.LBA = ends[r.Device]
		case 2: // jumps
			r.LBA = uint64(i) * 2654435761 % (1 << 40)
		default: // repeats the last start
			r.LBA = last
		}
		ends[r.Device], last = r.End(), r.LBA
		batch = append(batch, r)
		now += adversaryGap(g)
		switch {
		case ctl == 0xff:
			fit()
		case ctl&15 == 0:
			flush()
			if ctl == 0x10 {
				compareGroupings("at a batch boundary")
			}
		}
	}
	fit()
	return fits, models
}

// adversaryBytes is a random stream of n requests: gap classes weighted
// towards ordinary gaps, a batch end every 16 requests on average and,
// with hops, a stream end every 2,000.
func adversaryBytes(seed int64, n int, hops bool) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 0, 3*n)
	for range n {
		gap := byte(rng.Intn(256))
		if rng.Intn(4) > 0 {
			gap = 5<<5 | gap&31 // a gap of up to 31 µs
		}
		ctl := byte(rng.Intn(255))
		if hops && rng.Intn(2000) == 0 {
			ctl = 0xff
		}
		data = append(data, byte(rng.Intn(256)), gap, ctl)
	}
	return data
}

// TestClassifierVsOracle is the generated-adversary property test:
// random streams over every gap class, batch splits and stream ends,
// plus the hand-built cases the generator rarely hits — groups of one
// value, groups of escapes alone and a stream of many small groups.
func TestClassifierVsOracle(t *testing.T) {
	cases, n := 30, 12_000
	if testing.Short() {
		cases, n = 6, 4_000
	}
	fits, models := 0, 0
	for seed := int64(1); seed <= int64(cases); seed++ {
		f, m := classifierAdversary(t, adversaryBytes(seed, n, seed%2 == 0))
		fits, models = fits+f, models+m
	}
	// A fit is compared whether it lands a model or ErrTooSparse; most
	// must land one, or the comparison says little.
	if models*4 < fits*3 {
		t.Fatalf("%d of %d generated fits landed a model", models, fits)
	}
	t.Logf("%d of %d generated fits landed a model", models, fits)
	// repeat is a stream of n requests cycling through the (op/size,
	// gap) pairs of reqs, with a batch end every 7 requests.
	repeat := func(n int, reqs ...[2]byte) []byte {
		var data []byte
		for i := range n {
			ctl := byte(1)
			if i%7 == 6 {
				ctl = 0
			}
			data = append(data, reqs[i%len(reqs)][0], reqs[i%len(reqs)][1], ctl)
		}
		return data
	}
	hand := map[string][]byte{
		// Every group holds one value: the degenerate examination.
		"one-value groups": repeat(400, [2]byte{0x00, 0xa8}, [2]byte{0x41, 0xa8}, [2]byte{0x70, 0xa8}),
		// Only escapes: 2³²−1 ns, 2³² ns and past them.
		"escapes only": repeat(400, [2]byte{0x00, 0x21}, [2]byte{0x01, 0x22}, [2]byte{0x00, 0x41}, [2]byte{0x01, 0x45}),
		// The stored range's edges: 0 and 2³²−2 ns, beside escapes.
		"edges": repeat(400, [2]byte{0x00, 0x00}, [2]byte{0x00, 0x20}, [2]byte{0x00, 0x21}, [2]byte{0x00, 0x22}, [2]byte{0x00, 0xbf}),
		// Only negative gaps, and negative gaps beside stored ones.
		"negative gaps":  repeat(400, [2]byte{0x00, 0x83}, [2]byte{0x01, 0x9f}),
		"negative mixed": repeat(600, [2]byte{0x00, 0x83}, [2]byte{0x00, 0xa5}, [2]byte{0x00, 0xe9}, [2]byte{0x00, 0x62}),
		// Huge escapes whose µs values coincide.
		"shared micros": repeat(400, [2]byte{0x00, 0x60}, [2]byte{0x00, 0x61}, [2]byte{0x00, 0x7f}, [2]byte{0x00, 0xa1}),
	}
	// Many groups: 256 sizes on both ops, between requests of the
	// common sizes.
	var many [][2]byte
	for g := range 256 {
		many = append(many, [2]byte{0xf0 | byte(g&1), byte(g)}, [2]byte{byte(g & 0x7f), 0xa0 | byte(g)})
	}
	hand["many groups"] = repeat(12_000, many...)
	for name, data := range hand {
		t.Run(name, func(t *testing.T) {
			if fits, models := classifierAdversary(t, data); fits != 1 || models != 1 {
				t.Fatalf("%d fits, %d models: want one of each", fits, models)
			}
		})
	}
}

// FuzzClassifierVsOracle feeds arbitrary streams to classifierAdversary.
// The seeds under testdata/fuzz/FuzzClassifierVsOracle name what each
// one exercises.
func FuzzClassifierVsOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		classifierAdversary(t, data)
	})
}
