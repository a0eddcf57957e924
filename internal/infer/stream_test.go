package infer

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"repro/internal/device"
	"repro/internal/trace"
	"repro/internal/workload"
)

// streamTrace builds a mixed synthetic trace with enough group
// structure for estimation.
func streamTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(11))
	t := &trace.Trace{Name: "stream", TsdevKnown: false}
	now := time.Duration(0)
	lba := uint64(0)
	sizes := []uint32{8, 16, 64}
	for i := 0; i < n; i++ {
		sz := sizes[rng.Intn(len(sizes))]
		op := trace.Read
		if rng.Float64() < 0.4 {
			op = trace.Write
		}
		if rng.Float64() < 0.5 {
			lba = uint64(rng.Intn(1 << 24))
		}
		t.Requests = append(t.Requests, trace.Request{
			Arrival: now, LBA: lba, Sectors: sz, Op: op,
		})
		lba += uint64(sz)
		now += time.Duration(50+rng.Intn(3000)) * time.Microsecond
		if rng.Float64() < 0.02 {
			now += time.Duration(rng.Intn(40)) * time.Millisecond
		}
	}
	return t
}

// classifyRef is the reference classification the StreamClassifier is
// held to: every request but the last, keyed by sequentiality (it
// starts where the previous request on its device ended), op and size,
// contributes the inter-arrival that follows it.
func classifyRef(t *trace.Trace) *Grouping {
	g := &Grouping{Groups: make(map[GroupKey]*Group)}
	ends := make(map[uint32]uint64)
	for i, r := range t.Requests {
		end, seen := ends[r.Device]
		ends[r.Device] = r.LBA + uint64(r.Sectors)
		if i+1 == len(t.Requests) {
			break
		}
		k := GroupKey{Seq: seen && r.LBA == end, Op: r.Op, Sectors: r.Sectors}
		if g.Groups[k] == nil {
			g.Groups[k] = &Group{Key: k}
		}
		intt := float64(t.Requests[i+1].Arrival-r.Arrival) / float64(time.Microsecond)
		g.Groups[k].InttMicros = append(g.Groups[k].InttMicros, intt)
	}
	return g
}

// TestStreamClassifierMatchesClassify checks group keys and samples
// against the reference classification.
func TestStreamClassifierMatchesClassify(t *testing.T) {
	tr := streamTrace(2000)
	want := classifyRef(tr)
	c := NewStreamClassifier()
	for i := 0; i < tr.Len(); i += 7 {
		c.AddBatch(tr.Requests[i:min(i+7, tr.Len())])
	}
	got := c.Grouping()
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("group count: got %d want %d", len(got.Groups), len(want.Groups))
	}
	for k, wg := range want.Groups {
		gg := got.Groups[k]
		if gg == nil {
			t.Fatalf("missing group %+v", k)
		}
		if !reflect.DeepEqual(gg.InttMicros, wg.InttMicros) {
			t.Fatalf("group %+v samples differ", k)
		}
	}
	if c.N() != tr.Len() {
		t.Fatalf("N: got %d want %d", c.N(), tr.Len())
	}
}

// TestEstimateGroupingMatchesEstimate checks that the streamed fit is
// the fit of the reference classification.
func TestEstimateGroupingMatchesEstimate(t *testing.T) {
	tr := streamTrace(4000)
	want, err := estimateGrouping(classifyRef(tr), tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	c := NewStreamClassifier()
	for i := 0; i < tr.Len(); i += 300 {
		c.AddBatch(tr.Requests[i:min(i+300, tr.Len())])
	}
	got, err := c.Estimate(tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("models differ:\n got %+v\nwant %+v", got, want)
	}
	// The same fit from a caller that tracks sequentiality itself (corpus
	// ingest: its summary fold owns the trace.SeqState).
	flagged, seq := NewStreamClassifier(), trace.NewSeqState()
	for _, r := range tr.Requests {
		flagged.AddFlagged([]trace.Request{r}, []bool{seq.Flag(r)})
	}
	if got, err = flagged.Estimate(tr.Name); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("flagged feed: %v\n got %+v\nwant %+v", err, got, want)
	}
	if got, err = Estimate(tr, EstimateOptions{}); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Estimate: %v\n got %+v\nwant %+v", err, got, want)
	}
	if !got.Finite() {
		t.Fatalf("a fitted model reads as non-finite: %+v", got)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := *got
		m.TmovdMicros = bad
		if m.Finite() {
			t.Fatalf("Finite accepted %v", bad)
		}
	}
}

// TestDecomposeShardConcatenation checks that per-shard decomposition
// with carry context concatenates to the whole-trace result, for
// arbitrary cut points.
func TestDecomposeShardConcatenation(t *testing.T) {
	tr := streamTrace(1200)
	m, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tsdev := range []bool{false, true} {
		tr.TsdevKnown = tsdev
		if tsdev {
			for i := range tr.Requests {
				tr.Requests[i].Latency = time.Duration(50+i%200) * time.Microsecond
			}
		}
		wantIdle, wantAsync := Decompose(m, tr)

		cuts := []int{0, 137, 138, 500, 999, 1200}
		sort.Ints(cuts)
		flags := tr.SeqFlags()
		var gotIdle []time.Duration
		var gotAsync []bool
		for ci := 0; ci+1 < len(cuts); ci++ {
			lo, hi := cuts[ci], cuts[ci+1]
			ctx := ShardContext{TsdevKnown: tsdev, Seq: flags[lo:hi]}
			if lo > 0 {
				ctx.Prev = &tr.Requests[lo-1]
				ctx.PrevSeq = flags[lo-1]
			}
			if hi < tr.Len() {
				ctx.HasNext = true
				ctx.NextArrival = tr.Requests[hi].Arrival
			}
			idle, async := DecomposeShard(m, tr.Requests[lo:hi], ctx)
			gotIdle = append(gotIdle, idle...)
			gotAsync = append(gotAsync, async...)
		}
		if !reflect.DeepEqual(gotIdle, wantIdle) {
			t.Fatalf("tsdev=%v: idle concatenation differs", tsdev)
		}
		if !reflect.DeepEqual(gotAsync, wantAsync) {
			t.Fatalf("tsdev=%v: async concatenation differs", tsdev)
		}
	}
}

// TestClassifierBytesAtScale fits a generated 4M-request trace with
// webmail's shape — three sizes, reads and writes, half of them random,
// one gap in twenty past 2³² ns — fed in decoder-sized batches, and
// holds Bytes to the storage it is made of: 4 B a request and 8 B an
// escape, at most one part-filled chunk of each kind a group, the chunk
// tables, the keys and runs, and the flag scratch.
func TestClassifierBytesAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("fits 4M requests")
	}
	const n, batchLen = 4_000_000, 1 << 16
	rng := rand.New(rand.NewSource(24))
	c := NewStreamClassifier()
	batch := make([]trace.Request, batchLen)
	var now time.Duration
	var lba uint64
	escapes := 0
	for done := 0; done < n; done += batchLen {
		for i := range batch {
			sz := []uint32{8, 16, 32}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				lba = uint64(rng.Intn(1 << 30))
			}
			batch[i] = trace.Request{Arrival: now, LBA: lba, Sectors: sz, Op: trace.Op(rng.Intn(2))}
			lba += uint64(sz)
			gap := time.Duration(rng.ExpFloat64() * float64(2*time.Millisecond))
			if rng.Intn(20) == 0 {
				gap = escape + time.Duration(rng.Intn(60))*time.Second
			}
			if gap >= escape && done+i+1 < n {
				escapes++
			}
			now += gap
		}
		c.AddBatch(batch[:min(batchLen, n-done)])
	}
	if _, err := c.Estimate("scale"); err != nil {
		t.Fatal(err)
	}
	groups := len(c.keys)
	samples := int64(n - 1)
	// The tables hold a slice header a chunk, and the keys and runs a
	// group each, all grown by append: at most twice what they hold.
	chunks := samples/chunkLen + int64(escapes)/chunkLen + 2*int64(groups)
	perGroup := int64(unsafe.Sizeof(GroupKey{}) + unsafe.Sizeof(run{}))
	bound := 4*samples + 8*int64(escapes) + int64(groups)*chunkLen*(4+8) + 2*24*chunks +
		2*perGroup*int64(groups) + int64(cap(c.flags))
	got := c.Bytes()
	t.Logf("%d requests, %d groups, %d escapes: Bytes %d (%.2f B a request), bound %d",
		n, groups, escapes, got, float64(got)/n, bound)
	if got > bound {
		t.Fatalf("Bytes %d over the bound %d", got, bound)
	}
}

// TestClassifierBytesManyGroups holds what a group costs when there
// are many small ones — an upload whose every request has a size of its
// own — to 8 B a gap and 16 B an escape (a first chunk holds at most
// twice its values) plus a small constant a group: its key and run
// (grown by append, so twice each), first chunks of firstLen gaps and
// escapes, and a table entry for each. Groups of 1, 5 and 40 samples,
// gaps of 1 ms or every one escaped, are fed in decoder-sized batches.
// The float classifier kept 12 B a sample.
func TestClassifierBytesManyGroups(t *testing.T) {
	const n, batchLen = 100_000, 1 << 12
	perGroup := 2*int64(unsafe.Sizeof(GroupKey{})+unsafe.Sizeof(run{})) + firstLen*(4+8) + 2*24
	for _, size := range []int{1, 5, 40} {
		for _, gap := range []time.Duration{time.Millisecond, 5 * time.Second} {
			c := NewStreamClassifier()
			reqs := make([]trace.Request, n)
			for i := range reqs {
				reqs[i] = trace.Request{Arrival: time.Duration(i) * gap, LBA: uint64(i) << 20, Sectors: uint32(1 + i/size)}
			}
			for done := 0; done < n; done += batchLen {
				c.AddBatch(reqs[done:min(done+batchLen, n)])
			}
			groups, samples, escapes := int64(len(c.keys)), int64(n-1), int64(0)
			if gap >= escape {
				escapes = samples
			}
			bound := 8*samples + 16*escapes + perGroup*groups + int64(cap(c.flags))
			got := c.Bytes()
			t.Logf("groups of %d, gap %v: %d groups, Bytes %d (%.1f B a sample), bound %d",
				size, gap, groups, got, float64(got)/float64(samples), bound)
			if got > bound {
				t.Errorf("groups of %d, gap %v: Bytes %d over the bound %d", size, gap, got, bound)
			}
		}
	}
}

var sinkModel *Model

// webmailCSV is the benchmark's cold-infer-csv trace: FIU webmail, 100k
// requests, latencies dropped, arrivals quantized by a csv round trip.
func webmailCSV(tb testing.TB) *trace.Trace {
	tb.Helper()
	p, ok := workload.Lookup("webmail")
	if !ok {
		tb.Fatal("webmail profile missing")
	}
	app := workload.Generate(p, workload.GenOptions{Ops: 100_000, Seed: workload.TraceSeed("webmail", 0)})
	gen := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	gen.TsdevKnown = false
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, gen); err != nil {
		tb.Fatal(err)
	}
	tr, err := trace.ReadFormat("csv", &buf)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestClassifierBytesWebmail: what a classifier holds at the end of a
// fit of the cold-infer-csv trace — what an ingest of that trace holds
// until its fit ends — is at most 1.1 MB.
func TestClassifierBytesWebmail(t *testing.T) {
	tr := webmailCSV(t)
	c := NewStreamClassifier()
	c.AddBatch(tr.Requests)
	if _, err := c.Estimate(tr.Name); err != nil {
		t.Fatal(err)
	}
	got := c.Bytes()
	t.Logf("%d groups: Bytes %d", len(c.keys), got)
	if got > 1_100_000 {
		t.Fatalf("Bytes %d after a 100k webmail fit, want at most 1.1 MB", got)
	}
}

// BenchmarkEstimateGrouping prices the fit kernel as corpus ingest runs
// it, on the benchmark's cold-infer-csv shape — FIU webmail, 100k
// requests, latencies dropped, csv-quantized arrivals: StreamClassifier.
// Estimate on a new classifier filled with the trace, as every fit has
// its own (making and filling it is not timed). Since corpus ingest fits
// a Tsdev-unknown upload in its own decode pass, this is on every such
// upload's critical path; a
// change to the estimator claims against this row. The groups are
// examined on GOMAXPROCS goroutines, so it has two rows: `-cpu 1` is
// the serial cost (3.6–4.3 ms/op on a 2-CPU Xeon VM), `-cpu 2` what an
// upload waits for on that VM (2.4–2.8 ms/op, the largest group being
// the floor).
//
//	go test -run '^$' -bench BenchmarkEstimateGrouping -benchmem -cpu 1,2 ./internal/infer
func BenchmarkEstimateGrouping(b *testing.B) {
	tr := webmailCSV(b)
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := NewStreamClassifier()
		c.AddBatch(tr.Requests)
		b.StartTimer()
		if sinkModel, err = c.Estimate(tr.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzClassifierVsRef holds the StreamClassifier to classifyRef on
// generated traces, fed in random batch splits through AddBatch and
// through AddFlagged: the same group keys and samples, and the same
// fitted model (or ErrTooSparse from both). Each two input bytes are a
// request: op, device (one outside SeqState's array fast path), size,
// an LBA that continues its device, jumps, wraps past 2^64 or repeats
// the last one, and a gap of 0 (a duplicate arrival) up to 63 ms.
func FuzzClassifierVsRef(f *testing.F) {
	f.Add([]byte(nil), int64(0))
	f.Add([]byte{0x00, 0x05}, int64(1))
	f.Add([]byte{0x00, 0x05, 0x19, 0x00, 0x8a, 0x4c}, int64(2))
	dense := make([]byte, 0, 1600)
	for i := 0; i < 800; i++ {
		dense = append(dense, byte(i%3)<<5|byte(i%7)&1, byte(i%5+1)|byte(i%11%4)<<6)
	}
	f.Add(dense, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		tr := fuzzTrace(data)
		want := classifyRef(tr)
		rng := rand.New(rand.NewSource(seed))
		batched, flagged := NewStreamClassifier(), NewStreamClassifier()
		feed := func(add func([]trace.Request)) {
			for lo := 0; lo < tr.Len(); {
				hi := lo + rng.Intn(tr.Len()-lo+1)
				add(tr.Requests[lo:hi])
				lo = hi
			}
		}
		feed(batched.AddBatch)
		seq := trace.NewSeqState()
		feed(func(rs []trace.Request) { flagged.AddFlagged(rs, seq.AppendFlags(nil, rs)) })
		for name, c := range map[string]*StreamClassifier{"AddBatch": batched, "AddFlagged": flagged} {
			if got := c.Grouping(); !reflect.DeepEqual(got, want) || c.N() != tr.Len() {
				t.Fatalf("%s: %d requests, %d groups; reference %d groups", name, c.N(), len(got.Groups), len(want.Groups))
			}
		}

		wantM, wantErr := estimateGrouping(want, tr.Name)
		fits := map[string]func() (*Model, error){
			"Estimate":   func() (*Model, error) { return Estimate(tr, EstimateOptions{}) },
			"AddBatch":   func() (*Model, error) { return batched.Estimate(tr.Name) },
			"AddFlagged": func() (*Model, error) { return flagged.Estimate(tr.Name) },
		}
		for name, fit := range fits {
			m, err := fit()
			if wantErr != nil || err != nil {
				if !errors.Is(wantErr, ErrTooSparse) || !errors.Is(err, ErrTooSparse) {
					t.Fatalf("%s: err %v, reference err %v", name, err, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(m, wantM) {
				t.Fatalf("%s: model differs\n got %+v\nwant %+v", name, m, wantM)
			}
		}
	})
}

// fuzzTrace decodes FuzzClassifierVsRef's input into a trace with
// non-decreasing arrivals.
func fuzzTrace(data []byte) *trace.Trace {
	sizes := [8]uint32{1, 8, 8, 16, 64, 128, 256, 1024}
	devices := [4]uint32{0, 1, 2, 100}
	tr := &trace.Trace{Name: "fuzz"}
	ends := make(map[uint32]uint64)
	var now time.Duration
	var last uint64
	for i := 0; i+1 < len(data); i += 2 {
		b, g := data[i], data[i+1]
		r := trace.Request{Arrival: now, Device: devices[b>>1&3], Sectors: sizes[b>>5], Op: trace.Op(b & 1)}
		switch b >> 3 & 3 {
		case 0: // continues its device
			r.LBA = ends[r.Device]
		case 1: // jumps
			r.LBA = uint64(i) * 2654435761 % (1 << 40)
		case 2: // ends past 2^64
			r.LBA = math.MaxUint64 - uint64(g&7)
		default: // repeats the last start
			r.LBA = last
		}
		ends[r.Device], last = r.End(), r.LBA
		tr.Requests = append(tr.Requests, r)
		now += time.Duration(g&63) * time.Duration(math.Pow10(int(g>>6))) * time.Microsecond
	}
	return tr
}
