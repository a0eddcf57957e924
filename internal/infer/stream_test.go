package infer

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

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

// TestStreamClassifierMatchesClassify checks group keys and samples.
func TestStreamClassifierMatchesClassify(t *testing.T) {
	tr := streamTrace(2000)
	want := Classify(tr)
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

// TestEstimateGroupingMatchesEstimate checks the fitted models agree.
func TestEstimateGroupingMatchesEstimate(t *testing.T) {
	tr := streamTrace(4000)
	want, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewStreamClassifier()
	c.AddBatch(tr.Requests)
	got, err := EstimateGrouping(c.Grouping(), tr.Name, EstimateOptions{})
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
	if got, err = flagged.Estimate(tr.Name, EstimateOptions{}); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("flagged feed: %v\n got %+v\nwant %+v", err, got, want)
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

var sinkModel *Model

// BenchmarkEstimateGrouping prices the fit kernel on the benchmark's
// cold-infer-csv shape — FIU webmail, 100k requests, latencies dropped,
// csv-quantized arrivals, classified by the stream classifier. Since
// corpus ingest fits a Tsdev-unknown upload in its own decode pass,
// this is on every such upload's critical path; a change to the
// estimator claims against this row. The groups are examined on
// GOMAXPROCS goroutines, so it has two rows: `-cpu 1` is the serial
// cost (≈ 5.8 ms/op on a 2-CPU Xeon VM), `-cpu 2` what an upload waits
// for on that VM (≈ 3.0 ms/op, the largest group being the floor).
//
//	go test -run '^$' -bench BenchmarkEstimateGrouping -benchmem -cpu 1,2 ./internal/infer
func BenchmarkEstimateGrouping(b *testing.B) {
	p, ok := workload.Lookup("webmail")
	if !ok {
		b.Fatal("webmail profile missing")
	}
	app := workload.Generate(p, workload.GenOptions{Ops: 100_000, Seed: workload.TraceSeed("webmail", 0)})
	gen := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	gen.TsdevKnown = false
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, gen); err != nil {
		b.Fatal(err)
	}
	tr, err := trace.ReadFormat("csv", &buf)
	if err != nil {
		b.Fatal(err)
	}
	c := NewStreamClassifier()
	c.AddBatch(tr.Requests)
	g := c.Grouping()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkModel, err = EstimateGrouping(g, tr.Name, EstimateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
