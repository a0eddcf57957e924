package engine

// The cold cycle the daemon repeats for every new trace — ingest the
// upload into a corpus store (summary + model fit), then run a job on
// it (decode → reconstruct → encode into the result cache) — priced in
// allocations, on one Store and one Config as the daemon holds them.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/trace"
)

// coldCycleName is the trace name coldCycleInput writes into the csv
// header; cycle overwrites its digits so every upload is a new blob
// while the records, and so the work, stay the same.
const coldCycleName = "cold-cycle-000000"

// coldCycleInput renders an ops-request webmail trace (Tsdev unknown,
// so ingest fits its model) as csv.
func coldCycleInput(tb testing.TB, ops int) []byte {
	tb.Helper()
	old := genOld(tb, "webmail", ops, false)
	old.Name = coldCycleName
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, old); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// coldCycler runs cold cycles of one input on one Store and one Config.
type coldCycler struct {
	store *corpus.Store
	cfg   Config
	blob  []byte
	at    int // offset of coldCycleName's digits in blob
	n     int
}

func newColdCycler(tb testing.TB, blob []byte, workers int) *coldCycler {
	tb.Helper()
	store, err := corpus.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	at := bytes.Index(blob, []byte(coldCycleName))
	if at < 0 {
		tb.Fatal("input carries no cycle name")
	}
	blob = bytes.Clone(blob)
	return &coldCycler{store: store, cfg: Config{Workers: workers}, blob: blob, at: at + len(coldCycleName) - 6}
}

// cycle ingests a renamed copy of the input and runs a csv → array job
// on it under a tracer, as the daemon does for a corpus job.
func (c *coldCycler) cycle(tb testing.TB) *JobResult {
	c.n++
	copy(c.blob[c.at:], fmt.Sprintf("%06d", c.n%1_000_000))
	e, created, err := c.store.Ingest(bytes.NewReader(c.blob), "csv")
	if err != nil || !created || e.Model == nil {
		tb.Fatalf("cycle %d: ingest created=%v model=%v: %v", c.n, created, e.Model != nil, err)
	}
	in, err := c.store.BlobPath(e.Digest)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := c.cfg
	cfg.Trace = obs.NewTracer("cold-cycle", 0, obs.TraceContext{})
	res, hit, err := RunJobCached(cfg, JobSpec{In: in}, e.Digest, c.store)
	if err != nil || hit {
		tb.Fatalf("cycle %d: hit=%v: %v", c.n, hit, err)
	}
	cfg.Trace.Finish()
	return res
}

// coldCycleBudget is what a warm cold cycle of a 100k-request webmail
// csv may allocate: 4 MB. It measures ≈ 2.6 MB (3.4 MB under -race) on
// a 2-CPU Xeon VM, the ingest's fit building its classifier afresh; with
// every decode and job building its scratch afresh too it read 13.0 MB.
const coldCycleBudget = 4_000_000

// TestColdCycleAllocs holds a warm cold cycle — ingest plus job of a
// 100k-request webmail csv on one store and one Config — to
// coldCycleBudget.
func TestColdCycleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting at full trace size")
	}
	c := newColdCycler(t, coldCycleInput(t, 100_000), 2)
	c.cycle(t) // warm up
	const cycles = 10
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < cycles; i++ {
		c.cycle(t)
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / cycles
	t.Logf("%d B allocated per cycle, %d GC cycles over %d cycles", per, m1.NumGC-m0.NumGC, cycles)
	if per > coldCycleBudget {
		t.Errorf("a warm cold cycle allocated %d B, want <= %d B", per, coldCycleBudget)
	}
}

// BenchmarkColdCycle prices one warm cold cycle; run it with -benchmem.
func BenchmarkColdCycle(b *testing.B) {
	c := newColdCycler(b, coldCycleInput(b, 100_000), 2)
	c.cycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.cycle(b)
	}
}
