package engine

// Steady-state allocation lock for the streaming reconstruction: with
// the zero-allocation codec and pooled epoch buffers and
// decomposition scratch, a Tsdev-known run must cost (amortized)
// near-zero allocations per request — the budget below allows only
// the fixed per-run setup (decoder, channels, goroutines, pool warmup)
// spread over the request count.

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/trace"
)

// allocBenchTrace synthesizes a recorded-latency trace with idle gaps
// so the planner cuts many shards.
func allocBenchTrace(n int) *trace.Trace {
	t := &trace.Trace{Name: "alloc", Workload: "w", Set: "MSPS", TsdevKnown: true}
	t.Requests = make([]trace.Request, n)
	arr := time.Duration(0)
	for i := range t.Requests {
		gap := 40 * time.Microsecond
		if i%2048 == 2047 {
			gap = 5 * time.Millisecond // idle cut opportunity
		}
		arr += gap
		t.Requests[i] = trace.Request{
			Arrival: arr,
			Device:  uint32(i % 3),
			LBA:     uint64(i*8) % (1 << 28),
			Sectors: uint32(8 + (i%4)*8),
			Op:      trace.Op(i % 2),
			Latency: time.Duration(80+i%40) * time.Microsecond,
		}
	}
	return t
}

// TestStreamReconstructAllocBound locks the amortized allocation cost
// of ReconstructStream on the recorded-latency path — with
// instrumentation disabled (the nil Config.Metrics and Config.Trace
// hooks must leave the hot path untouched), with a live metrics
// registry attached, and with both metrics and a span recorder on.
// The instrumentation itself must be allocation-free: atomic updates
// on pre-registered metrics, and spans appended into the Tracer's
// fixed preallocated buffer — so every configuration shares the same
// 0.05 allocs/request bound (the fixed per-run setup amortized over
// the request count). The serviced targets are each held to the same
// bound — one device per run, so what they add is their own
// construction: the host stack with a cache small enough that evictions
// and high-water flushes run throughout, the FTL with a geometry small
// enough that foreground and background GC erase blocks throughout, and
// the HDD — and so is the array rendering csv, the text format's
// per-epoch byte buffers recycling like the request buffers.
func TestStreamReconstructAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting at full trace size")
	}
	const n = 200_000
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, allocBenchTrace(n)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	factory := func(spec JobSpec) func() device.Device {
		return deviceEntryFor(spec.Device).build(spec)
	}
	host := factory(JobSpec{Device: "host", HostConfig: &HostSpec{CachePages: 4096}})
	ftl := factory(JobSpec{Device: "ftl", FTLConfig: &FTLSpec{Blocks: 128, PagesPerBlock: 64, OverprovisionPct: 0.4}})
	hdd := factory(JobSpec{Device: "hdd"})

	cases := []struct {
		name    string
		metrics *obs.Registry // nil = no metrics hook
		tracer  *obs.Tracer
		device  func() device.Device // nil = the default array
		csv     bool                 // render csv instead of bin
	}{
		{"hooks-disabled", nil, nil, nil, false},
		{"metrics-enabled", obs.NewRegistry(), nil, nil, false},
		{"metrics-and-tracer-enabled",
			obs.NewRegistry(),
			obs.NewTracer("allocbound", 0, obs.TraceContext{}), nil, false},
		{"host-device", nil, nil, host, false},
		{"ftl-device", nil, nil, ftl, false},
		{"hdd-device", nil, nil, hdd, false},
		{"array-csv", nil, nil, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hook *obs.EngineMetrics
			if tc.metrics != nil {
				hook = obs.NewEngineMetrics(tc.metrics)
			}
			eng := New(Config{Workers: 2, MaxShardRequests: 4096, Metrics: hook, Trace: tc.tracer, Device: tc.device})
			var stats []device.Stat
			run := func() {
				dec := decoderOf(t, "bin", data)
				var enc trace.Encoder = trace.NewBinaryEncoder(io.Discard)
				if tc.csv {
					enc = trace.NewCSVEncoder(io.Discard)
				}
				rep, err := eng.ReconstructStream(dec, enc, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Requests != n {
					t.Fatalf("reconstructed %d of %d requests", rep.Requests, n)
				}
				stats = rep.DeviceStats
			}
			run() // warm up code paths

			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			run()
			runtime.ReadMemStats(&m1)

			perReq := float64(m1.Mallocs-m0.Mallocs) / float64(n)
			if perReq > 0.05 {
				t.Fatalf("streaming reconstruction allocates %.4f objects per request (%d total), want amortized ~0",
					perReq, m1.Mallocs-m0.Mallocs)
			}
			if tc.metrics != nil {
				if got := metricOf(t, tc.metrics, "engine_requests_total", nil); got != 2*n {
					t.Fatalf("engine_requests_total = %v, want %d", got, 2*n)
				}
				for _, stage := range []obs.SpanName{obs.StageDecompose, obs.StageEmulate, obs.StageMerge} {
					l := obs.Labels{"stage": stage.String()}
					if metricOf(t, tc.metrics, "engine_stage_seconds_total", l) <= 0 {
						t.Fatalf("stage %s recorded no time", stage)
					}
				}
			}
			for _, st := range stats {
				switch st.Name {
				case "cache_misses", "flushed_pages", "foreground_gc", "background_gc":
					if st.Value == 0 {
						t.Fatalf("fixture created no cache/writeback/GC pressure: %+v", stats)
					}
				}
			}
			if tc.tracer != nil {
				// The bound must hold while spans are actually recorded,
				// not because the buffer silently filled on warmup.
				jt := tc.tracer.Snapshot()
				if len(jt.Spans) < 3 {
					t.Fatalf("tracer recorded %d spans, want the run's plan and epoch spans", len(jt.Spans))
				}
			}
		})
	}
}

// TestHostCacheBoundedByResidency guards the "grow on demand" half of
// the flat cache: a spec may ask for the largest cache validation
// allows (4 Mi pages — ~100 MB of slab and ~32 MB of index if sized up
// front), but a job pays only for the pages it touches.
func TestHostCacheBoundedByResidency(t *testing.T) {
	spec := JobSpec{In: "x", Device: "host", HostConfig: &HostSpec{CachePages: 1 << 22}}.Normalized()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	mk := deviceEntryFor(spec.Device).build(spec)
	reqs := allocBenchTrace(1000).Requests

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dev := mk()
	now := time.Duration(0)
	for _, r := range reqs {
		now = dev.Submit(now, r).Complete
	}
	runtime.ReadMemStats(&m1)

	if got := m1.TotalAlloc - m0.TotalAlloc; got > 1<<20 {
		t.Fatalf("1k requests on a %d-page cache allocated %d bytes, want < 1 MiB", 1<<22, got)
	}
}

// TestMeasuredHotPathsAnnotated closes the loop between this file's
// allocation bounds and the tracelint hotpath analyzer: every function
// on the measured path (the codec record loops exercised through
// ReconstructStream and locked by trace/zeroalloc_test.go, the
// engine's per-epoch stages locked above, and the emulation loop with
// the flash models it runs) must carry
// //tracelint:hotpath, so a regression is rejected at the allocating
// line by `go vet -vettool`, not just caught after the fact by the
// benchmark's amortized bound.
func TestMeasuredHotPathsAnnotated(t *testing.T) {
	// (file, receiver type or "", function name); receivers are matched
	// without pointer markers.
	measured := []struct {
		file string
		recv string
		name string
	}{
		{"../trace/stream.go", "text", "read"},
		{"../trace/stream.go", "text", "Read"},
		{"../trace/stream.go", "csvDecoder", "line"},
		{"../trace/stream.go", "msrcDecoder", "line"},
		{"../trace/stream.go", "spcDecoder", "line"},
		{"../trace/stream.go", "binaryDecoder", "next"},
		{"../trace/stream.go", "binaryDecoder", "Read"},
		{"../trace/stream.go", "SeqState", "AppendFlags"},
		{"../trace/stream.go", "CSVEncoder", "Write"},
		{"../trace/stream.go", "BinaryEncoder", "Write"},
		{"../trace/stream.go", "BlktraceEncoder", "Write"},
		{"../trace/stream.go", "FIOEncoder", "Write"},
		{"../trace/stream.go", "CSVEncoder", "AppendRecords"},
		{"../trace/stream.go", "BinaryEncoder", "AppendRecords"},
		{"../trace/summary.go", "Summarizer", "AddBatch"},
		{"../trace/scan.go", "", "appendUint"},
		{"../trace/scan.go", "", "putUint"},
		{"../trace/scan.go", "", "putMicros"},
		{"../trace/scan.go", "", "appendSeconds"},
		{"../trace/scan.go", "", "putSeconds"},
		{"plan.go", "streamPlanner", "addBatch"},
		{"exec.go", "run", "decompose"},
		{"exec.go", "run", "devicePass"},
		{"exec.go", "run", "finish"},
		{"exec.go", "run", "emit"},
		{"../replay/replay.go", "", "EmulateEpoch"},
		{"../device/ssd.go", "SSD", "Submit"},
		{"../device/ssd.go", "SSD", "DrainedLatency"},
		{"../device/array.go", "Array", "Submit"},
		{"../device/array.go", "Array", "DrainedLatency"},
		{"../device/ftl.go", "FTLDevice", "Submit"},
		{"../ftl/ftl.go", "FTL", "Write"},
		{"../ftl/ftl.go", "FTL", "Read"},
		{"../ftl/ftl.go", "FTL", "Idle"},
		{"../ftl/ftl.go", "FTL", "program"},
		{"../ftl/ftl.go", "FTL", "collect"},
		{"../ftl/ftl.go", "FTL", "reclaim"},
		{"../ftl/ftl.go", "FTL", "invalidate"},
		{"../ftl/ftl.go", "FTL", "PagesOf"},
		{"../ftl/ftl.go", "FTL", "pageOf"},
		{"../ftl/ftl.go", "FTL", "victim"},
		{"../ftl/ftl.go", "FTL", "popFree"},
		{"../ftl/ftl.go", "FTL", "pushFree"},
		{"../hoststack/hoststack.go", "Stack", "Submit"},
		{"../hoststack/hoststack.go", "Stack", "read"},
		{"../hoststack/hoststack.go", "Stack", "write"},
		{"../hoststack/hoststack.go", "Stack", "touch"},
		{"../hoststack/hoststack.go", "Stack", "install"},
		{"../hoststack/hoststack.go", "Stack", "evict"},
		{"../hoststack/hoststack.go", "Stack", "maybeFlush"},
		{"../hoststack/hoststack.go", "Stack", "writeBack"},
		{"../hoststack/hoststack.go", "Stack", "issue"},
		{"../hoststack/hoststack.go", "Stack", "find"},
		{"../hoststack/hoststack.go", "Stack", "home"},
		{"../hoststack/hoststack.go", "Stack", "indexAdd"},
		{"../hoststack/hoststack.go", "Stack", "indexRemove"},
		{"../hoststack/hoststack.go", "Stack", "unlink"},
		{"../hoststack/hoststack.go", "Stack", "pushFront"},
	}
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	for _, m := range measured {
		f, ok := parsed[m.file]
		if !ok {
			var err error
			f, err = parser.ParseFile(fset, m.file, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed[m.file] = f
		}
		fn := findFunc(f, m.recv, m.name)
		if fn == nil {
			t.Errorf("%s: measured function %s.%s not found", m.file, m.recv, m.name)
			continue
		}
		if !hasHotpathDirective(fn) {
			t.Errorf("%s: %s.%s is on a measured zero-alloc path but lacks //tracelint:hotpath",
				m.file, m.recv, m.name)
		}
	}
}

func findFunc(f *ast.File, recv, name string) *ast.FuncDecl {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != name {
			continue
		}
		if recv == "" {
			if fn.Recv == nil {
				return fn
			}
			continue
		}
		if fn.Recv == nil || len(fn.Recv.List) != 1 {
			continue
		}
		rt := fn.Recv.List[0].Type
		if star, ok := rt.(*ast.StarExpr); ok {
			rt = star.X
		}
		if id, ok := rt.(*ast.Ident); ok && id.Name == recv {
			return fn
		}
	}
	return nil
}

func hasHotpathDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == "//tracelint:hotpath" {
			return true
		}
	}
	return false
}

// TestRunJobTsdevKnownAllocs bounds what a whole job on a Tsdev-known
// 200k-request bin allocates, decode to encode. Its first pass is a
// one-record probe of the input's metadata, which must read through a
// kept read buffer like every other decode, not allocate a fresh
// 128 KiB one per job.
func TestRunJobTsdevKnownAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting at full trace size")
	}
	if raceEnabled {
		t.Skip("the race runtime's own allocations swamp a byte bound")
	}
	const n = 200_000
	in := filepath.Join(t.TempDir(), "old.bin")
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, allocBenchTrace(n)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 2, MaxShardRequests: 4096}
	spec := JobSpec{In: in, InFormat: "bin", OutFormat: "bin"}
	run := func() {
		rep, err := RunJobTo(cfg, spec, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Requests != n {
			t.Fatalf("reconstructed %d of %d requests", rep.Requests, n)
		}
	}
	run() // warm up code paths and the kept buffers

	// A run allocates more when scheduling keeps more epochs in flight
	// than the pools have seen yet: the least of several runs is what a
	// job itself costs.
	perJob := math.Inf(1)
	for i := 0; i < 6; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		perJob = min(perJob, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	t.Logf("a Tsdev-known %d-request bin job allocates %.0f B", n, perJob)
	if perJob > 2.60e6 {
		t.Fatalf("a Tsdev-known %d-request bin job allocates %.2f MB, want <= 2.60 MB", n, perJob/1e6)
	}
}
