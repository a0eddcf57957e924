package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/trace"
	"repro/internal/workload"
)

// genOld synthesizes an application for a workload family and runs it
// against the OLD device to obtain a ground-truth block trace (the
// same construction the experiments use).
func genOld(t testing.TB, family string, ops int, tsdevKnown bool) *trace.Trace {
	t.Helper()
	p, ok := workload.Lookup(family)
	if !ok {
		t.Fatalf("unknown workload family %q", family)
	}
	app := workload.Generate(p, workload.GenOptions{Ops: ops, Seed: workload.TraceSeed(family, 0)})
	res := app.Execute(device.NewHDD(device.DefaultHDDConfig()))
	old := res.Trace
	old.Name = family + "-000"
	old.Workload = family
	old.TsdevKnown = tsdevKnown
	if !tsdevKnown {
		for i := range old.Requests {
			old.Requests[i].Latency = 0
		}
	}
	return old
}

func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decoderOf is a sequential decoder over data in the named format.
func decoderOf(t testing.TB, format string, data []byte) trace.Decoder {
	t.Helper()
	dec, err := trace.NewDecoder(format, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// testConfig forces small shards so even unit-test traces split into
// many epochs. Every cut it makes is a size cut: the bound is below
// the idle-cut floor of 1024 requests.
func testConfig(workers int) Config {
	return Config{Workers: workers, MaxShardRequests: 128}
}

// dynamicJobIdentity is the Dynamic leg of the identity tests: old runs
// as a dynamic job — RunJobTo from and to a bin rendering, on spec's
// target — at 1, 4 and 8 workers, and the bytes, aggregates, model and
// device stats must equal core.Reconstruct without post-processing on
// the same target. It returns the sequential run's device stats.
func dynamicJobIdentity(t *testing.T, label string, old *trace.Trace, spec JobSpec) []device.Stat {
	t.Helper()
	spec = spec.Normalized()
	mk := deviceEntryFor(spec.Device).build(spec)
	wantTrace, wantRep, err := core.Reconstruct(old, mk(), core.Options{SkipPostProcess: true})
	if err != nil {
		t.Fatalf("%s: sequential: %v", label, err)
	}
	want := encodeBin(t, wantTrace)
	spec.In, spec.InFormat, spec.OutFormat, spec.Method = writeBinInput(t, t.TempDir(), old), "bin", "bin", "dynamic"
	for _, workers := range []int{1, 4, 8} {
		var got bytes.Buffer
		rep, err := RunJobTo(testConfig(workers), spec, &got)
		if err != nil {
			t.Fatalf("%s w=%d: dynamic job: %v", label, workers, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s w=%d: dynamic job output not byte-identical to the sequential pipeline", label, workers)
		}
		if rep.Shards < 2 || rep.IdleCount != wantRep.IdleCount || rep.IdleTotal != wantRep.IdleTotal ||
			rep.AsyncCount != wantRep.AsyncCount || !reflect.DeepEqual(rep.Model, wantRep.Model) ||
			!reflect.DeepEqual(rep.DeviceStats, wantRep.DeviceStats) {
			t.Fatalf("%s w=%d: dynamic job report %+v diverges from the sequential pipeline's %+v", label, workers, rep, wantRep)
		}
	}
	return wantRep.DeviceStats
}

// metricOf scrapes reg and returns the value of the series name{labels},
// read the way /metrics serves it.
func metricOf(t *testing.T, reg *obs.Registry, name string, labels obs.Labels) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obstest.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	v, ok := obstest.SampleValue(samples, name, labels)
	if !ok {
		t.Fatalf("no series %s%v", name, labels)
	}
	return v
}

// modelFits reads engine_model_fits_total by source.
func modelFits(t *testing.T, reg *obs.Registry) (job, stored float64) {
	t.Helper()
	return metricOf(t, reg, "engine_model_fits_total", obs.Labels{"source": "job"}),
		metricOf(t, reg, "engine_model_fits_total", obs.Labels{"source": "stored"})
}

// adversary is one generated input aimed at an edge of the scheduler,
// with the config shape that reaches it.
type adversary struct {
	name  string
	old   *trace.Trace
	shape func(*Config)
}

// synthTrace builds a recorded-latency trace of n requests, gap apart.
func synthTrace(name string, n int, gap time.Duration) *trace.Trace {
	t := &trace.Trace{Name: name, Workload: name, Set: "synth", TsdevKnown: true}
	t.Requests = make([]trace.Request, n)
	for i := range t.Requests {
		t.Requests[i] = trace.Request{
			Arrival: time.Millisecond + time.Duration(i)*gap,
			Device:  uint32(i % 2),
			LBA:     uint64(i*24) % (1 << 22),
			Sectors: uint32(8 + (i%3)*8),
			Op:      trace.Op(i % 2),
			Latency: time.Duration(60+i%50) * time.Microsecond,
		}
	}
	return t
}

func adversaries(t *testing.T) []adversary {
	t.Helper()
	return []adversary{
		// Every gap is below the 1 ms idle cut: only size cuts fire,
		// whatever the bound.
		{name: "gapless", old: synthTrace("gapless", 2000, 20*time.Microsecond)},
		{name: "dup-timestamps", old: synthTrace("dup", 1500, 0)},
		{name: "one-request-epochs", old: genOld(t, "MSNFS", 300, true),
			shape: func(c *Config) { c.MaxShardRequests = 1 }},
		{name: "single-request", old: synthTrace("single", 1, 0)},
	}
}

// adversaryIdentity runs every adversary on one device at workers 1, 4
// and 8, through Engine.Reconstruct's collector and streamed — csv
// (pre-rendered by the workers) and blktrace (always written record by
// record at the merge) — and requires each result to match
// core.Reconstruct byte for byte, with the same aggregates and device
// stats.
func adversaryIdentity(t *testing.T, device string, mk func() device.Device) {
	t.Helper()
	encoders := map[string]func(*bytes.Buffer) trace.Encoder{
		"csv":      func(w *bytes.Buffer) trace.Encoder { return trace.NewCSVEncoder(w) },
		"blktrace": func(w *bytes.Buffer) trace.Encoder { return trace.NewBlktraceEncoder(w) },
	}
	for _, adv := range adversaries(t) {
		label := device + "/" + adv.name
		wantTrace, wantRep, err := core.Reconstruct(adv.old, mk(), core.Options{})
		if err != nil {
			t.Fatalf("%s: sequential: %v", label, err)
		}
		want := traceBytes(t, wantTrace)
		wantStream := map[string][]byte{}
		for name, newEnc := range encoders {
			var buf bytes.Buffer
			if err := trace.EncodeTrace(newEnc(&buf), wantTrace); err != nil {
				t.Fatal(err)
			}
			wantStream[name] = buf.Bytes()
		}
		input := traceBytes(t, adv.old)
		for _, workers := range []int{1, 4, 8} {
			cfg := testConfig(workers)
			cfg.Device = mk
			if adv.shape != nil {
				adv.shape(&cfg)
			}
			e := New(cfg)
			gotTrace, gotRep, err := e.Reconstruct(adv.old)
			if err != nil {
				t.Fatalf("%s w=%d: engine: %v", label, workers, err)
			}
			if !bytes.Equal(traceBytes(t, gotTrace), want) {
				t.Fatalf("%s w=%d: collected output not byte-identical to sequential pipeline", label, workers)
			}
			if gotRep.IdleCount != wantRep.IdleCount || gotRep.IdleTotal != wantRep.IdleTotal ||
				gotRep.AsyncCount != wantRep.AsyncCount || !reflect.DeepEqual(gotRep.DeviceStats, wantRep.DeviceStats) {
				t.Fatalf("%s w=%d: collected report diverges", label, workers)
			}
			for name, newEnc := range encoders {
				var got bytes.Buffer
				rep, err := e.ReconstructStream(decoderOf(t, "bin", input), newEnc(&got), nil)
				if err != nil {
					t.Fatalf("%s %s w=%d: stream: %v", label, name, workers, err)
				}
				if !bytes.Equal(got.Bytes(), wantStream[name]) {
					t.Fatalf("%s %s w=%d: streamed output diverges from the sequential pipeline", label, name, workers)
				}
				if rep.Requests != int64(adv.old.Len()) || rep.IdleCount != wantRep.IdleCount ||
					rep.IdleTotal != wantRep.IdleTotal || rep.AsyncCount != wantRep.AsyncCount ||
					!reflect.DeepEqual(rep.DeviceStats, wantRep.DeviceStats) {
					t.Fatalf("%s %s w=%d: stream report diverges", label, name, workers)
				}
			}
		}
	}
}

// TestParallelByteIdentical is the engine's central guarantee: for
// N=1,4,8 workers the parallel reconstruction is byte-identical to the
// sequential core pipeline, across workload families, both latency
// paths, and both post-processing settings (tracetracker through
// Engine.Reconstruct at the default shard bound, where the planner cuts
// at idle gaps, and dynamic as a job on small size-cut shards) — and,
// on every shard-safe registry device, across the generated
// adversaries.
func TestParallelByteIdentical(t *testing.T) {
	for _, name := range []string{"array", "ssd"} {
		mk, err := DeviceFactory(name)
		if err != nil {
			t.Fatal(err)
		}
		if !device.IsShardSafe(mk()) {
			t.Fatalf("registry device %s is no longer shard-safe", name)
		}
		adversaryIdentity(t, name, mk)
	}
	families := []string{"ikki", "MSNFS", "Exchange"}
	for _, family := range families {
		for _, tsdev := range []bool{true, false} {
			old := genOld(t, family, 3000, tsdev)
			wantTrace, wantRep, err := core.Reconstruct(old, device.NewArray(device.DefaultArrayConfig()), core.Options{})
			if err != nil {
				t.Fatalf("%s tsdev=%v: sequential: %v", family, tsdev, err)
			}
			want := traceBytes(t, wantTrace)
			for _, workers := range []int{1, 4, 8} {
				e := New(Config{Workers: workers})
				gotTrace, gotRep, err := e.Reconstruct(old)
				if err != nil {
					t.Fatalf("%s tsdev=%v w=%d: engine: %v", family, tsdev, workers, err)
				}
				// Size cuts alone would leave the trace in one shard.
				if gotRep.Shards < 2 {
					t.Fatalf("%s tsdev=%v w=%d: %d shards, want idle cuts", family, tsdev, workers, gotRep.Shards)
				}
				if got := traceBytes(t, gotTrace); !bytes.Equal(got, want) {
					t.Fatalf("%s tsdev=%v w=%d: output not byte-identical to sequential pipeline", family, tsdev, workers)
				}
				if gotRep.IdleCount != wantRep.IdleCount || gotRep.IdleTotal != wantRep.IdleTotal ||
					gotRep.AsyncCount != wantRep.AsyncCount {
					t.Fatalf("%s tsdev=%v w=%d: report aggregates diverge: got %d/%v/%d want %d/%v/%d",
						family, tsdev, workers,
						gotRep.IdleCount, gotRep.IdleTotal, gotRep.AsyncCount,
						wantRep.IdleCount, wantRep.IdleTotal, wantRep.AsyncCount)
				}
				if !reflect.DeepEqual(gotRep.Model, wantRep.Model) {
					t.Fatalf("%s tsdev=%v w=%d: model diverges", family, tsdev, workers)
				}
			}
			dynamicJobIdentity(t, fmt.Sprintf("%s tsdev=%v", family, tsdev), old, JobSpec{})
		}
	}
}

// TestFlagClearedParity: a trace that records its latencies but has its
// TsdevKnown flag cleared takes the inference path in the engine exactly
// as in the sequential pipeline — the recorded latencies stay out of the
// decomposition.
func TestFlagClearedParity(t *testing.T) {
	old := genOld(t, "ikki", 2000, true)
	old.TsdevKnown = false
	wantTrace, wantRep, err := core.Reconstruct(old, device.NewArray(device.DefaultArrayConfig()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotTrace, gotRep, err := New(testConfig(4)).Reconstruct(old)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traceBytes(t, gotTrace), traceBytes(t, wantTrace)) {
		t.Fatal("engine output on a flag-cleared trace diverges from sequential")
	}
	if gotRep.Model == nil || !reflect.DeepEqual(gotRep.Model, wantRep.Model) {
		t.Fatalf("model %+v, want the sequential fit %+v", gotRep.Model, wantRep.Model)
	}
}

// TestNonShardSafeFallback checks there is no fallback any more: a
// device that does not declare shard-safe emulation (an Instrumented
// wrapper hides it) runs the serviced graph, which needs only in-order
// Submit — many epochs, at any worker count, collected by
// Engine.Reconstruct and streamed through both encoder classes (csv
// pre-rendered in the workers, blktrace encoded in the merge) —
// byte-identical to the sequential pipeline.
func TestNonShardSafeFallback(t *testing.T) {
	old := genOld(t, "ikki", 3000, true)
	mk := func() device.Device { return device.NewInstrumented(device.NewHDD(device.DefaultHDDConfig())) }
	if device.IsShardSafe(mk()) {
		t.Fatal("fixture device must not be shard-safe")
	}
	want, wantRep, err := core.Reconstruct(old, mk(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameReport := func(idleCount int, idleTotal time.Duration, asyncCount int, stats []device.Stat) bool {
		return idleCount == wantRep.IdleCount && idleTotal == wantRep.IdleTotal &&
			asyncCount == wantRep.AsyncCount && reflect.DeepEqual(stats, wantRep.DeviceStats)
	}
	var input bytes.Buffer
	if err := trace.WriteBinary(&input, old); err != nil {
		t.Fatal(err)
	}
	encoders := map[string]func(io.Writer) trace.Encoder{
		"csv":      func(w io.Writer) trace.Encoder { return trace.NewCSVEncoder(w) },
		"blktrace": func(w io.Writer) trace.Encoder { return trace.NewBlktraceEncoder(w) },
	}
	for _, workers := range []int{1, 4, 8} {
		cfg := testConfig(workers)
		cfg.Device = mk
		e := New(cfg)
		got, rep, err := e.Reconstruct(old)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(traceBytes(t, got), traceBytes(t, want)) {
			t.Fatalf("w=%d: wrapped-device output diverges from the serial path", workers)
		}
		if rep.Shards < 2 {
			t.Fatalf("w=%d: expected the graph to run multiple epochs, got %d", workers, rep.Shards)
		}
		if !sameReport(rep.IdleCount, rep.IdleTotal, rep.AsyncCount, rep.DeviceStats) {
			t.Fatalf("w=%d: wrapped-device report diverges from the serial path", workers)
		}
		for encName, mkEnc := range encoders {
			var wantBytes, gotBytes bytes.Buffer
			if err := trace.EncodeTrace(mkEnc(&wantBytes), want); err != nil {
				t.Fatal(err)
			}
			srep, err := e.ReconstructStream(decoderOf(t, "bin", input.Bytes()), mkEnc(&gotBytes), nil)
			if err != nil {
				t.Fatalf("%s w=%d: stream: %v", encName, workers, err)
			}
			if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
				t.Fatalf("%s w=%d: streamed wrapped-device output diverges from the serial path", encName, workers)
			}
			if srep.Shards < 2 {
				t.Fatalf("%s w=%d: expected the graph to run multiple epochs, got %d", encName, workers, srep.Shards)
			}
			if !sameReport(srep.IdleCount, srep.IdleTotal, srep.AsyncCount, srep.DeviceStats) {
				t.Fatalf("%s w=%d: streamed wrapped-device report diverges from the serial path", encName, workers)
			}
		}
	}
}

// TestShardSafeRenderByteIdentical locks the graph on a shard-safe
// target: epochs emulated from time zero, chained by the middle stage,
// then offset, post-processed and rendered in the workers. On the array,
// on both latency paths, for every output format — csv and bin spliced
// from worker-rendered bytes, blktrace and fio encoded serially at the
// merge — every worker count and both entry points, the bytes equal a
// whole-trace encode of the sequential reconstruction, over enough small
// epochs that the chained base and shift are non-zero almost everywhere,
// and the reports carry the sequential idle/async aggregates.
func TestShardSafeRenderByteIdentical(t *testing.T) {
	for _, tsdev := range []bool{true, false} {
		old := genOld(t, "MSNFS", 6000, tsdev)
		array := func() device.Device { return device.NewArray(device.DefaultArrayConfig()) }
		wantTrace, wantRep, err := core.Reconstruct(old, array(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if wantRep.IdleCount == 0 || wantRep.AsyncCount == 0 {
			t.Fatalf("tsdev=%v: fixture infers no idle or async requests to aggregate", tsdev)
		}
		unshifted, _, err := core.Reconstruct(old, array(), core.Options{SkipPostProcess: true})
		if err != nil {
			t.Fatal(err)
		}
		last := old.Len() - 1
		if unshifted.Requests[last].Arrival == wantTrace.Requests[last].Arrival {
			t.Fatal("fixture accumulates no post-processing shift to chain")
		}
		var input bytes.Buffer
		if err := trace.WriteBinary(&input, old); err != nil {
			t.Fatal(err)
		}
		encode := func(format string, tr *trace.Trace) []byte {
			var buf bytes.Buffer
			enc, err := trace.NewEncoder(format, &buf, "/dev/sdz")
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.EncodeTrace(enc, tr); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		for _, format := range []string{"csv", "bin", "blktrace", "fio"} {
			want := encode(format, wantTrace)
			for _, workers := range []int{1, 2, 4, 8} {
				cfg := testConfig(workers)
				cfg.MaxShardRequests = 96
				e := New(cfg)

				colTrace, colRep, err := e.Reconstruct(old)
				if err != nil {
					t.Fatalf("%s tsdev=%v w=%d: collected: %v", format, tsdev, workers, err)
				}
				if colRep.Shards < 50 {
					t.Fatalf("%s w=%d: %d epochs, want >= 50", format, workers, colRep.Shards)
				}
				if !bytes.Equal(encode(format, colTrace), want) {
					t.Fatalf("%s tsdev=%v w=%d: collected output diverges from the sequential pipeline", format, tsdev, workers)
				}
				if colRep.IdleCount != wantRep.IdleCount || colRep.IdleTotal != wantRep.IdleTotal || colRep.AsyncCount != wantRep.AsyncCount {
					t.Fatalf("%s tsdev=%v w=%d: collected report diverges: %+v", format, tsdev, workers, colRep)
				}

				var got bytes.Buffer
				enc, err := trace.NewEncoder(format, &got, "/dev/sdz")
				if err != nil {
					t.Fatal(err)
				}
				rep, err := e.ReconstructStream(decoderOf(t, "bin", input.Bytes()), enc, wantRep.Model)
				if err != nil {
					t.Fatalf("%s tsdev=%v w=%d: stream: %v", format, tsdev, workers, err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("%s tsdev=%v w=%d: streamed output diverges from the sequential pipeline", format, tsdev, workers)
				}
				if rep.Shards != colRep.Shards || rep.Requests != int64(old.Len()) ||
					rep.IdleCount != wantRep.IdleCount || rep.IdleTotal != wantRep.IdleTotal || rep.AsyncCount != wantRep.AsyncCount {
					t.Fatalf("%s tsdev=%v w=%d: stream report diverges: %+v", format, tsdev, workers, rep)
				}
			}
		}
	}
}

// TestFitModelMatchesEstimate checks pass-one streaming model fitting
// equals the whole-trace fit Engine.Reconstruct and core use.
func TestFitModelMatchesEstimate(t *testing.T) {
	old := genOld(t, "ikki", 3000, false)
	_, rep, err := New(testConfig(2)).Reconstruct(old)
	if err != nil {
		t.Fatal(err)
	}
	var input bytes.Buffer
	if err := trace.WriteBinary(&input, old); err != nil {
		t.Fatal(err)
	}
	m, n, err := FitModel(decoderOf(t, "bin", input.Bytes()), infer.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != old.Len() {
		t.Fatalf("fit saw %d requests, want %d", n, old.Len())
	}
	if !reflect.DeepEqual(m, rep.Model) {
		t.Fatalf("streamed model differs:\n got %+v\nwant %+v", m, rep.Model)
	}
}

// TestStreamErrors checks the planner's validation and the model
// requirement surface as errors.
func TestStreamErrors(t *testing.T) {
	e := New(testConfig(2))
	// Unsorted input.
	unsorted := "# tracetracker name=x workload=w set=S tsdev_known=true\n" +
		"10.000,0,100,8,R,5.000,0\n" +
		"1.000,0,200,8,R,5.000,0\n"
	_, err := e.ReconstructStream(decoderOf(t, "csv", []byte(unsorted)), trace.NewCSVEncoder(io.Discard), nil)
	if err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("unsorted input: got %v", err)
	}
	// Missing model on an inference-path trace.
	nomodel := "# tracetracker name=x workload=w set=S tsdev_known=false\n" +
		"1.000,0,100,8,R,0.000,0\n"
	_, err = e.ReconstructStream(decoderOf(t, "csv", []byte(nomodel)), trace.NewCSVEncoder(io.Discard), nil)
	if err != ErrModelRequired {
		t.Fatalf("missing model: got %v", err)
	}
	// Zero-size request.
	zero := "# tracetracker name=x workload=w set=S tsdev_known=true\n" +
		"1.000,0,100,0,R,5.000,0\n"
	_, err = e.ReconstructStream(decoderOf(t, "csv", []byte(zero)), trace.NewCSVEncoder(io.Discard), nil)
	if err == nil || !strings.Contains(err.Error(), "zero sectors") {
		t.Fatalf("zero sectors: got %v", err)
	}

	// Engine.Reconstruct streams its trace through the same planner, so
	// the same rules reject a materialised trace.
	for _, tc := range []struct {
		name string
		csv  string
		want error
	}{
		{"unsorted", unsorted, trace.ErrUnsorted},
		{"zero sectors", zero, trace.ErrZeroSize},
	} {
		old, err := trace.ReadFormat("csv", strings.NewReader(tc.csv))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Reconstruct(old); !errors.Is(err, tc.want) {
			t.Fatalf("Reconstruct, %s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// failingEncoder errors on the first Write, simulating a full disk.
type failingEncoder struct{ writes int }

func (f *failingEncoder) Begin(trace.Meta) error { return nil }
func (f *failingEncoder) Write(trace.Request) error {
	f.writes++
	return io.ErrShortWrite
}
func (f *failingEncoder) Close() error { return nil }

// TestStreamEmitErrorAborts checks an output error surfaces as the
// run's error and stops the pipeline instead of silently draining the
// whole input.
func TestStreamEmitErrorAborts(t *testing.T) {
	old := genOld(t, "ikki", 2000, true)
	var input bytes.Buffer
	if err := trace.WriteBinary(&input, old); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4)
	reg := obs.NewRegistry()
	cfg.Metrics = obs.NewEngineMetrics(reg)
	e := New(cfg)
	enc := &failingEncoder{}
	_, err := e.ReconstructStream(decoderOf(t, "bin", input.Bytes()), enc, nil)
	if err != io.ErrShortWrite {
		t.Fatalf("want the encoder's error, got %v", err)
	}
	if enc.writes != 1 {
		t.Fatalf("encoder written %d times after failing, want 1", enc.writes)
	}
	// The epochs drained behind the error are not output, but each one
	// still hands back its in-flight token.
	if v := metricOf(t, reg, "engine_epochs_in_flight", nil); v != 0 {
		t.Fatalf("engine_epochs_in_flight = %v after the abort, want 0", v)
	}
	admitted := metricOf(t, reg, "engine_stage_epochs_total", obs.Labels{"stage": "plan"})
	if merged := metricOf(t, reg, "engine_stage_epochs_total", obs.Labels{"stage": "merge"}); merged >= admitted {
		t.Fatalf("engine_stage_epochs_total{stage=\"merge\"} = %v after the abort, want below the %v admitted", merged, admitted)
	}
	// The same on the rendered path: the array's csv bytes are spliced,
	// never written record by record.
	spliceFailureAborts(t, e, input.Bytes())
}

// TestEmptyStream checks an empty input is rejected as trace.Validate
// rejects it (a broken corpus must not record as a successful
// reconstruction), streamed or handed to Engine.Reconstruct.
func TestEmptyStream(t *testing.T) {
	e := New(testConfig(2))
	var out bytes.Buffer
	_, err := e.ReconstructStream(decoderOf(t, "csv", nil), trace.NewCSVEncoder(&out), nil)
	if !errors.Is(err, trace.ErrNoRequest) {
		t.Fatalf("want ErrNoRequest, got %v", err)
	}
	if out.Len() != 0 {
		t.Fatal("rejected empty stream still wrote output")
	}
	if _, _, err := e.Reconstruct(&trace.Trace{Name: "empty", TsdevKnown: true}); !errors.Is(err, trace.ErrNoRequest) {
		t.Fatalf("Reconstruct of an empty trace: want ErrNoRequest, got %v", err)
	}
}

// planSplits are the ways TestPlanSliceCoverage cuts one stream into
// addBatch calls: fixed sizes, the whole stream at once, and a seeded
// random split.
func planSplits(n int) map[string][]int {
	splits := map[string][]int{"whole": {n}}
	for _, size := range []int{1, 7, 1024} {
		var s []int
		for i := 0; i < n; i += size {
			s = append(s, min(size, n-i))
		}
		splits[fmt.Sprintf("size-%d", size)] = s
	}
	rng := rand.New(rand.NewSource(9))
	var s []int
	for i := 0; i < n; {
		k := min(1+rng.Intn(300), n-i)
		s = append(s, k)
		i += k
	}
	splits["random"] = s
	return splits
}

// planBatches runs a fresh planner over reqs cut into batches of the
// given sizes and returns the shards it completes, the trailing one
// included.
func planBatches(cfg Config, reqs []trace.Request, sizes []int) ([]shard, error) {
	p := newStreamPlanner(cfg, &bufPool{})
	var shards []shard
	submit := func(s shard) error {
		shards = append(shards, s)
		return nil
	}
	for _, k := range sizes {
		if err := p.addBatch(reqs[:k], submit); err != nil {
			return shards, err
		}
		reqs = reqs[k:]
	}
	if last := p.finish(); last != nil {
		shards = append(shards, *last)
	}
	return shards, nil
}

// TestPlanSliceCoverage checks the planner's shards partition the trace
// exactly, in order, with the whole-trace sequentiality flags, that the
// carries line up, that every cut and only a cut satisfies the cut
// rule — and that none of it depends on how the stream is split into
// batches. A zero-size or unsorted request fails with the same error at
// the same index wherever it falls, at a batch boundary or inside one.
func TestPlanSliceCoverage(t *testing.T) {
	// A gap-rich workload, then a gapless burst: with the bound above
	// the idle-cut floor, the workload cuts at idle gaps and the burst
	// at the bound.
	old := genOld(t, "ikki", 3000, true)
	end := old.Requests[old.Len()-1].Arrival
	for _, r := range synthTrace("burst", 3000, 20*time.Microsecond).Requests {
		r.Arrival += end
		old.Requests = append(old.Requests, r)
	}
	cfg := Config{MaxShardRequests: 1500}.withDefaults()
	splits := planSplits(old.Len())
	want, err := planBatches(cfg, old.Requests, splits["size-1"])
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 {
		t.Fatalf("want multiple shards, got %d", len(want))
	}
	var reqs []trace.Request
	var seq []bool
	forced, idle := 0, 0
	for i, s := range want {
		if s.index != i {
			t.Fatalf("shard %d has index %d", i, s.index)
		}
		if len(s.reqs) == 0 || len(s.seq) != len(s.reqs) {
			t.Fatalf("shard %d malformed", i)
		}
		for j := 1; j < len(s.reqs); j++ {
			if shouldCut(cfg, j, s.reqs[j].Arrival-s.reqs[j-1].Arrival) {
				t.Fatalf("shard %d runs past a cut before its request %d", i, j)
			}
		}
		if i > 0 {
			if !s.hasPrev {
				t.Fatalf("shard %d missing prev carry", i)
			}
			prevShard := want[i-1]
			if s.prev != prevShard.reqs[len(prevShard.reqs)-1] || s.prevSeq != prevShard.seq[len(prevShard.seq)-1] {
				t.Fatalf("shard %d prev carry mismatch", i)
			}
			if !prevShard.hasNext || prevShard.nextArrival != s.reqs[0].Arrival {
				t.Fatalf("shard %d next carry mismatch", i)
			}
			if !shouldCut(cfg, len(prevShard.reqs), s.reqs[0].Arrival-s.prev.Arrival) {
				t.Fatalf("shard %d starts where the cut rule does not cut", i)
			}
			if len(prevShard.reqs) == cfg.MaxShardRequests {
				forced++
			} else {
				idle++
			}
		}
		reqs = append(reqs, s.reqs...)
		seq = append(seq, s.seq...)
	}
	if forced == 0 || idle == 0 {
		t.Fatalf("fixture cuts %d shards at the size bound and %d at idle gaps, want both", forced, idle)
	}
	if !reflect.DeepEqual(reqs, old.Requests) {
		t.Fatalf("shards do not partition the trace: %d requests, want %d", len(reqs), old.Len())
	}
	if !reflect.DeepEqual(seq, old.SeqFlags()) {
		t.Fatal("shard seq flags differ from the whole-trace flags")
	}
	if want[len(want)-1].hasNext {
		t.Fatal("final shard claims a next arrival")
	}
	for name, sizes := range splits {
		got, err := planBatches(cfg, old.Requests, sizes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: shards differ from the one-request-per-batch plan", name)
		}
	}

	// 1024 opens the second batch of the size-1024 split; 1500 is inside
	// it, and inside a batch of size-7 (7 × 214 + 2).
	for _, at := range []int{1024, 1500} {
		zero := slices.Clone(old.Requests)
		zero[at].Sectors = 0
		unsorted := slices.Clone(old.Requests)
		unsorted[at].Arrival = unsorted[at-1].Arrival - 1
		for _, bad := range []struct {
			reqs []trace.Request
			want string
		}{
			{zero, fmt.Sprintf("%v (index %d)", trace.ErrZeroSize, at)},
			{unsorted, fmt.Sprintf("%v (index %d)", trace.ErrUnsorted, at)},
		} {
			for name, sizes := range splits {
				_, err := planBatches(cfg, bad.reqs, sizes)
				if err == nil || err.Error() != bad.want {
					t.Fatalf("%s, bad request %d: err %v, want %q", name, at, err, bad.want)
				}
			}
		}
	}
}

// TestCutRule pins the planner's cut rule at the default shard bound —
// a size cut at 65,536 requests, an idle cut at a gap of at least 1 ms
// once the shard holds 1,024 — and, below 1,024, the bound as the
// idle-cut floor.
func TestCutRule(t *testing.T) {
	def := Config{}.withDefaults()
	small := Config{MaxShardRequests: 100}.withDefaults()
	for _, c := range []struct {
		cfg    Config
		curLen int
		gap    time.Duration
		want   bool
	}{
		{def, 1, time.Hour, false},
		{def, 1023, time.Millisecond, false},
		{def, 1024, time.Millisecond - 1, false},
		{def, 1024, time.Millisecond, true},
		{def, 40_000, 5 * time.Millisecond, true},
		{def, 65_535, 0, false},
		{def, 65_535, time.Millisecond, true},
		{def, 65_536, 0, true},
		{small, 99, time.Hour, false},
		{small, 100, 0, true},
	} {
		if got := shouldCut(c.cfg, c.curLen, c.gap); got != c.want {
			t.Errorf("bound %d, %d requests, gap %v: cut=%v, want %v", c.cfg.MaxShardRequests, c.curLen, c.gap, got, c.want)
		}
	}
}

// BenchmarkPlanAddBatch prices the planner's per-request loop (input
// rules, cut rule, bulk appends, sequentiality flags) on the
// cold-array-bin shape: a 200k-request MSNFS stream in the sequential
// decoder's 1024-request batches, under the default shard sizes, with
// every shard handed back to the pool as the executor recycles it.
//
//	go test -run '^$' -bench BenchmarkPlanAddBatch -benchmem ./internal/engine
func BenchmarkPlanAddBatch(b *testing.B) {
	p, _ := workload.Lookup("MSNFS")
	app := workload.Generate(p, workload.GenOptions{Ops: 200_000, Seed: workload.TraceSeed("MSNFS", 0)})
	reqs := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace.Requests
	cfg := Config{}.withDefaults()
	pool := &bufPool{}
	submit := func(s shard) error {
		pool.reqs.put(s.reqs)
		pool.seqs.put(s.seq)
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := newStreamPlanner(cfg, pool)
		for j := 0; j < len(reqs); j += 1024 {
			if err := pl.addBatch(reqs[j:min(j+1024, len(reqs))], submit); err != nil {
				b.Fatal(err)
			}
		}
		if last := pl.finish(); last != nil {
			submit(*last)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
}

// TestReconstructPathParallelDecode locks the fused ingest of a job's
// input path: a headered CSV input big enough for the read-ahead
// decoder engages it on 4 workers at GOMAXPROCS 2, and RunJobTo's
// output stays byte-identical to the single-worker run at GOMAXPROCS 1
// (sequential decode). A counted binary input of the same size decodes
// sequentially either way, and its 4-worker run matches too.
func TestReconstructPathParallelDecode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	old := genOld(t, "MSNFS", 40_000, true)
	dir := t.TempDir()
	write := func(name string, enc func(io.Writer, *trace.Trace) error) string {
		path := dir + "/" + name
		var buf bytes.Buffer
		if err := enc(&buf, old); err != nil {
			t.Fatal(err)
		}
		if buf.Len() < trace.ReadAheadMinBytes {
			t.Fatalf("%s fixture too small (%d bytes) for the read-ahead decoder's threshold", name, buf.Len())
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		format string
		path   string
	}{
		{"bin", write("in.bin", trace.WriteBinary)},
		{"csv", write("in.csv", trace.WriteCSV)},
	} {
		runtime.GOMAXPROCS(2)
		if ahead := readsAhead(t, tc.path, tc.format); ahead != (tc.format != "bin") {
			t.Fatalf("%s at GOMAXPROCS 2 reads ahead: %v", tc.format, ahead)
		}
		// The 1-worker run, at GOMAXPROCS 1, decodes on the codec.
		run := func(workers int) []byte {
			runtime.GOMAXPROCS(min(workers, 2))
			var out bytes.Buffer
			rep, err := RunJobTo(testConfig(workers), JobSpec{In: tc.path, InFormat: tc.format}, &out)
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.format, workers, err)
			}
			if rep.Requests != int64(old.Len()) {
				t.Fatalf("%s w=%d: %d of %d requests", tc.format, workers, rep.Requests, old.Len())
			}
			return out.Bytes()
		}
		want := run(1)
		if got := run(4); !bytes.Equal(got, want) {
			t.Fatalf("%s: parallel-decode streaming output diverges from single-worker run", tc.format)
		}
	}
}
