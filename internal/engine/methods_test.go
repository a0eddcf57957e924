package engine

// Tests that hold every row of the method table to the job path: the
// bytes are the reference implementations' (package baseline), the
// input path is the decoder → reorder window → planner rules every job
// uses, and the comparison methods run no fit pass.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/trace"
)

// methodCase is one spec of a method-table row with the row's reference
// implementation. threshold is the idle rule of a constant-model row —
// what its report must count — and zero for the others.
type methodCase struct {
	name      string
	meth      method
	spec      JobSpec
	threshold time.Duration
	ref       func(old *trace.Trace, dev device.Device) (*trace.Trace, error)
}

// methodCases returns the cases of every row of the method table, in
// table order; a row without a reference implementation fails the test.
func methodCases(t *testing.T) []methodCase {
	t.Helper()
	fixed := func(name string, us float64) methodCase {
		th := baseline.DefaultFixedThreshold
		if us != 0 {
			th = time.Duration(us * float64(time.Microsecond))
		}
		return methodCase{name: "fixed-th/" + name, spec: JobSpec{Method: "fixed-th", ThresholdUS: us}, threshold: th,
			ref: func(old *trace.Trace, dev device.Device) (*trace.Trace, error) {
				return baseline.FixedTh(old, dev, th), nil
			}}
	}
	accel := func(factor float64) methodCase {
		return methodCase{name: fmt.Sprintf("acceleration/%v", factor), spec: JobSpec{Method: "acceleration", Factor: factor},
			ref: func(old *trace.Trace, _ device.Device) (*trace.Trace, error) {
				return baseline.Acceleration(old, factor), nil
			}}
	}
	byRow := map[string][]methodCase{
		"tracetracker": {{name: "tracetracker", spec: JobSpec{Method: "tracetracker"}, ref: baseline.TraceTracker}},
		"dynamic":      {{name: "dynamic", spec: JobSpec{Method: "dynamic"}, ref: baseline.Dynamic}},
		"fixed-th":     {fixed("default", 0), fixed("250us", 250), fixed("1.5us", 1.5)},
		"revision": {{name: "revision", spec: JobSpec{Method: "revision"}, threshold: revisionThresholdUS * time.Microsecond,
			ref: func(old *trace.Trace, dev device.Device) (*trace.Trace, error) {
				return baseline.Revision(old, dev), nil
			}}},
		"acceleration": {accel(100), accel(7), accel(1.5)},
	}
	var cases []methodCase
	for _, m := range methods {
		rows, ok := byRow[m.name]
		if !ok {
			t.Fatalf("method %q has no reference implementation", m.name)
		}
		for _, mc := range rows {
			mc.meth = m
			cases = append(cases, mc)
		}
	}
	return cases
}

// reference renders the case's reference run on dev as a bin job does.
func (mc methodCase) reference(t *testing.T, old *trace.Trace, dev device.Device) []byte {
	t.Helper()
	out, err := mc.ref(old, dev)
	if err != nil {
		t.Fatalf("%s: reference: %v", mc.name, err)
	}
	return encodeBin(t, out)
}

// encodeBin renders tr the way a bin job does.
func encodeBin(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeTrace(trace.NewBinaryEncoder(&buf), tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMethodsByteIdentical is the engine-level identity lock for the
// method table: for every row, on every registry target, at 1 and 4
// workers, over a recorded-latency csv input (which the 4-worker runs
// decode in parallel) and an inference-path bin input (decoded on one
// goroutine), each cut into dozens of epochs, RunJobTo's bytes equal
// the baseline package's reference encoded whole, and a graph method's report carries what the
// reference run's device counted, the input's own model exactly when
// the row reads it (the fit, on the inference path), and — for a
// constant-model row — exactly the idles its rule finds.
func TestMethodsByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := methodCases(t)
	for _, in := range []struct {
		family string
		n      int
		known  bool
		format string
	}{
		// As csv, 32k requests pass trace.ReadAheadMinBytes: the 4-worker
		// runs of this input, at GOMAXPROCS 2, decode on the read-ahead
		// decoder; the 1-worker runs, at GOMAXPROCS 1, on the codec.
		{"MSNFS", 32_000, true, "csv"},
		// No recorded latencies: tracetracker and dynamic fit a model
		// here. Bin decodes on one goroutine at any worker count.
		{"webmail", 20_000, false, "bin"},
	} {
		path, old := writeInput(t, t.TempDir(), in.family, in.format, genOld(t, in.family, in.n, in.known))
		runtime.GOMAXPROCS(2)
		if ahead := readsAhead(t, path, in.format); ahead != (in.format != "bin") {
			t.Fatalf("fixture: %s %s at GOMAXPROCS 2 reads ahead: %v", in.family, in.format, ahead)
		}
		var fit *infer.Model
		if !in.known {
			var err error
			if fit, err = infer.Estimate(old, infer.EstimateOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, mc := range cases {
			// What a constant-model row's idle rule finds in this input.
			var idleCount int
			var idleTotal time.Duration
			for i := 1; i < old.Len(); i++ {
				if gap := old.Requests[i].Arrival - old.Requests[i-1].Arrival; gap > mc.threshold {
					idleCount++
					idleTotal += gap - mc.threshold
				}
			}
			var wantModel *infer.Model
			if mc.meth.ownModel {
				wantModel = fit
			}
			for _, dev := range Devices() {
				if !mc.meth.graph && !dev.Default {
					continue // acceleration has no device pass: one target says it all
				}
				mk, err := DeviceFactory(dev.Name)
				if err != nil {
					t.Fatal(err)
				}
				// The reference run, and what its device counted on the way.
				refDev := mk()
				want := mc.reference(t, old, refDev)
				var wantStats []device.Stat
				if sr, ok := refDev.(device.StatsReporter); ok {
					wantStats = sr.DeviceStats()
				}
				for _, workers := range []int{1, 4} {
					runtime.GOMAXPROCS(min(workers, 2))
					label := fmt.Sprintf("%s/%s/%s/w=%d", in.family, mc.name, dev.Name, workers)
					spec := mc.spec
					spec.In, spec.InFormat, spec.OutFormat, spec.Device = path, in.format, "bin", dev.Name
					var got bytes.Buffer
					rep, err := RunJobTo(testConfig(workers), spec, &got)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !bytes.Equal(got.Bytes(), want) {
						t.Fatalf("%s: output (%d bytes) diverges from the baseline reference (%d bytes)", label, got.Len(), len(want))
					}
					if !mc.meth.graph {
						if rep != nil {
							t.Fatalf("%s: acceleration runs no graph, got report %+v", label, rep)
						}
						continue
					}
					if rep.Requests != int64(in.n) || rep.Workers != workers || rep.Shards < 16 {
						t.Fatalf("%s: report %+v, want %d requests on %d workers in >= 16 epochs", label, rep, in.n, workers)
					}
					if !reflect.DeepEqual(rep.Model, wantModel) {
						t.Fatalf("%s: report model %+v, want %+v", label, rep.Model, wantModel)
					}
					if mc.threshold != 0 && (rep.AsyncCount != 0 || rep.IdleCount != idleCount || rep.IdleTotal != idleTotal) {
						t.Fatalf("%s: report %+v, want nothing asynchronous, %d idles totalling %v",
							label, rep, idleCount, idleTotal)
					}
					if !reflect.DeepEqual(rep.DeviceStats, wantStats) {
						t.Fatalf("%s: device stats %v, the reference run's device counted %v", label, rep.DeviceStats, wantStats)
					}
				}
			}
		}
	}
}

// TestMethodsNeedNoFit: an inference-path input too sparse for
// tracetracker's model fit still runs under every row that does not
// read the input's own model — the three comparison methods, which fit
// nothing: their span timeline holds the stream pass (graph rows only)
// and no fit pass.
func TestMethodsNeedNoFit(t *testing.T) {
	old := synthTrace("sparse", 40, 300*time.Microsecond)
	old.TsdevKnown = false
	for i := range old.Requests {
		old.Requests[i].Latency = 0
	}
	path := writeBinInput(t, t.TempDir(), old)
	spec := JobSpec{In: path, InFormat: "bin", OutFormat: "bin"}
	if _, err := RunJobTo(Config{}, spec, &bytes.Buffer{}); !errors.Is(err, infer.ErrTooSparse) {
		t.Fatalf("fixture: tracetracker on the sparse input: %v, want ErrTooSparse", err)
	}
	mk, _ := DeviceFactory("")
	for _, mc := range methodCases(t) {
		if mc.meth.ownModel {
			continue
		}
		tracer := obs.NewTracer(mc.name, 0, obs.TraceContext{})
		spec := mc.spec
		spec.In, spec.InFormat, spec.OutFormat = path, "bin", "bin"
		var got bytes.Buffer
		if _, err := RunJobTo(Config{Trace: tracer}, spec, &got); err != nil {
			t.Fatalf("%s: %v", mc.name, err)
		}
		if !bytes.Equal(got.Bytes(), mc.reference(t, old, mk())) {
			t.Fatalf("%s: output diverges from the baseline reference", mc.name)
		}
		spans := map[string]int{}
		tracer.Finish()
		for _, s := range tracer.Snapshot().Spans {
			spans[s.Name]++
		}
		fit, stream := obs.JobSpanFit.String(), obs.JobSpanStream.String()
		if spans[fit] != 0 {
			t.Fatalf("%s: a fit pass ran: spans %v", mc.name, spans)
		}
		if wantStream := mc.meth.graph; (spans[stream] == 1) != wantStream {
			t.Fatalf("%s: %d stream spans (graph method: %v): spans %v", mc.name, spans[stream], wantStream, spans)
		}
	}
}

// TestMethodsReorderWindow: a job of every method sorts a near-sorted
// corpus with its format's bounded reorder window — disorder within the
// window equals the whole-trace sort the reference reader applies,
// disorder beyond it (a record displaced past trace.ReorderWindow
// positions) fails with the planner's error and leaves the output file
// alone.
func TestMethodsReorderWindow(t *testing.T) {
	// An msrc file (100 ns ticks: ~250 µs gaps, 20 ms every 200 records)
	// with every 17th record displaced by three positions.
	var lines []string
	for i := 0; i < 3000; i++ {
		op := "Read"
		if i%3 == 0 {
			op = "Write"
		}
		ticks := 128166372003061629 + int64(i)*2500 + int64(i%7)*300 + int64(i/200)*200_000
		lines = append(lines, fmt.Sprintf("%d,web,%d,%s,%d,%d,%d", ticks, i%2, op, (i*7%4096)*4096, 4096*(1+i%4), 900+i%300))
	}
	for i := 10; i+3 < len(lines); i += 17 {
		lines[i], lines[i+3] = lines[i+3], lines[i]
	}
	raw := []byte(strings.Join(lines, "\n") + "\n")
	dir := t.TempDir()
	path := filepath.Join(dir, "web.msrc")
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	old, err := trace.ReadFormat("msrc", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	unsorted := &trace.Trace{}
	err = trace.ForEachBatch(decoderOf(t, "msrc", raw), func(run []trace.Request) error {
		unsorted.Requests = append(unsorted.Requests, run...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if unsorted.Validate() == nil {
		t.Fatal("fixture: the msrc file is already sorted")
	}

	// The displaced file: its last record belongs right after its first.
	var b strings.Builder
	const base = 128166372003061629
	n := trace.ReorderWindow("msrc") + 100
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "%d,hm,0,Read,%d,4096,100\n", base+10*int64(i), 4096*i)
	}
	fmt.Fprintf(&b, "%d,hm,0,Write,0,4096,100\n", base+5)
	displaced := filepath.Join(dir, "displaced.msrc")
	if err := os.WriteFile(displaced, []byte(b.String()), 0o666); err != nil {
		t.Fatal(err)
	}

	mk, _ := DeviceFactory("hdd")
	outPath := filepath.Join(dir, "out.bin")
	for _, mc := range methodCases(t) {
		spec := mc.spec
		spec.In, spec.InFormat, spec.OutFormat, spec.Device = path, "msrc", "bin", "hdd"
		var got bytes.Buffer
		if _, err := RunJobTo(testConfig(4), spec, &got); err != nil {
			t.Fatalf("%s: within the window: %v", mc.name, err)
		}
		if !bytes.Equal(got.Bytes(), mc.reference(t, old, mk())) {
			t.Fatalf("%s: output diverges from ReadFormat(msrc) + the baseline reference", mc.name)
		}

		if err := os.WriteFile(outPath, []byte("precious"), 0o666); err != nil {
			t.Fatal(err)
		}
		spec.In, spec.Out = displaced, outPath
		if _, err := RunJob(testConfig(4), spec); !errors.Is(err, trace.ErrUnsorted) {
			t.Fatalf("%s: displaced beyond the window: %v, want ErrUnsorted", mc.name, err)
		}
		if kept, _ := os.ReadFile(outPath); string(kept) != "precious" {
			t.Fatalf("%s: failed job replaced the existing output: %q", mc.name, kept)
		}
	}
}
