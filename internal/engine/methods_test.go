package engine

// Tests that hold the three comparison methods to the job path: the
// bytes are the reference implementations' (package baseline), the
// input path is the decoder → reorder window → planner rules every job
// uses, and no fit pass runs.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/trace"
)

// methodCase is one comparison-method spec with its reference
// implementation. threshold is the idle rule of a method that runs the
// stage graph — what its report must count — and zero for acceleration,
// which returns no report.
type methodCase struct {
	name      string
	spec      JobSpec
	threshold time.Duration
	ref       func(old *trace.Trace, dev device.Device) *trace.Trace
}

func methodCases() []methodCase {
	fixed := func(name string, us float64) methodCase {
		th := baseline.DefaultFixedThreshold
		if us != 0 {
			th = time.Duration(us * float64(time.Microsecond))
		}
		return methodCase{"fixed-th/" + name, JobSpec{Method: "fixed-th", ThresholdUS: us}, th,
			func(old *trace.Trace, dev device.Device) *trace.Trace { return baseline.FixedTh(old, dev, th) }}
	}
	accel := func(factor float64) methodCase {
		return methodCase{fmt.Sprintf("acceleration/%v", factor), JobSpec{Method: "acceleration", Factor: factor}, 0,
			func(old *trace.Trace, _ device.Device) *trace.Trace { return baseline.Acceleration(old, factor) }}
	}
	return []methodCase{
		fixed("default", 0), fixed("250us", 250), fixed("1.5us", 1.5),
		{"revision", JobSpec{Method: "revision"}, revisionThresholdUS * time.Microsecond, baseline.Revision},
		accel(100), accel(7), accel(1.5),
	}
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
// comparison methods: on every registry target, at 1 and 4 workers, over
// a recorded-latency and an inference-path input cut into dozens of
// epochs, RunJobTo's bytes equal the baseline package's reference
// encoded whole, and a graph method's report counts exactly what its
// idle rule says and what the reference run's device counted.
func TestMethodsByteIdentical(t *testing.T) {
	for _, in := range []struct {
		family string
		n      int
		known  bool
	}{
		// As bin, 32k requests pass trace.ParallelMinBytes: the 4-worker
		// runs of this input also decode in parallel.
		{"MSNFS", 32_000, true},
		{"webmail", 20_000, false}, // no recorded latencies: tracetracker would fit a model here
	} {
		old := genOld(t, in.family, in.n, in.known)
		path := writeBinInput(t, t.TempDir(), old)
		if st, err := os.Stat(path); err != nil || in.known != (st.Size() >= trace.ParallelMinBytes) {
			t.Fatalf("fixture: %s is on the wrong side of the parallel decoder's threshold: %v %v", in.family, st, err)
		}
		for _, mc := range methodCases() {
			// What the method's idle rule finds in this input.
			var idleCount int
			var idleTotal time.Duration
			for i := 1; i < old.Len(); i++ {
				if gap := old.Requests[i].Arrival - old.Requests[i-1].Arrival; gap > mc.threshold {
					idleCount++
					idleTotal += gap - mc.threshold
				}
			}
			for _, dev := range Devices() {
				if mc.threshold == 0 && !dev.Default {
					continue // acceleration has no device pass: one target says it all
				}
				mk, err := DeviceFactory(dev.Name)
				if err != nil {
					t.Fatal(err)
				}
				// The reference run, and what its device counted on the way.
				refDev := mk()
				want := encodeBin(t, mc.ref(old, refDev))
				var wantStats []device.Stat
				if sr, ok := refDev.(device.StatsReporter); ok {
					wantStats = sr.DeviceStats()
				}
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/%s/%s/w=%d", in.family, mc.name, dev.Name, workers)
					spec := mc.spec
					spec.In, spec.InFormat, spec.OutFormat, spec.Device = path, "bin", "bin", dev.Name
					var got bytes.Buffer
					rep, err := RunJobTo(testConfig(workers, core.Options{}), spec, &got)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !bytes.Equal(got.Bytes(), want) {
						t.Fatalf("%s: output (%d bytes) diverges from the baseline reference (%d bytes)", label, got.Len(), len(want))
					}
					if mc.threshold == 0 {
						if rep != nil {
							t.Fatalf("%s: acceleration runs no graph, got report %+v", label, rep)
						}
						continue
					}
					if rep.Requests != int64(in.n) || rep.Workers != workers || rep.Shards < 16 {
						t.Fatalf("%s: report %+v, want %d requests on %d workers in >= 16 epochs", label, rep, in.n, workers)
					}
					if rep.Model != nil || rep.AsyncCount != 0 || rep.IdleCount != idleCount || rep.IdleTotal != idleTotal {
						t.Fatalf("%s: report %+v, want no model, nothing asynchronous, %d idles totalling %v",
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
// tracetracker's model fit still runs under all three comparison
// methods, which fit nothing — their span timeline holds the stream
// pass and no fit pass.
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
	for _, mc := range methodCases() {
		tracer := obs.NewTracer(mc.name, 0, obs.TraceContext{})
		spec := mc.spec
		spec.In, spec.InFormat, spec.OutFormat = path, "bin", "bin"
		var got bytes.Buffer
		if _, err := RunJobTo(Config{Trace: tracer}, spec, &got); err != nil {
			t.Fatalf("%s: %v", mc.name, err)
		}
		if !bytes.Equal(got.Bytes(), encodeBin(t, mc.ref(old, mk()))) {
			t.Fatalf("%s: output diverges from the baseline reference", mc.name)
		}
		spans := map[string]int{}
		for _, s := range tracer.Finish().Spans {
			spans[s.Name]++
		}
		fit, stream := obs.JobSpanNames[obs.JobSpanFit], obs.JobSpanNames[obs.JobSpanStream]
		if spans[fit] != 0 {
			t.Fatalf("%s: a fit pass ran: spans %v", mc.name, spans)
		}
		if wantStream := mc.threshold != 0; (spans[stream] == 1) != wantStream {
			t.Fatalf("%s: %d stream spans (graph method: %v): spans %v", mc.name, spans[stream], wantStream, spans)
		}
	}
}

// TestMethodsReorderWindow: a comparison job sorts a near-sorted corpus
// with the bounded reorder window like every other job — disorder
// within the window equals the whole-trace sort the reference reader
// applies, disorder beyond it fails with the planner's error and leaves
// the output file alone.
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

	mk, _ := DeviceFactory("hdd")
	outPath := filepath.Join(dir, "out.bin")
	for _, mc := range methodCases() {
		spec := mc.spec
		spec.In, spec.InFormat, spec.OutFormat, spec.Device = path, "msrc", "bin", "hdd"
		var got bytes.Buffer
		if _, err := RunJobTo(testConfig(4, core.Options{}), spec, &got); err != nil {
			t.Fatalf("%s: default reorder window: %v", mc.name, err)
		}
		if !bytes.Equal(got.Bytes(), encodeBin(t, mc.ref(old, mk()))) {
			t.Fatalf("%s: output diverges from ReadFormat(msrc) + the baseline reference", mc.name)
		}

		if err := os.WriteFile(outPath, []byte("precious"), 0o666); err != nil {
			t.Fatal(err)
		}
		spec.Out, spec.ReorderWindow = outPath, 2
		if _, err := RunJob(testConfig(4, core.Options{}), spec); !errors.Is(err, trace.ErrUnsorted) {
			t.Fatalf("%s: reorder_window 2: %v, want ErrUnsorted", mc.name, err)
		}
		if kept, _ := os.ReadFile(outPath); string(kept) != "precious" {
			t.Fatalf("%s: failed job replaced the existing output: %q", mc.name, kept)
		}
	}
}
