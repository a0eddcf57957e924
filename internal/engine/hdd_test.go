package engine

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/trace"
)

// hddConfigs returns the device variants the pipelined path must
// reproduce: the default 7200rpm profile and a write-back-cache
// variant, whose busyUntil can exceed the last host-visible completion
// at an epoch boundary — state the one device pass must carry across
// the cut.
func hddConfigs() map[string]device.HDDConfig {
	wc := device.DefaultHDDConfig()
	wc.WriteCache = true
	return map[string]device.HDDConfig{
		"default":    device.DefaultHDDConfig(),
		"writecache": wc,
	}
}

// TestPipelinedHDDByteIdentical is the acceptance lock of the
// epoch-pipelined path: for workers 1, 4 and 8 the HDD reconstruction
// is byte-identical to the sequential core pipeline (the pre-pipeline
// serial fallback), across workload families, both latency paths, both
// post-processing settings, and both cache configurations, plus the
// generated adversaries.
func TestPipelinedHDDByteIdentical(t *testing.T) {
	for cfgName, hddCfg := range hddConfigs() {
		mk := func() device.Device { return device.NewHDD(hddCfg) }
		adversaryIdentity(t, "hdd-"+cfgName, mk)
		for _, family := range []string{"ikki", "MSNFS", "Exchange"} {
			for _, tsdev := range []bool{true, false} {
				for _, skipPost := range []bool{false, true} {
					opts := core.Options{SkipPostProcess: skipPost}
					old := genOld(t, family, 3000, tsdev)
					wantTrace, wantRep, err := core.Reconstruct(old, mk(), opts)
					if err != nil {
						t.Fatalf("%s/%s tsdev=%v: sequential: %v", cfgName, family, tsdev, err)
					}
					want := traceBytes(t, wantTrace)
					for _, workers := range []int{1, 4, 8} {
						cfg := testConfig(workers, opts)
						cfg.Device = mk
						gotTrace, gotRep, err := New(cfg).Reconstruct(old)
						if err != nil {
							t.Fatalf("%s/%s tsdev=%v w=%d: pipelined: %v", cfgName, family, tsdev, workers, err)
						}
						if got := traceBytes(t, gotTrace); !bytes.Equal(got, want) {
							t.Fatalf("%s/%s tsdev=%v skipPost=%v w=%d: pipelined HDD output not byte-identical to the serial path",
								cfgName, family, tsdev, skipPost, workers)
						}
						if gotRep.Shards < 2 {
							t.Fatalf("%s/%s w=%d: expected multiple epochs, got %d", cfgName, family, workers, gotRep.Shards)
						}
						if gotRep.IdleCount != wantRep.IdleCount || gotRep.IdleTotal != wantRep.IdleTotal ||
							gotRep.AsyncCount != wantRep.AsyncCount {
							t.Fatalf("%s/%s tsdev=%v w=%d: report aggregates diverge: got %d/%v/%d want %d/%v/%d",
								cfgName, family, tsdev, workers,
								gotRep.IdleCount, gotRep.IdleTotal, gotRep.AsyncCount,
								wantRep.IdleCount, wantRep.IdleTotal, wantRep.AsyncCount)
						}
						if !reflect.DeepEqual(gotRep.Model, wantRep.Model) {
							t.Fatalf("%s/%s tsdev=%v w=%d: model diverges", cfgName, family, tsdev, workers)
						}
					}
				}
			}
		}
	}
}

// TestPipelinedHDDStream checks the streaming HDD path: for every
// worker count and for each encoder class — csv/bin take the
// parallel-rendered ShardEncoder splice, blktrace the serial record
// fallback — the streamed bytes equal a direct whole-trace encode of
// the sequential reconstruction.
func TestPipelinedHDDStream(t *testing.T) {
	mk := func() device.Device { return device.NewHDD(device.DefaultHDDConfig()) }
	for _, tsdev := range []bool{true, false} {
		old := genOld(t, "MSNFS", 3000, tsdev)
		wantTrace, wantRep, err := core.Reconstruct(old, mk(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var input bytes.Buffer
		if err := trace.WriteBinary(&input, old); err != nil {
			t.Fatal(err)
		}
		encoders := map[string]struct {
			enc  func(w *bytes.Buffer) trace.Encoder
			want func(w *bytes.Buffer) error
		}{
			"csv": {
				enc:  func(w *bytes.Buffer) trace.Encoder { return trace.NewCSVEncoder(w) },
				want: func(w *bytes.Buffer) error { return trace.WriteCSV(w, wantTrace) },
			},
			"bin": {
				enc: func(w *bytes.Buffer) trace.Encoder { return trace.NewBinaryEncoder(w) },
				want: func(w *bytes.Buffer) error {
					return trace.EncodeTrace(trace.NewBinaryEncoder(w), wantTrace)
				},
			},
			"blktrace": {
				enc: func(w *bytes.Buffer) trace.Encoder { return trace.NewBlktraceEncoder(w) },
				want: func(w *bytes.Buffer) error {
					return trace.EncodeTrace(trace.NewBlktraceEncoder(w), wantTrace)
				},
			},
		}
		for encName, ec := range encoders {
			var want bytes.Buffer
			if err := ec.want(&want); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 8} {
				cfg := testConfig(workers, core.Options{})
				cfg.Device = mk
				e := New(cfg)
				var got bytes.Buffer
				rep, err := e.ReconstructStream(
					decoderOf(t, "bin", input.Bytes()),
					ec.enc(&got),
					wantRep.Model,
				)
				if err != nil {
					t.Fatalf("%s tsdev=%v w=%d: stream: %v", encName, tsdev, workers, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s tsdev=%v w=%d: streamed HDD output diverges from the serial path", encName, tsdev, workers)
				}
				if rep.Requests != int64(old.Len()) {
					t.Fatalf("%s w=%d: stream report requests %d want %d", encName, workers, rep.Requests, old.Len())
				}
				if rep.Shards < 2 {
					t.Fatalf("%s w=%d: expected multiple epochs, got %d", encName, workers, rep.Shards)
				}
				if rep.IdleCount != wantRep.IdleCount || rep.AsyncCount != wantRep.AsyncCount {
					t.Fatalf("%s w=%d: stream aggregates diverge", encName, workers)
				}
			}
		}
	}
}

// failingShardEncoder is a csv ShardEncoder whose splices start
// failing once left of them have succeeded, and whose per-record Write
// must never be reached.
type failingShardEncoder struct {
	*trace.CSVEncoder
	left, failed int
}

func (f *failingShardEncoder) Write(trace.Request) error {
	panic("per-record Write on a ShardEncoder")
}

func (f *failingShardEncoder) WriteRaw(p []byte) error {
	if f.left == 0 {
		f.failed++
		return io.ErrShortWrite
	}
	f.left--
	return f.CSVEncoder.WriteRaw(p)
}

// closeRecorder records Close reaching the decoder.
type closeRecorder struct {
	trace.Decoder
	closed bool
}

func (c *closeRecorder) Close() { c.closed = true }

// spliceFailureAborts fails an output splice mid-stream on the rendered
// path — the third WriteRaw, with epochs still in every stage. The
// error must surface, no later splice may be attempted, the input
// decoder must be closed, and no stage goroutine may be left behind.
func spliceFailureAborts(t *testing.T, e *Engine, input []byte) {
	t.Helper()
	base := runtime.NumGoroutine()
	dec := &closeRecorder{Decoder: decoderOf(t, "bin", input)}
	senc := &failingShardEncoder{CSVEncoder: trace.NewCSVEncoder(io.Discard), left: 2}
	if _, err := e.ReconstructStream(dec, senc, nil); err != io.ErrShortWrite {
		t.Fatalf("mid-stream splice failure: want the encoder's error, got %v", err)
	}
	if senc.left != 0 || senc.failed != 1 {
		t.Fatalf("splices after the failure: %d left, %d failed, want 0 and 1", senc.left, senc.failed)
	}
	if !dec.closed {
		t.Fatal("decoder not closed after an emit error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelinedHDDStreamErrors checks the pipelined path keeps the
// streaming error contract: planner validation surfaces, and an
// encoder failure aborts the run instead of draining the input.
func TestPipelinedHDDStreamErrors(t *testing.T) {
	cfg := testConfig(4, core.Options{})
	cfg.Device = func() device.Device { return device.NewHDD(device.DefaultHDDConfig()) }
	e := New(cfg)

	old := genOld(t, "ikki", 2000, true)
	var input bytes.Buffer
	if err := trace.WriteBinary(&input, old); err != nil {
		t.Fatal(err)
	}
	// failingEncoder is not a ShardEncoder, so the pipelined path takes
	// the serial record fallback and must stop after the first failed
	// Write instead of draining the input.
	enc := &failingEncoder{}
	if _, err := e.ReconstructStream(decoderOf(t, "bin", input.Bytes()), enc, nil); err != io.ErrShortWrite {
		t.Fatalf("want the encoder's error, got %v", err)
	}
	if enc.writes != 1 {
		t.Fatalf("failing encoder written %d times, want 1", enc.writes)
	}

	spliceFailureAborts(t, e, input.Bytes())

	// Planner validation (unsorted input) surfaces as the run error.
	unsorted := "# tracetracker name=x workload=w set=S tsdev_known=true\n" +
		"10.000,0,100,8,R,5.000,0\n" +
		"1.000,0,200,8,R,5.000,0\n"
	_, err := e.ReconstructStream(decoderOf(t, "csv", []byte(unsorted)), trace.NewCSVEncoder(io.Discard), nil)
	if err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("unsorted input: got %v", err)
	}
}
