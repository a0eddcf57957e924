package engine

import (
	"bytes"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestStreamAbandonClosesDecoder is the engine side of the PR 4 leak
// delta: a planner validation error abandons the input decoder
// mid-stream, and ReconstructStream must close it so a parallel
// decoder's workers exit instead of leaking — and so must a failed job
// of a comparison method.
func TestStreamAbandonClosesDecoder(t *testing.T) {
	old := genOld(t, "MSNFS", 40_000, true)
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, old); err != nil {
		t.Fatal(err)
	}
	// Swap an early record's arrival far forward so the planner sees an
	// unsorted stream after a few shards, with decode segments still in
	// flight behind it.
	lines := strings.SplitAfter(buf.String(), "\n")
	lines[len(lines)/4] = "999999999.000,0,100,8,R,5.000,0\n"
	data := []byte(strings.Join(lines, ""))
	if len(data) < trace.ParallelMinBytes {
		t.Fatalf("fixture too small (%d bytes) for the parallel decoder", len(data))
	}
	path := t.TempDir() + "/unsorted.csv"
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		dec, err := openDecoder(path, "csv", 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		e := New(testConfig(2, core.Options{}))
		if _, err := e.ReconstructStream(dec, trace.NewCSVEncoder(bytes.NewBuffer(nil)), nil); err == nil {
			t.Fatal("want an unsorted-input error")
		}
		// ReconstructStream already closed the decoder; the caller's
		// usual deferred Close must be a no-op join on top.
		dec.Close()
	}
	// The comparison methods take the same input path: a failed job of
	// either kind — the graph, acceleration's record loop — joins the
	// parallel decoder's workers on its way out.
	for _, method := range []string{"revision", "acceleration"} {
		spec := JobSpec{In: path, Method: method, Parallel: 4}
		if _, err := RunJobTo(testConfig(2, core.Options{}), spec, io.Discard); !errors.Is(err, trace.ErrUnsorted) {
			t.Fatalf("%s: %v, want an unsorted-input error", method, err)
		}
	}
	// A cached job handed its model by the store opens that one decoder
	// and no fit pass before it: the same join, nothing else to leak.
	unknownPath := t.TempDir() + "/unsorted-unknown.csv"
	unknown := bytes.Replace(data, []byte("tsdev_known=true"), []byte("tsdev_known=false"), 1)
	if err := os.WriteFile(unknownPath, unknown, 0o666); err != nil {
		t.Fatal(err)
	}
	cache := newMemCache(t)
	cache.models = map[string]*infer.Model{"d": {TcdelReadMicros: 50, TcdelWriteMicros: 50, FlatReadMicros: -1, FlatWriteMicros: -1}}
	reg := obs.NewRegistry()
	cfg := testConfig(2, core.Options{})
	cfg.Metrics = obs.NewEngineMetrics(reg)
	if _, _, err := RunJobCached(cfg, JobSpec{In: unknownPath, Parallel: 4}, "d", cache); !errors.Is(err, trace.ErrUnsorted) {
		t.Fatalf("stored-model job: %v, want an unsorted-input error", err)
	}
	if job, stored := modelFits(t, reg); job != 0 || stored != 1 {
		t.Fatalf("stored-model job fitted for itself: job=%v stored=%v", job, stored)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
