package engine

// Tests that hold what a long-lived process shares across jobs — one
// Config with its decode buffers, one corpus store with its own ingest
// scratch — to the rule that nothing shared carries state from one job
// into the next: concurrent jobs on mixed targets and concurrent ingests
// on the same buffers produce exactly what fresh ones would.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/infer"
	"repro/internal/trace"
)

// writeInput writes tr in format under dir and returns the path and the
// trace as a job decodes it (csv quantizes arrivals).
func writeInput(t *testing.T, dir, name, format string, tr *trace.Trace) (string, *trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteFormat(format, &buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+"."+format)
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	return path, readTraceFile(t, path, format)
}

// readsAhead reports whether a job in this process, at its current
// GOMAXPROCS, reads path through the read-ahead decoder
// (trace.ReadAhead).
func readsAhead(t testing.TB, path, format string) bool {
	t.Helper()
	dec, _, err := trace.OpenFileDecoder(path, format)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	_, ok := dec.(*trace.ReadAhead)
	return ok
}

// referenceBytes is the sequential pipeline's output for old on device,
// rendered in format.
func referenceBytes(t *testing.T, old *trace.Trace, device, format string) []byte {
	t.Helper()
	mk, err := DeviceFactory(device)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Reconstruct(old, mk(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	enc, err := trace.NewEncoder(format, &out, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeTrace(enc, want); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestSharedBuffersAcrossJobs runs, twice and in shuffled order, eight
// concurrent jobs on mixed targets (array, ssd, hdd, ftl, host; recorded
// and inferred latencies; csv and bin both ways; 2 or 4 workers;
// GOMAXPROCS 2, so text reads ahead) next to two concurrent ingests
// that fit models, all on one store, their
// decodes borrowing from the process's one set of kept read buffers and
// request batches. Every job's bytes must be core.Reconstruct's
// and every stored model the fit of its trace; under -race, no buffer
// may be touched by two decodes at once.
func TestSharedBuffersAcrossJobs(t *testing.T) {
	const n = 36_000 // over trace.ReadAheadMinBytes in csv: the read-ahead decoder runs
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	dir := t.TempDir()
	known, knownOld := writeInput(t, dir, "msnfs", "bin", genOld(t, "MSNFS", n, true))
	unknown, unknownOld := writeInput(t, dir, "webmail", "csv", genOld(t, "webmail", n, false))
	if !readsAhead(t, unknown, "csv") {
		t.Fatal("fixture: the csv input does not reach the read-ahead decoder at GOMAXPROCS 2")
	}

	type job struct {
		spec    JobSpec
		workers int
		want    []byte
	}
	var jobs []job
	for _, j := range []struct {
		in             string
		old            *trace.Trace
		device, format string
		workers        int
	}{
		{known, knownOld, "array", "bin", 2},
		{known, knownOld, "ssd", "csv", 4},
		{known, knownOld, "hdd", "bin", 2},
		{known, knownOld, "ftl", "bin", 4},
		{known, knownOld, "host", "csv", 2},
		{unknown, unknownOld, "array", "csv", 2},
		{unknown, unknownOld, "ftl", "bin", 2},
		{unknown, unknownOld, "host", "bin", 4},
	} {
		jobs = append(jobs, job{
			spec:    JobSpec{In: j.in, InFormat: filepath.Ext(j.in)[1:], OutFormat: j.format, Device: j.device},
			workers: j.workers,
			want:    referenceBytes(t, j.old, j.device, j.format),
		})
	}

	// Ingest inputs: Tsdev-unknown csv, renamed per ingest so every one is
	// a new blob that decodes and fits.
	var uploads [][]byte
	var fits []*infer.Model
	for _, family := range []string{"webmail", "homes"} {
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, genOld(t, family, n, false)); err != nil {
			t.Fatal(err)
		}
		// The fit of what ingest decodes: csv quantizes the arrivals.
		dec, err := trace.ReadFormat("csv", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		m, err := infer.Estimate(dec, infer.EstimateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		uploads = append(uploads, buf.Bytes())
		fits = append(fits, m)
	}

	store, err := corpus.Open(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2; round++ {
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var out bytes.Buffer
				if _, err := RunJobTo(Config{Workers: j.workers}, j.spec, &out); err != nil {
					t.Errorf("round %d %s on %s: %v", round, j.spec.In, j.spec.Device, err)
					return
				}
				if !bytes.Equal(out.Bytes(), j.want) {
					t.Errorf("round %d %s on %s → %s: output differs from core.Reconstruct's", round, filepath.Base(j.spec.In), j.spec.Device, j.spec.OutFormat)
				}
			}()
		}
		for i := range uploads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				blob := bytes.Replace(uploads[i], []byte("name="), []byte(fmt.Sprintf("name=r%d-", round)), 1)
				e, created, err := store.Ingest(bytes.NewReader(blob), "csv")
				if err != nil || !created {
					t.Errorf("round %d ingest %d: created=%v %v", round, i, created, err)
					return
				}
				if e.Model == nil || !sameModel(e.Model, fits[i]) {
					t.Errorf("round %d ingest %d: stored model %+v, want the trace's fit %+v", round, i, e.Model, fits[i])
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
}
