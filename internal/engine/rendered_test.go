package engine

// A text upload is decoded once: ingest writes its arrival-order
// records as a bin rendering, and a cached job reads that instead of
// the text. These tests hold the two reads to the same bytes and pin
// every case in which the rendering must not be read.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fixtureDir holds the command tests' shared input fixtures.
var fixtureDir = filepath.Join("..", "..", "cmd", "testdata")

// jobInputs reads engine_job_inputs_total{source} off reg.
func jobInputs(t *testing.T, reg *obs.Registry) (rendering, blob float64) {
	t.Helper()
	return metricOf(t, reg, "engine_job_inputs_total", obs.Labels{"source": "rendering"}),
		metricOf(t, reg, "engine_job_inputs_total", obs.Labels{"source": "blob"})
}

// ingestFile lands the file at path in store as format and returns its
// entry and blob path.
func ingestFile(t *testing.T, store *corpus.Store, path, format string) (corpus.Entry, string) {
	t.Helper()
	e, _, err := store.IngestFile(path, format)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := store.BlobPath(e.Digest)
	if err != nil {
		t.Fatal(err)
	}
	return e, blob
}

// renderedJob runs spec on the blob of e through RunJobCached with a
// fresh metrics registry and returns the output bytes, the report as
// JSON and whether the job read the rendering.
func renderedJob(t *testing.T, store *corpus.Store, e corpus.Entry, spec JobSpec) ([]byte, []byte, bool) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := testConfig(2)
	cfg.Metrics = obs.NewEngineMetrics(reg)
	res, hit, err := RunJobCached(cfg, spec, e.Digest, store)
	if err != nil || hit {
		t.Fatalf("%+v: hit=%v err=%v", spec, hit, err)
	}
	got, err := os.ReadFile(res.OutPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := json.Marshal(res.Report)
	rendering, blob := jobInputs(t, reg)
	if rendering+blob != 1 {
		t.Fatalf("engine_job_inputs_total rendering=%v blob=%v after one job", rendering, blob)
	}
	return got, rep, rendering == 1
}

// blobJob runs spec on the blob itself, as the CLI does.
func blobJob(t *testing.T, spec JobSpec) ([]byte, []byte) {
	t.Helper()
	var out bytes.Buffer
	rep, err := RunJobTo(testConfig(2), spec, &out)
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	b, _ := json.Marshal(rep)
	return out.Bytes(), b
}

// TestRenderedJobByteIdentical: a job on a text upload reads the
// rendering ingest wrote and writes exactly what the same job writes on
// the blob — every method, every output format, on a shard-parallel
// and both stateful targets, for csv (Tsdev unknown) and the two
// near-sorted corpora, msrc (Tsdev known) and spc (Tsdev unknown). The
// report is the same, and so is the cache key: a resubmission is a hit.
func TestRenderedJobByteIdentical(t *testing.T) {
	store := openCorpus(t)
	for _, format := range []string{"csv", "msrc", "spc"} {
		e, blob := ingestFile(t, store, filepath.Join(fixtureDir, "fixture."+format), format)
		for _, method := range Methods() {
			for _, dev := range []string{"array", "hdd", "ftl"} {
				for _, out := range trace.Formats(trace.Output) {
					spec := JobSpec{In: blob, InFormat: format, Method: method, Device: dev, OutFormat: out}
					want, wantRep := blobJob(t, spec)
					got, gotRep, rendered := renderedJob(t, store, e, spec)
					if !rendered {
						t.Fatalf("%s %s %s %s: the job read the blob, not the rendering", format, method, dev, out)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s %s %s %s: %d bytes from the rendering, %d from the blob", format, method, dev, out, len(got), len(want))
					}
					if !bytes.Equal(gotRep, wantRep) {
						t.Fatalf("%s %s %s %s: report %s from the rendering, %s from the blob", format, method, dev, out, gotRep, wantRep)
					}
					if _, hit, err := RunJobCached(testConfig(2), spec, e.Digest, store); err != nil || !hit {
						t.Fatalf("%s %s %s %s: resubmission hit=%v err=%v", format, method, dev, out, hit, err)
					}
				}
			}
		}
	}
}

// TestRenderedJobFallsBackToBlob: where the rendering cannot be
// trusted the job reads the blob, to the same bytes — a rendering of
// the wrong size (torn, grown), one that is gone (a store written
// before renderings), a spec that reads the blob as another format, and
// a bin upload, which is never rendered.
func TestRenderedJobFallsBackToBlob(t *testing.T) {
	root := filepath.Join(t.TempDir(), "data")
	store, err := corpus.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	e, blob := ingestFile(t, store, filepath.Join(fixtureDir, "fixture.csv"), "csv")
	rendering := filepath.Join(root, "renders", e.Digest)
	n := 0
	check := func(label string, s *corpus.Store, wantRendered bool) {
		t.Helper()
		n++
		// Every check is a new cache key: a fixed-th key holds its
		// threshold.
		spec := JobSpec{In: blob, Device: "hdd", Method: "fixed-th", ThresholdUS: float64(100 * n)}
		want, _ := blobJob(t, spec)
		got, _, rendered := renderedJob(t, s, e, spec)
		if rendered != wantRendered {
			t.Fatalf("%s: read the rendering = %v, want %v", label, rendered, wantRendered)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: output diverges from the blob's", label)
		}
	}
	check("intact", store, true)

	orig, err := os.ReadFile(rendering)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rendering, orig[:len(orig)-1], 0o666); err != nil {
		t.Fatal(err)
	}
	check("torn", store, false)
	if err := os.WriteFile(rendering, append(bytes.Clone(orig), 0), 0o666); err != nil {
		t.Fatal(err)
	}
	check("grown", store, false)

	// A store of the layout before renderings: no renders/ at all.
	if err := os.RemoveAll(filepath.Join(root, "renders")); err != nil {
		t.Fatal(err)
	}
	old, err := corpus.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	check("pre-rendering store", old, false)
	spec := JobSpec{In: blob, Device: "hdd"}
	want, _ := blobJob(t, spec)
	if got, _, _ := renderedJob(t, old, e, spec); !bytes.Equal(got, want) {
		t.Fatal("pre-rendering store: the default job's bytes diverge from the blob's")
	}

	// The same csv bytes read as another text format have no rendering.
	if _, _, ok := old.JobInput(e.Digest, "spc"); ok {
		t.Fatal("a csv blob's rendering was offered for an spc read")
	}

	// A bin upload is its own decoded form.
	be, bblob := ingestFile(t, store, filepath.Join(fixtureDir, "fixture.bin"), "bin")
	if _, err := os.Stat(filepath.Join(root, "renders", be.Digest)); !os.IsNotExist(err) {
		t.Fatalf("a bin upload was rendered: %v", err)
	}
	bspec := JobSpec{In: bblob, InFormat: "bin"}
	bwant, _ := blobJob(t, bspec)
	bgot, _, rendered := renderedJob(t, store, be, bspec)
	if rendered || !bytes.Equal(bgot, bwant) {
		t.Fatalf("bin upload: rendered=%v, same bytes=%v", rendered, bytes.Equal(bgot, bwant))
	}
}

// FuzzRenderedJob runs one job both ways on whatever text ingest
// takes: the input bytes land in a temp store as csv, msrc or spc; a
// job picked from the input (method, target, output format) runs
// through RunJobCached — on the rendering — and through RunJobTo on the
// blob, and the two must agree byte for byte, report for report, or
// fail with the same error. Seeds are the command fixtures.
func FuzzRenderedJob(f *testing.F) {
	formats := []string{"csv", "msrc", "spc"}
	for i, format := range formats {
		data, err := os.ReadFile(filepath.Join(fixtureDir, "fixture."+format))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(i), uint8(0), uint8(0), uint8(0))
		// The first 64 lines: a small input the mutator works quickly.
		head := data
		for k, at := 0, 0; k < 64 && at < len(head); k++ {
			j := bytes.IndexByte(head[at:], '\n')
			if j < 0 {
				break
			}
			at += j + 1
			head = data[:at]
		}
		f.Add(bytes.Clone(head), uint8(i), uint8(1+i), uint8(2+i), uint8(1+i))
	}
	f.Fuzz(func(t *testing.T, data []byte, fsel, msel, dsel, osel uint8) {
		format := formats[int(fsel)%len(formats)]
		store, err := corpus.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := store.Ingest(bytes.NewReader(data), format)
		if err != nil {
			return // not a trace ingest takes
		}
		blob, err := store.BlobPath(e.Digest)
		if err != nil {
			t.Fatal(err)
		}
		methods, devs, outs := Methods(), Devices(), trace.Formats(trace.Output)
		spec := JobSpec{
			In: blob, InFormat: format,
			Method:    methods[int(msel)%len(methods)],
			Device:    devs[int(dsel)%len(devs)].Name,
			OutFormat: outs[int(osel)%len(outs)],
		}
		var want bytes.Buffer
		wantRep, wantErr := RunJobTo(testConfig(2), spec, &want)

		reg := obs.NewRegistry()
		cfg := testConfig(2)
		cfg.Metrics = obs.NewEngineMetrics(reg)
		res, _, err := RunJobCached(cfg, spec, e.Digest, store)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%+v: rendering err %v, blob err %v", spec, err, wantErr)
		}
		if rendering, _ := jobInputs(t, reg); rendering != 1 {
			if _, _, ok := store.JobInput(e.Digest, format); ok {
				t.Fatal("a rendering was offered but not read")
			}
			if len(e.Name) <= 0xffff && len(e.Workload) <= 0xffff && len(e.Set) <= 0xffff {
				t.Fatalf("%s upload of %d requests landed without a rendering", format, e.Requests)
			}
		}
		if err != nil {
			return
		}
		got, err := os.ReadFile(res.OutPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v: %d bytes from the rendering, %d from the blob", spec, len(got), want.Len())
		}
		gotJSON, _ := json.Marshal(res.Report)
		wantJSON, _ := json.Marshal(wantRep)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%+v: report %s from the rendering, %s from the blob", spec, gotJSON, wantJSON)
		}
	})
}
