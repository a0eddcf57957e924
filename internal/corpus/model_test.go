package corpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// webmail generates the inference-path fixture: an FIU webmail trace
// with its latencies dropped (Tsdev-unknown), or kept.
func webmail(t testing.TB, ops int, tsdevKnown bool) *trace.Trace {
	t.Helper()
	p, ok := workload.Lookup("webmail")
	if !ok {
		t.Fatal("webmail profile missing")
	}
	app := workload.Generate(p, workload.GenOptions{Ops: ops, Seed: workload.TraceSeed("webmail", 0)})
	tr := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	tr.Name, tr.Workload, tr.TsdevKnown = "webmail-000", "webmail", tsdevKnown
	if !tsdevKnown {
		for i := range tr.Requests {
			tr.Requests[i].Latency = 0
		}
	}
	return tr
}

func binBytes(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// modelBits renders a model for comparison (%x prints floats in exact
// hex): the stored model stands in for a fit, so equality is bit for
// bit, never approximate.
func modelBits(m *infer.Model) string { return fmt.Sprintf("%x", *m) }

// freshFit is the reference: decode the uploaded bytes as a job would
// and fit them whole.
func freshFit(t *testing.T, format string, data []byte) *infer.Model {
	t.Helper()
	tr, err := trace.ReadFormat(format, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m, err := infer.Estimate(tr, infer.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFittedModelAtIngest is the ingest half of "fit once per trace":
// a Tsdev-unknown csv or bin upload lands with exactly the model a job
// would fit (sequential or parallel decode), the sidecar carries it
// across a reopen bit for bit, and FittedModel hands out copies.
func TestFittedModelAtIngest(t *testing.T) {
	old := webmail(t, 30_000, false)
	csv := csvBytes(t, old)
	if len(csv) < trace.ParallelMinBytes {
		t.Fatalf("fixture only %d bytes; must exceed ParallelMinBytes", len(csv))
	}
	for _, tc := range []struct {
		name, format string
		data         []byte
		parallel     int
	}{
		{"csv", "csv", csv, 0},
		{"csv-parallel", "csv", csv, 4},
		{"csv-sniffed", "auto", csv, 0},
		{"bin", "bin", binBytes(t, old), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t)
			s.SetParallel(tc.parallel)
			reg := obs.NewRegistry()
			s.SetMetrics(obs.NewCorpusMetrics(reg))
			e, created, err := s.Ingest(bytes.NewReader(tc.data), tc.format)
			if err != nil || !created {
				t.Fatalf("ingest: created=%v err=%v", created, err)
			}
			want := modelBits(freshFit(t, e.Format, tc.data))
			if e.Model == nil || modelBits(e.Model) != want {
				t.Fatalf("entry model %+v diverges from a fresh fit", e.Model)
			}
			if fitted, secs := metricOf(t, reg, "corpus_models_fitted_total"), metricOf(t, reg, "corpus_ingest_fit_seconds_total"); fitted != 1 || secs <= 0 {
				t.Fatalf("models fitted=%v fit seconds=%v, want 1 and a positive time", fitted, secs)
			}
			// The summary rode the same loop and flags: unchanged.
			if e.Requests != int64(old.Len()) || e.SeqFraction != old.SeqFraction() || e.TsdevKnown {
				t.Fatalf("summary: %+v", e)
			}

			got := s.FittedModel(e.Digest)
			if got == nil || modelBits(got) != want {
				t.Fatalf("FittedModel %+v diverges from a fresh fit", got)
			}
			// A copy: scribbling on it reaches neither the catalogue nor
			// the next caller.
			got.BetaMicros, got.ReadSizes[0] = -7, 999
			if again := s.FittedModel(e.Digest); modelBits(again) != want {
				t.Fatal("FittedModel handed out the catalogue's own model")
			}
			// A re-upload dedups to the entry, model included, and fits nothing.
			if e2, created, err := s.Ingest(bytes.NewReader(tc.data), tc.format); err != nil || created || modelBits(e2.Model) != want {
				t.Fatalf("re-upload: created=%v err=%v model=%+v", created, err, e2.Model)
			}
			if fitted := metricOf(t, reg, "corpus_models_fitted_total"); fitted != 1 {
				t.Fatalf("re-upload fitted again: %v", fitted)
			}

			// Back through the sidecar's JSON.
			re, err := Open(s.Root())
			if err != nil {
				t.Fatal(err)
			}
			if got := re.FittedModel(e.Digest); got == nil || modelBits(got) != want {
				t.Fatalf("reopened store's model %+v diverges", got)
			}
			if s.FittedModel("00"+e.Digest[2:]) != nil {
				t.Fatal("unknown digest answered a model")
			}
		})
	}
}

// TestFittedModelAbsent lists what lands without a model — and that
// nothing about the fit ever turns an upload away: Tsdev-known traces
// (no classifier is even built), the near-sorted formats, a trace too
// sparse to fit, an unsorted one (accepted as before; its job answers
// ErrUnsorted), and a sidecar from before the field existed.
func TestFittedModelAbsent(t *testing.T) {
	sparse := webmail(t, 40, false)
	unsorted := webmail(t, 4000, false)
	unsorted.Requests[1000].Arrival = unsorted.Requests[3000].Arrival
	const msrc = "128166372003061629,web,0,Read,8192,4096,500\n128166372003071629,web,0,Write,16384,4096,700\n"
	const spc = "0,20941264,8192,W,0.000000\n0,20939840,8192,W,0.001020\n"
	for _, tc := range []struct {
		name, format string
		data         []byte
		wantModel    bool
	}{
		{"tsdev-known", "csv", csvBytes(t, webmail(t, 4000, true)), false},
		{"tsdev-known-bin", "bin", binBytes(t, webmail(t, 4000, true)), false},
		{"msrc", "msrc", []byte(msrc), false},
		{"spc", "spc", []byte(spc), false},
		{"too-sparse", "csv", csvBytes(t, sparse), false},
		// The fit does not police order; the planner does, in the job.
		{"unsorted", "csv", csvBytes(t, unsorted), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t)
			reg := obs.NewRegistry()
			s.SetMetrics(obs.NewCorpusMetrics(reg))
			e, created, err := s.Ingest(bytes.NewReader(tc.data), tc.format)
			if err != nil || !created {
				t.Fatalf("ingest: created=%v err=%v", created, err)
			}
			if (e.Model != nil) != tc.wantModel || (s.FittedModel(e.Digest) != nil) != tc.wantModel {
				t.Fatalf("model %+v, want one: %v", e.Model, tc.wantModel)
			}
			if fitted := metricOf(t, reg, "corpus_models_fitted_total"); (fitted == 1) != tc.wantModel {
				t.Fatalf("corpus_models_fitted_total = %v", fitted)
			}
			side, err := os.ReadFile(filepath.Join(s.Root(), "objects", e.Digest+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(side, []byte(`"model"`)) != tc.wantModel {
				t.Fatalf("sidecar: %s", side)
			}
		})
	}

	t.Run("pre-model-sidecar", func(t *testing.T) {
		s := openStore(t)
		e, _, err := s.Ingest(bytes.NewReader(csvBytes(t, webmail(t, 4000, false))), "csv")
		if err != nil || e.Model == nil {
			t.Fatalf("fixture: model=%v err=%v", e.Model, err)
		}
		stripSidecarModel(t, s.Root(), e.Digest)
		re, err := Open(s.Root())
		if err != nil {
			t.Fatal(err)
		}
		old, err := re.Resolve(e.Digest)
		if err != nil || old.Model != nil || re.FittedModel(e.Digest) != nil {
			t.Fatalf("entry without a model key: model=%+v err=%v", old.Model, err)
		}
		old.Ingested, e.Ingested, e.Model = time.Time{}, time.Time{}, nil
		if old != e {
			t.Fatalf("the rest of the entry moved:\n got %+v\nwant %+v", old, e)
		}
	})
}

// stripSidecarModel rewrites a sidecar the way a store written before
// the model field left it: every key but "model".
func stripSidecarModel(t *testing.T, root, digest string) {
	t.Helper()
	path := filepath.Join(root, "objects", digest+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var side map[string]json.RawMessage
	if err := json.Unmarshal(raw, &side); err != nil {
		t.Fatal(err)
	}
	if _, ok := side["model"]; !ok {
		t.Fatalf("sidecar has no model key: %s", raw)
	}
	delete(side, "model")
	if raw, err = json.Marshal(side); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestFittedModelConcurrent is the -race row: readers take (and
// scribble on) their copies while uploads land and the catalogue is
// rebuilt under them.
func TestFittedModelConcurrent(t *testing.T) {
	s := openStore(t)
	first, _, err := s.Ingest(bytes.NewReader(csvBytes(t, webmail(t, 3000, false))), "csv")
	if err != nil || first.Model == nil {
		t.Fatalf("fixture: model=%v err=%v", first.Model, err)
	}
	want := modelBits(first.Model)
	var uploads [][]byte
	for i := 0; i < 4; i++ {
		uploads = append(uploads, csvBytes(t, webmail(t, 2000+i, false)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := s.FittedModel(first.Digest)
				if m == nil || modelBits(m) != want {
					t.Errorf("reader %d: model %+v", g, m)
					return
				}
				m.TmovdMicros = float64(g*1000 + i)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, data := range uploads {
			if _, _, err := s.Ingest(bytes.NewReader(data), "csv"); err != nil {
				t.Error(err)
			}
			if err := s.Rebuild(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
}

// FuzzModelJSONRoundTrip is what lets a stored model stand in for a
// fit without an identity caveat: any model of finite coefficients
// survives the sidecar — writeJSONAtomic, readJSON — bit for bit, and
// Finite is exactly the line between what the sidecar's JSON can carry
// and what would fail the whole ingest inside json.Marshal.
func FuzzModelJSONRoundTrip(f *testing.F) {
	bits := math.Float64bits
	sub := uint64(1)                        // smallest subnormal
	subMax := uint64(0x000F_FFFF_FFFF_FFFF) // largest subnormal
	rev := bits(1 << 52)                    // the revision method's constant threshold
	flat := bits(-1)                        // the Flat* "unused" sentinel
	negZero := bits(math.Copysign(0, -1))   // must not come back as +0
	third := bits(1.0 / 3)                  // needs all 17 digits
	huge := bits(math.MaxFloat64)           //
	nan, inf := bits(math.NaN()), bits(math.Inf(1))
	f.Add(bits(0.0125), bits(0.02), bits(43.5), bits(51.25), bits(3900.0), flat, flat, uint32(8), uint32(16), uint32(8), uint32(64))
	f.Add(uint64(0), uint64(0), rev, rev, uint64(0), flat, flat, uint32(0), uint32(0), uint32(0), uint32(0))
	f.Add(sub, subMax, third, huge, negZero, bits(120.5), flat, uint32(1), uint32(math.MaxUint32), uint32(7), uint32(7))
	f.Add(nan, uint64(0), uint64(0), uint64(0), uint64(0), flat, flat, uint32(8), uint32(8), uint32(8), uint32(8))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), inf, flat, flat, uint32(8), uint32(8), uint32(8), uint32(8))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, beta, eta, tcr, tcw, tmovd, flatR, flatW uint64, r0, r1, w0, w1 uint32) {
		fb := math.Float64frombits
		in := &infer.Model{
			BetaMicros: fb(beta), EtaMicros: fb(eta),
			TcdelReadMicros: fb(tcr), TcdelWriteMicros: fb(tcw),
			TmovdMicros:    fb(tmovd),
			FlatReadMicros: fb(flatR), FlatWriteMicros: fb(flatW),
			ReadSizes: [2]uint32{r0, r1}, WriteSizes: [2]uint32{w0, w1},
		}
		path := filepath.Join(dir, "sidecar.json")
		err := writeJSONAtomic(dir, path, Entry{Digest: "ab", Format: "csv", Model: in})
		if !in.Finite() {
			if err == nil {
				t.Fatalf("a non-finite model %+v marshalled; Finite is no longer the sidecar's line", in)
			}
			return
		}
		if err != nil {
			t.Fatalf("finite model %+v: %v", in, err)
		}
		var out Entry
		if err := readJSON(path, &out); err != nil {
			t.Fatal(err)
		}
		if out.Model == nil || modelBits(out.Model) != modelBits(in) {
			t.Fatalf("round trip moved a bit:\n in  %+v\n out %+v", in, out.Model)
		}
	})
}

// TestFitScratchReuse: ingests on one store fit on the classifier the
// ingest before them kept, and still land exactly a fresh fit's model;
// what the store keeps between them stays under fitScratchBound and is
// gone once trimmed.
func TestFitScratchReuse(t *testing.T) {
	s := openStore(t)
	for i, ops := range []int{20_000, 5_000, 12_000} {
		data := csvBytes(t, webmail(t, ops, false))
		e, created, err := s.Ingest(bytes.NewReader(data), "csv")
		if err != nil || !created {
			t.Fatalf("ingest %d: created=%v err=%v", i, created, err)
		}
		if want := modelBits(freshFit(t, "csv", data)); e.Model == nil || modelBits(e.Model) != want {
			t.Fatalf("ingest %d: model %+v diverges from a fresh fit", i, e.Model)
		}
		if kept := s.fits.Bytes(); kept == 0 || kept > fitScratchBound {
			t.Fatalf("ingest %d: %d B of fit scratch kept, want 1 to %d", i, kept, fitScratchBound)
		}
	}
	// What the idle timer runs.
	s.fits.Trim()
	if kept := s.fits.Bytes(); kept != 0 {
		t.Fatalf("%d B of fit scratch kept after trimming", kept)
	}
}
