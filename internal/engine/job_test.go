package engine

// Tests that pin the shape of the one job path: a job is blob → stage
// graph → result file, streamed. They hold the memory promise against a
// real corpus store, the storage-fault classification and the stability
// of the cache keys across the removal of the Stream spec field.

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/apicode"
	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/trace"
)

// writeBinInput writes tr as a bin file under dir and returns its path.
func writeBinInput(t *testing.T, dir string, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(dir, "in.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func openCorpus(t *testing.T) *corpus.Store {
	t.Helper()
	s, err := corpus.Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hexKey is a distinct well-formed input digest per i.
func hexKey(i int) string { return fmt.Sprintf("%064x", i) }

// TestRunJobCachedMissBoundedMemory holds a cache miss to the streaming
// memory promise, whatever the method: a 200k-request bin job through
// RunJobCached against a real corpus store allocates a small multiple of
// the in-flight window (Workers · MaxShardRequests requests), not a
// multiple of the trace. Materializing the input or the output alone
// would be 9.6 MB. With its model stored beside the blob, the inference
// path keeps the same promise. So does a spec that still carries a
// "reorder_window" of 2³⁰, which once made a job buffer its whole input.
func TestRunJobCachedMissBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting at full trace size")
	}
	const n = 200_000
	const workers, maxShard = 2, 4096
	inPath := writeBinInput(t, t.TempDir(), allocBenchTrace(n))
	store := openCorpus(t)
	cfg := Config{Workers: workers, MaxShardRequests: maxShard}
	window := uint64(workers * maxShard * int(unsafe.Sizeof(trace.Request{})))
	whole := uint64(n * int(unsafe.Sizeof(trace.Request{})))
	// 16 windows (measured: 13): the token pool admits 4·Workers epochs,
	// each with its request buffer, decomposition scratch and rendered
	// bytes, plus the decoder's and the encoder's block buffers.
	limit := 16 * window
	if limit >= whole {
		t.Fatalf("fixture: the bound (%d B) does not separate streaming from materializing (%d B)", limit, whole)
	}
	// The inference path under the same bound: the same records with no
	// recorded latencies, their model stored with the blob. A job that
	// fitted for itself would hold the classifier's 8 B per request (a
	// quarter of the bound on its own) and a second decoder; this one
	// never opens the fit pass.
	unknown := allocBenchTrace(n)
	unknown.TsdevKnown = false
	inferPath := writeBinInput(t, t.TempDir(), unknown)
	stored := &storedModelCache{Store: store, m: infer.Model{
		BetaMicros: 0.01, EtaMicros: 0.02, TcdelReadMicros: 20, TcdelWriteMicros: 25,
		FlatReadMicros: -1, FlatWriteMicros: -1,
	}}
	miss := 0
	for _, tc := range []struct {
		name, method, in string
		cache            ResultCache
		json             string // further spec keys, as a client sends them
	}{
		{"tracetracker", "tracetracker", inPath, store, ""},
		{"tracetracker-reorder-window", "tracetracker", inPath, store, `{"reorder_window":1073741824}`},
		{"fixed-th", "fixed-th", inPath, store, ""},
		{"revision", "revision", inPath, store, ""},
		{"acceleration", "acceleration", inPath, store, ""},
		{"tracetracker-stored-model", "tracetracker", inferPath, stored, ""},
	} {
		method := tc.method
		t.Run(tc.name, func(t *testing.T) {
			spec := JobSpec{In: tc.in, InFormat: "bin", OutFormat: "bin", Method: method}
			if tc.json != "" {
				if err := json.Unmarshal([]byte(tc.json), &spec); err != nil {
					t.Fatal(err)
				}
			}
			reg := obs.NewRegistry()
			cfg := cfg
			cfg.Metrics = obs.NewEngineMetrics(reg)
			run := func() {
				miss++
				res, hit, err := RunJobCached(cfg, spec, hexKey(miss), tc.cache)
				if err != nil {
					t.Fatal(err)
				}
				wantReport := method != "acceleration" // which runs no graph
				if hit || (res.Report != nil) != wantReport || (wantReport && res.Report.Requests != n) {
					t.Fatalf("run %d: hit=%v report=%+v", miss, hit, res.Report)
				}
			}
			run() // warm up code paths

			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			run()
			runtime.ReadMemStats(&m1)

			got := m1.TotalAlloc - m0.TotalAlloc
			t.Logf("miss allocated %d B (window %d B, limit %d B, whole trace %d B)", got, window, limit, whole)
			if got > limit {
				t.Fatalf("cache miss allocated %d B, want <= %d B (16 × the %d B in-flight window); the whole trace is %d B",
					got, limit, window, whole)
			}
			wantStored := 0.0
			if tc.cache == stored {
				wantStored = 2
			}
			if job, st := modelFits(t, reg); job != 0 || st != wantStored {
				t.Fatalf("engine_model_fits_total job=%v stored=%v, want 0 and %v", job, st, wantStored)
			}
		})
	}
}

// storedModelCache is a corpus store that answers every input digest
// with one model, as if ingest had fitted it — the tests above run
// under made-up digests the store holds no entry for.
type storedModelCache struct {
	*corpus.Store
	m infer.Model
}

func (c *storedModelCache) FittedModel(string) *infer.Model {
	m := c.m
	return &m
}

// TestRunJobCachedStorageFaultMidStream fails the result cache's disk
// in the middle of a job's output — after at least one epoch is out —
// on both graphs, over a bin input (decoded sequentially) and a csv
// input (decoded ahead by the read-ahead decoder). The job must fail
// as a storage fault (not as whatever the encoder or the merge made of
// the write error), leave neither a cache entry nor a staged file nor a
// decoder goroutine behind, and run clean once the disk recovers.
func TestRunJobCachedStorageFaultMidStream(t *testing.T) {
	const n = 40_000
	const maxShard = 1024
	dir := t.TempDir()
	binPath := writeBinInput(t, dir, allocBenchTrace(n))
	csvPath, _ := writeInput(t, dir, "in", "csv", allocBenchTrace(n))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if !readsAhead(t, csvPath, "csv") {
		t.Fatal("fixture: the csv input does not reach the read-ahead decoder at GOMAXPROCS 2")
	}
	for _, dev := range []string{"array", "ftl"} { // shard-safe target, serviced target
		t.Run(dev, func(t *testing.T) {
			for i, in := range []struct{ path, format string }{{binPath, "bin"}, {csvPath, "csv"}} {
				store := openCorpus(t)
				fi := faultfs.New()
				store.SetFaultInjector(fi)
				cfg := Config{Workers: 2, MaxShardRequests: maxShard}
				spec := JobSpec{In: in.path, InFormat: in.format, OutFormat: "csv", Device: dev}
				digest := hexKey(1 + i)
				key := CacheKey(digest, spec)

				base := runtime.NumGoroutine()
				// Four epochs of csv records (>= 20 B each) pass before the
				// disk dies; most of the output is still to come.
				fi.Fail(faultfs.SinkCorpusResult, 4*maxShard*20, syscall.ENOSPC)
				_, _, err := RunJobCached(cfg, spec, digest, store)
				if !errors.Is(err, ErrStorage) || !errors.Is(err, syscall.ENOSPC) {
					t.Fatalf("%s: faulted job: %v, want ErrStorage wrapping ENOSPC", in.format, err)
				}
				if fi.Hits(faultfs.SinkCorpusResult) == 0 {
					t.Fatalf("%s: result fault never fired", in.format)
				}
				if _, _, ok := store.LookupResult(key); ok {
					t.Fatalf("%s: failed job left a cache entry", in.format)
				}
				tmps, err := os.ReadDir(filepath.Join(store.Root(), "tmp"))
				if err != nil {
					t.Fatal(err)
				}
				if len(tmps) != 0 {
					t.Fatalf("%s: failed job left %d staged files (%s, ...)", in.format, len(tmps), tmps[0].Name())
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base {
					if time.Now().After(deadline) {
						t.Fatalf("%s: goroutines leaked: %d > baseline %d", in.format, runtime.NumGoroutine(), base)
					}
					time.Sleep(10 * time.Millisecond)
				}

				fi.Clear(faultfs.SinkCorpusResult)
				res, hit, err := RunJobCached(cfg, spec, digest, store)
				if err != nil {
					t.Fatalf("%s: retry after the disk recovered: %v", in.format, err)
				}
				if hit || res.Report.Requests != n {
					t.Fatalf("%s: retry: hit=%v report=%+v; the failed attempt must not have cached anything", in.format, hit, res.Report)
				}
			}
		})
	}
}

// barrierCache makes concurrent RunJobCached calls all miss: each
// LookupResult waits until every racer has looked.
type barrierCache struct {
	*corpus.Store
	looked sync.WaitGroup
}

func (c *barrierCache) LookupResult(key string) (string, []byte, bool) {
	p, note, ok := c.Store.LookupResult(key)
	c.looked.Done()
	c.looked.Wait()
	return p, note, ok
}

// TestRunJobCachedRacingWriters runs one key from two goroutines that
// both miss the lookup, so both stream a full result into their own
// staging file: both succeed with the same report, the cache keeps
// exactly one file, and the loser's staging file is gone.
func TestRunJobCachedRacingWriters(t *testing.T) {
	const n = 20_000
	inPath := writeBinInput(t, t.TempDir(), allocBenchTrace(n))
	store := openCorpus(t)
	cache := &barrierCache{Store: store}
	cache.looked.Add(2)
	spec := JobSpec{In: inPath, InFormat: "bin", OutFormat: "bin"}
	var wg sync.WaitGroup
	var res [2]*JobResult
	var errs [2]error
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], _, errs[i] = RunJobCached(Config{Workers: 2, MaxShardRequests: 1024}, spec, hexKey(7), cache)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
	}
	if res[0].OutPath != res[1].OutPath || res[0].Report.Requests != n || res[1].Report.Requests != n {
		t.Fatalf("racers disagree: %+v / %+v", res[0], res[1])
	}
	for dir, want := range map[string]int{"results": 2, "tmp": 0} { // result + sidecar
		des, err := os.ReadDir(filepath.Join(store.Root(), dir))
		if err != nil {
			t.Fatal(err)
		}
		if len(des) != want {
			t.Fatalf("%s/ holds %d files after the race, want %d", dir, len(des), want)
		}
	}
}

// TestRunJobNeverClobbersOutput covers the sink RunJob owns: a failed
// job neither replaces an existing output file nor leaves its partial
// file behind, and a job without an output path is refused.
func TestRunJobNeverClobbersOutput(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(outPath, []byte("precious"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := RunJob(Config{}, JobSpec{In: filepath.Join(dir, "missing.csv"), Out: outPath}); err == nil {
		t.Fatal("job with a missing input succeeded")
	}
	if got, _ := os.ReadFile(outPath); string(got) != "precious" {
		t.Fatalf("failed job replaced the existing output: %q", got)
	}
	if left, _ := filepath.Glob(outPath + ".partial-*"); len(left) != 0 {
		t.Fatalf("failed job left partial files: %v", left)
	}
	if _, err := RunJob(Config{}, JobSpec{In: filepath.Join(dir, "missing.csv")}); err == nil {
		t.Fatal("RunJob without an output path succeeded")
	}
}

// TestFingerprintGolden pins the fingerprints (and through them every
// stored result-cache key) to the values the tree produced while
// JobSpec still had its Stream, Parallel and ReorderWindow fields:
// Stream and Parallel were zeroed before digesting and omitted from the
// JSON when zero, and ReorderWindow defaulted to the input format's
// window (msrc/spc) and is now digested as exactly that, so deleting
// them must not move the key of a spec that never set them. The specs
// arrive as JSON the way the daemon and its journal hold them,
// including lines that still carry "stream":true and "parallel":8, and
// a "reorder_window" that no longer changes what a job reads.
func TestFingerprintGolden(t *testing.T) {
	golden := []struct{ spec, want string }{
		{`{"in":"/a/in.csv"}`, "9d2fd93318247f2fa1c5a0677468fba4f682bdb7ac7ca5d1523e97945697fecf"},
		{`{"in":"/a/in.csv","out":"/tmp/o.csv","stream":true,"parallel":8,"name":"x"}`, "9d2fd93318247f2fa1c5a0677468fba4f682bdb7ac7ca5d1523e97945697fecf"},
		{`{"in":"corpus:abc","informat":"bin","outformat":"bin"}`, "bf12cdf3e97bd5524d6a7617a5405285ed13b4fbbbde5520ae0a592e011c688f"},
		{`{"in":"/a/in.csv","method":"dynamic"}`, "bd94fa14fd8c3aa0343a9944bd128f4e5b34b32424ff0b03f1ae83a0a489e93e"},
		{`{"in":"/a/in.csv","device":"hdd"}`, "ef96381224d393ec5bdf899ae13d72653ce6bdfd7ff67fe2a004dea8205c2c50"},
		{`{"in":"/a/in.csv","device":"ftl","ftl_config":{"blocks":128}}`, "5eb554a0ade47efe013ec4f7eb5dc4739fc3d9454bce1f1ac009c18aabcbb3cc"},
		{`{"in":"/a/in.csv","device":"host","host_config":{"inner":"old"}}`, "d06be15403eff0c73f2a123935700103b092a1060330dfd2a600986a539cc7a3"},
		{`{"in":"/a/in.msrc","informat":"msrc"}`, "71dcabc1466ace08aab11a99d37518ee43744f4a6a84b233e0ab4934635bad68"},
		{`{"in":"/a/in.msrc","informat":"msrc","reorder_window":1}`, "71dcabc1466ace08aab11a99d37518ee43744f4a6a84b233e0ab4934635bad68"},
		{`{"in":"/a/in.csv","reorder_window":7}`, "9d2fd93318247f2fa1c5a0677468fba4f682bdb7ac7ca5d1523e97945697fecf"},
		{`{"in":"/a/in.csv","outformat":"fio","fio_device":"/dev/sdz"}`, "7f809b204b3d87a26adb5f9b63efc29c3673e9e7a9c2bf0ebf03097a048ba298"},
		{`{"in":"/a/in.csv","method":"fixed-th","threshold_us":250}`, "86ddf942c71862cfd1f674e4eaf0fca9517e8cd0516a91525910310d98dc3406"},
		{`{"in":"/a/in.csv","method":"acceleration","factor":4}`, "ed2a2e6e587932b16090e3026562e0c8fcca3e0b324b03a98a2e10c064360539"},
		{`{"in":"/a/in.csv","method":"revision","device":"ssd"}`, "8e05b2bb14f2bcfd45a5330ebbbdfc73806d208ec3b314d125632b57abc9b660"},
		// A host config that spells its defaults keys as the plain host.
		{`{"in":"/a/in.csv","device":"host"}`, "d06be15403eff0c73f2a123935700103b092a1060330dfd2a600986a539cc7a3"},
		{`{"in":"/a/in.csv","device":"host","host_config":{"device":"hdd"}}`, "d06be15403eff0c73f2a123935700103b092a1060330dfd2a600986a539cc7a3"},
		{`{"in":"/a/in.csv","device":"host","host_config":{"cache_pages":65536}}`, "d06be15403eff0c73f2a123935700103b092a1060330dfd2a600986a539cc7a3"},
	}
	for _, g := range golden {
		var s JobSpec
		if err := json.Unmarshal([]byte(g.spec), &s); err != nil {
			t.Fatalf("%s: %v", g.spec, err)
		}
		if got := s.Fingerprint(); got != g.want {
			t.Errorf("%s: fingerprint moved\n got %s\nwant %s", g.spec, got, g.want)
		}
	}
	var s JobSpec
	if err := json.Unmarshal([]byte(golden[1].spec), &s); err != nil {
		t.Fatal(err)
	}
	if got, want := CacheKey("d1", s), "a2b7f4ff2fc9a92f5847f78995c5e7fbbfdcec8b643508253b85a06a3ca013a3"; got != want {
		t.Errorf("cache key moved\n got %s\nwant %s", got, want)
	}
}

// TestJobSpecFormats holds JobSpec.Validate to the codec table: an
// informat is accepted exactly when the table lists it as an input, an
// outformat exactly when it lists it as an output.
func TestJobSpecFormats(t *testing.T) {
	in, out := trace.Formats(trace.Input), trace.Formats(trace.Output)
	names := append(append([]string{"auto", "bogus", "CSV"}, in...), out...)
	for _, name := range names {
		for _, tc := range []struct {
			field  string
			spec   JobSpec
			accept bool
		}{
			{"informat", JobSpec{In: "x", InFormat: name}, slices.Contains(in, name)},
			{"outformat", JobSpec{In: "x", OutFormat: name}, slices.Contains(out, name)},
		} {
			err := tc.spec.Normalized().Validate()
			var ve *ValidationError
			switch {
			case tc.accept && err != nil:
				t.Errorf("%s %q rejected: %v", tc.field, name, err)
			case !tc.accept && (!errors.As(err, &ve) || ve.Field != tc.field || ve.Code != apicode.UnknownFormat):
				t.Errorf("%s %q: got %v, want an unknown_format error on %s", tc.field, name, err, tc.field)
			}
		}
	}
}

// TestJobRefusesLongBinMeta: a csv input whose header name is longer
// than the binary header holds must fail a bin job — written to a path
// or into the result cache — and leave no output, no partial file and
// no stored result; the same input still reconstructs to csv.
func TestJobRefusesLongBinMeta(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "long.csv")
	header := "# tracetracker name=" + strings.Repeat("n", 70_000) + " workload=w set=S tsdev_known=true\n"
	if err := os.WriteFile(in, []byte(header+"0,0,0,8,R,100,0\n500,0,8,8,W,120,0\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{In: in, OutFormat: "bin", Out: filepath.Join(dir, "out.bin")}
	if _, err := RunJob(Config{}, spec); err == nil {
		t.Fatal("bin job with a 70,000-byte name succeeded")
	}
	if left, _ := filepath.Glob(spec.Out + "*"); len(left) != 0 {
		t.Fatalf("failed job left %v", left)
	}
	store := openCorpus(t)
	if _, _, err := RunJobCached(Config{}, spec, hexKey(3), store); err == nil {
		t.Fatal("cached bin job with a 70,000-byte name succeeded")
	}
	if _, _, ok := store.LookupResult(CacheKey(hexKey(3), spec)); ok {
		t.Fatal("failed job stored a result")
	}
	if tmps, _ := os.ReadDir(filepath.Join(store.Root(), "tmp")); len(tmps) != 0 {
		t.Fatalf("failed job left %d staged files", len(tmps))
	}
	spec.OutFormat, spec.Out = "csv", filepath.Join(dir, "out.csv")
	if _, err := RunJob(Config{}, spec); err != nil {
		t.Fatalf("csv job on the same input: %v", err)
	}
}

// FuzzJobSpec feeds arbitrary JSON bodies through the daemon's view of a
// spec — decode, Normalized, Validate. A spec Validate accepts must build
// device configs whose durations are all non-negative, and must
// fingerprint the same after a second Normalized; a device-config knob a
// rejection names must be one the body sets. Spelling any knob the
// accepted spec leaves unset at its registry Default, or naming its
// inner device by any name of that device's row, must leave it valid,
// with the same fingerprint and kept-target key. The seeds are the two
// defects the *_us bounds fixed: a latency whose nanoseconds overflow an
// int64 (it wrapped negative), and a negative program latency reported
// on read_latency_us; and host configs that spell the defaults, which
// once keyed apart from the plain host.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"in":"x","device":"host","host_config":{"device":"hdd"}}`,
		`{"in":"x","device":"host","host_config":{"cache_pages":65536}}`,
		`{"in":"x","device":"host","host_config":{"device":"old","dirty_high_water":0.2,"flush_batch":4}}`,
		`{"in":"x.csv"}`,
		`{"in":"x","device":"ftl","ftl_config":{"read_latency_us":1e300}}`,
		`{"in":"x","device":"host","host_config":{"hit_latency_us":1e300}}`,
		`{"in":"x","device":"ftl","ftl_config":{"program_latency_us":-1}}`,
		`{"in":"x","device":"host","host_config":{"device":"new","syscall_overhead_us":3.5,"readahead_pages":-1}}`,
		`{"in":"x.msrc","informat":"msrc","method":"fixed-th","threshold_us":250,"factor":7}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		n := spec.Normalized()
		if err := n.Validate(); err != nil {
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("Validate: %v is not a *ValidationError", err)
			}
			section, knob, nested := strings.Cut(ve.Field, ".")
			if nested && !setsKnob(t, spec, section, knob) {
				t.Fatalf("%s: rejected on %s, a knob the spec leaves unset: %v", body, ve.Field, err)
			}
			return
		}
		fc := n.FTLConfig.Config()
		hc := n.HostConfig.Config()
		for name, d := range map[string]time.Duration{
			"ftl read latency": fc.ReadLatency, "ftl program latency": fc.ProgramLatency, "ftl erase latency": fc.EraseLatency,
			"host syscall overhead": hc.SyscallOverhead, "host hit latency": hc.HitLatency,
		} {
			if d < 0 {
				t.Fatalf("%s: accepted with %s %v", body, name, d)
			}
		}
		if a, b := n.Fingerprint(), n.Normalized().Fingerprint(); a != b {
			t.Fatalf("%s: fingerprint %s moves to %s under a second Normalized", body, a, b)
		}
		fp, key := n.Fingerprint(), targetsFor(n, nil).key
		for _, d := range Devices() {
			for _, k := range d.Knobs {
				values := []string{k.Default}
				if k.Type == "string" {
					// The inner device, set or by default, by every name.
					e := deviceEntryFor(normalizeDevice(cmp.Or(knobValue(t, spec, d.ConfigField, k.Name), k.Default)))
					values = append([]string{e.info.Name}, e.info.Aliases...)
					for i := range values {
						values[i] = strconv.Quote(values[i])
					}
				} else if setsKnob(t, spec, d.ConfigField, k.Name) {
					continue
				}
				for _, v := range values {
					r := respell(t, spec, d.ConfigField, k.Name, v).Normalized()
					if err := r.Validate(); err != nil {
						t.Fatalf("%s with %s.%s=%s: %v", body, d.ConfigField, k.Name, v, err)
					}
					if r.Fingerprint() != fp || targetsFor(r, nil).key != key {
						t.Fatalf("%s with %s.%s=%s keys apart from the spec", body, d.ConfigField, k.Name, v)
					}
				}
			}
		}
	})
}

// nestedKnobs is spec's nested config section as the spec's own
// encoding spells it (nil when unset).
func nestedKnobs(t *testing.T, spec JobSpec, section string) (outer, inner map[string]json.RawMessage) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &outer); err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(outer[section], &inner)
	return outer, inner
}

// knobValue is the string knob section.knob as spec sets it ("" when
// unset).
func knobValue(t *testing.T, spec JobSpec, section, knob string) string {
	_, inner := nestedKnobs(t, spec, section)
	var v string
	json.Unmarshal(inner[knob], &v)
	return v
}

// respell is spec with section.knob set to the JSON value v.
func respell(t *testing.T, spec JobSpec, section, knob, v string) JobSpec {
	outer, inner := nestedKnobs(t, spec, section)
	if inner == nil {
		inner = map[string]json.RawMessage{}
	}
	inner[knob] = json.RawMessage(v)
	var err error
	if outer[section], err = json.Marshal(inner); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(outer)
	if err != nil {
		t.Fatal(err)
	}
	var r JobSpec
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// setsKnob reports whether spec sets the nested config knob section.knob
// — whether the knob survives the spec's own omitempty encoding.
func setsKnob(t *testing.T, spec JobSpec, section, knob string) bool {
	_, inner := nestedKnobs(t, spec, section)
	_, ok := inner[knob]
	return ok
}
