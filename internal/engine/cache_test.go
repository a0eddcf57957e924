package engine

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/trace"
)

// readTraceFile materializes a whole trace from a file.
func readTraceFile(t testing.TB, path, format string) *trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadFormat(format, f)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// memCache is a minimal ResultCache over a temp directory.
type memCache struct {
	dir    string
	notes  map[string][]byte
	stores int
	// models plays the corpus store's sidecars: input digest → the
	// model fitted at ingest.
	models       map[string]*infer.Model
	modelLookups int
}

func newMemCache(t *testing.T) *memCache {
	return &memCache{dir: t.TempDir(), notes: make(map[string][]byte)}
}

func (c *memCache) LookupResult(key string) (string, []byte, bool) {
	note, ok := c.notes[key]
	if !ok {
		return "", nil, false
	}
	return filepath.Join(c.dir, key), note, true
}

func (c *memCache) StoreResultNoted(key, inputDigest string, write func(io.Writer) ([]byte, error)) (string, error) {
	if _, ok := c.notes[key]; ok {
		return filepath.Join(c.dir, key), nil
	}
	f, err := os.Create(filepath.Join(c.dir, key))
	if err != nil {
		return "", err
	}
	defer f.Close()
	note, err := write(f)
	if err != nil {
		return "", err
	}
	c.notes[key] = note
	c.stores++
	return f.Name(), nil
}

func (c *memCache) FittedModel(inputDigest string) *infer.Model {
	c.modelLookups++
	m := c.models[inputDigest]
	if m == nil {
		return nil
	}
	cp := *m
	return &cp
}

// JobInput keeps no renderings: memCache's jobs read their spec's In.
func (c *memCache) JobInput(string, string) (string, string, bool) { return "", "", false }

// TestFingerprintSemantics locks which spec fields enter the job
// fingerprint: labels and paths stay out, output-shaping fields go in.
func TestFingerprintSemantics(t *testing.T) {
	base := JobSpec{In: "/a/in.csv", Method: "tracetracker"}
	fp := base.Fingerprint()

	same := []JobSpec{
		{In: "/elsewhere/other.csv", Method: "tracetracker"},
		{In: "/a/in.csv", Name: "labelled", Method: "tracetracker"},
		{In: "/a/in.csv", Out: "/tmp/out.csv", Method: "tracetracker"},
		{In: "/a/in.csv"},                                    // method defaults to tracetracker
		{In: "/a/in.csv", FIODevice: "/dev/sdz"},             // non-fio output ignores the device
		{In: "/a/in.csv", ThresholdUS: 123},                  // fixed-th-only knob
		{In: "/a/in.csv", Factor: 9},                         // acceleration-only knob
		{In: "/a/in.csv", InFormat: "csv", OutFormat: "csv"}, // explicit defaults
	}
	for i, s := range same {
		if got := s.Fingerprint(); got != fp {
			t.Errorf("variant %d changed the fingerprint", i)
		}
	}
	// A nested config that spells a knob at its registry default, or
	// names the inner device by an alias, is the target without it: the
	// same fingerprint and the same kept-target key.
	host := JobSpec{In: "/a/in.csv", Device: "host"}
	ftl := JobSpec{In: "/a/in.csv", Device: "ftl"}
	smallHost := JobSpec{In: "/a/in.csv", Device: "host", HostConfig: &HostSpec{CachePages: 256}}
	for i, tc := range []struct{ spec, as JobSpec }{
		{JobSpec{In: "/a/in.csv", Device: "host", HostConfig: &HostSpec{Inner: "hdd"}}, host},
		{JobSpec{In: "/a/in.csv", Device: "host", HostConfig: &HostSpec{Inner: "old"}}, host},
		{JobSpec{In: "/a/in.csv", Device: "host", HostConfig: &HostSpec{CachePages: 65536}}, host},
		{JobSpec{In: "/a/in.csv", Device: "hoststack", HostConfig: &HostSpec{DirtyHighWater: 0.2, ReadAheadPages: 8}}, host},
		{JobSpec{In: "/a/in.csv", Device: "ftl", FTLConfig: &FTLSpec{Blocks: 1024}}, ftl},
		{JobSpec{In: "/a/in.csv", Device: "ftl", FTLConfig: &FTLSpec{ReadLatencyUS: 50}}, ftl},
		{JobSpec{In: "/a/in.csv", Device: "host", HostConfig: &HostSpec{Inner: "old", CachePages: 256, PageKB: 4, FlushBatch: 32}}, smallHost},
	} {
		a, b := tc.spec.Normalized(), tc.as.Normalized()
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("spelled default %d changed the fingerprint", i)
		}
		if targetsFor(a, nil).key != targetsFor(b, nil).key {
			t.Errorf("spelled default %d changed the kept-target key", i)
		}
	}

	diff := []JobSpec{
		{In: "/a/in.csv", Method: "dynamic"},
		{In: "/a/in.csv", Method: "revision"},
		{In: "/a/in.csv", OutFormat: "bin"},
		{In: "/a/in.csv", InFormat: "bin"},
		{In: "/a/in.csv", OutFormat: "fio", FIODevice: "/dev/sdz"},
		{In: "/a/in.csv", Method: "fixed-th", ThresholdUS: 123},
		{In: "/a/in.csv", Method: "acceleration", Factor: 9},
		host,
		ftl,
		// Near a default is not the default.
		{In: "/a/in.csv", Device: "ftl", FTLConfig: &FTLSpec{Blocks: 1023}},
		{In: "/a/in.csv", Device: "host", HostConfig: &HostSpec{ReadAheadPages: -1}},
		{In: "/a/in.csv", Device: "host", HostConfig: &HostSpec{Inner: "new"}},
	}
	seen := map[string]int{fp: -1}
	for i, s := range diff {
		got := s.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Errorf("variants %d and %d collide", i, prev)
		}
		seen[got] = i
	}

	// Keys separate by input digest too.
	if CacheKey("d1", base) == CacheKey("d2", base) {
		t.Error("cache key ignores the input digest")
	}
}

// TestRunJobCached is the cache contract: first run executes and
// stores, second run is a hit serving byte-identical output and the
// restored report, and a different input digest misses.
func TestRunJobCached(t *testing.T) {
	dir := t.TempDir()
	old := genOld(t, "ikki", 400, true)
	inPath := filepath.Join(dir, "in.csv")
	f, err := os.Create(inPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f, old); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cache := newMemCache(t)
	cfg := testConfig(2)
	spec := JobSpec{In: inPath}

	res1, hit1, err := RunJobCached(cfg, spec, "digest-a", cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatal("first run reported a hit")
	}
	if res1.OutPath == "" || res1.Report == nil {
		t.Fatalf("first run result: %+v", res1)
	}
	if cache.stores != 1 {
		t.Fatalf("stores: %d", cache.stores)
	}
	// The job's one output is the cache file, and it holds the
	// sequential pipeline's bytes.
	first, err := os.ReadFile(res1.OutPath)
	if err != nil {
		t.Fatal(err)
	}
	decoded := readTraceFile(t, inPath, "csv") // the csv text quantizes to µs
	ref, _, err := core.Reconstruct(decoded, device.NewArray(device.DefaultArrayConfig()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.WriteCSV(&want, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want.Bytes()) {
		t.Fatal("first run's cache file diverges from the sequential pipeline")
	}

	res2, hit2, err := RunJobCached(cfg, spec, "digest-a", cache)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second run missed")
	}
	got, err := os.ReadFile(res2.OutPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("cached bytes diverge from the first run")
	}
	if res2.Report == nil || res2.Report.Requests != res1.Report.Requests {
		t.Fatalf("restored report: %+v", res2.Report)
	}
	if cache.stores != 1 {
		t.Fatalf("hit stored again: %d", cache.stores)
	}

	// A different input digest misses and re-executes.
	_, hit3, err := RunJobCached(cfg, spec, "digest-b", cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit3 {
		t.Fatal("different digest hit")
	}
	if cache.stores != 2 {
		t.Fatalf("stores after second digest: %d", cache.stores)
	}
}

// TestRunJobCachedStreaming checks a spec's output path is not
// consulted: the result is the cache file and nothing lands at Out.
func TestRunJobCachedStreaming(t *testing.T) {
	dir := t.TempDir()
	old := genOld(t, "ikki", 400, true)
	inPath := filepath.Join(dir, "in.csv")
	f, err := os.Create(inPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f, old); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cache := newMemCache(t)
	outPath := filepath.Join(dir, "out.csv")
	spec := JobSpec{In: inPath, Out: outPath}
	res, hit, err := RunJobCached(testConfig(2), spec, "digest-s", cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first run hit")
	}
	key := CacheKey("digest-s", spec)
	cached, _, ok := cache.LookupResult(key)
	if !ok {
		t.Fatal("result not cached")
	}
	if res.OutPath != cached {
		t.Fatalf("result at %q, want the cache file %q", res.OutPath, cached)
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatalf("a file landed at the spec's out path: %v", err)
	}

	// An equivalent spec without the output path hits that result: the
	// fingerprint folds paths away.
	plain := JobSpec{In: inPath}
	_, hitPlain, err := RunJobCached(testConfig(2), plain, "digest-s", cache)
	if err != nil {
		t.Fatal(err)
	}
	if !hitPlain {
		t.Fatal("spec without an out path missed the cache entry")
	}
}
