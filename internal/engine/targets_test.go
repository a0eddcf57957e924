package engine

// Tests for the kept reconstruction targets (targets.go): a kept device
// serves a job the bytes and report a built one would, two live runs
// never share one, what a warm job allocates, and the list's bounds.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/trace"
)

// writeBin writes tr as a bin file under dir and returns its path.
func writeBin(tb testing.TB, dir, name string, tr *trace.Trace) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(dir, name+".bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// failAfter is a job sink whose disk fills after n bytes.
type failAfter struct{ n int }

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errSinkFull
	}
	f.n -= len(p)
	return len(p), nil
}

// runTo runs spec into a buffer, with fresh metrics when reg is non-nil.
func runTo(tb testing.TB, cfg Config, spec JobSpec, reg *obs.Registry) ([]byte, *Report) {
	tb.Helper()
	if reg != nil {
		cfg.Metrics = obs.NewEngineMetrics(reg)
	}
	var out bytes.Buffer
	rep, err := RunJobTo(cfg, spec, &out)
	if err != nil {
		tb.Fatalf("%s on %s: %v", spec.In, spec.Device, err)
	}
	return out.Bytes(), rep
}

// keptTargetCases are every registry target at its default config and
// the nested configs under which a device carries the most state from
// one job to the next. stat names a device statistic job A must leave
// non-zero, so A built state that B would see without the Reset. A row
// with an a runs job A on that spelling of the same target.
var keptTargetCases = []struct {
	name string
	spec JobSpec
	stat string
	a    *JobSpec
}{
	{"array", JobSpec{Device: "array"}, "", nil},
	{"ssd", JobSpec{Device: "ssd"}, "", nil},
	{"hdd", JobSpec{Device: "hdd"}, "", nil},
	{"ftl", JobSpec{Device: "ftl"}, "host_writes", nil},
	// 64 blocks of 16 pages: a job laps the device and garbage-collects.
	{"ftl-lapped", JobSpec{Device: "ftl", FTLConfig: &FTLSpec{Blocks: 64, PagesPerBlock: 16}}, "erases", nil},
	{"host", JobSpec{Device: "host"}, "cache_misses", nil},
	// 256 pages: a job evicts and flushes, and ends with dirty pages.
	{"host-small", JobSpec{Device: "host", HostConfig: &HostSpec{CachePages: 256, FlushBatch: 8}}, "flushed_pages", nil},
	{"host-write-through", JobSpec{Device: "host", HostConfig: &HostSpec{CachePages: 256, WriteThrough: true}}, "cache_misses", nil},
	{"host-array", JobSpec{Device: "host", HostConfig: &HostSpec{Inner: "array", CachePages: 512}}, "flushed_pages", nil},
	// A host config that spells its defaults is the plain host: B takes
	// the device A returned.
	{"host-spelled-default", JobSpec{Device: "host", HostConfig: &HostSpec{Inner: "hdd", CachePages: 65536}}, "cache_misses", &JobSpec{Device: "host"}},
}

func statOf(rep *Report, name string) float64 {
	for _, s := range rep.DeviceStats {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// TestKeptTargetMatchesFresh: job B run on the devices job A left in
// the kept list writes the bytes and report B writes on an emptied
// list, for every registry target and the nested configs that carry the
// most state, whether A finished or its sink failed mid-stream
// (ErrStorage) and it abandoned its device halfway through the trace.
func TestKeptTargetMatchesFresh(t *testing.T) {
	dir := t.TempDir()
	inA := writeBin(t, dir, "a", genOld(t, "MSNFS", 6000, true))
	inB := writeBin(t, dir, "b", genOld(t, "webmail", 4000, true))
	cfg := Config{Workers: 2, MaxShardRequests: 1024}
	defer keptTargets.Drop()
	for _, tc := range keptTargetCases {
		t.Run(tc.name, func(t *testing.T) {
			specA, specB := tc.spec, tc.spec
			if tc.a != nil {
				specA = *tc.a
			}
			specA.In, specA.InFormat, specA.OutFormat = inA, "bin", "bin"
			specB.In, specB.InFormat, specB.OutFormat = inB, "bin", "bin"

			keptTargets.Drop()
			wantOut, wantRep := runTo(t, cfg, specB, nil)
			for _, failA := range []bool{false, true} {
				keptTargets.Drop()
				if failA {
					_, err := RunJobTo(cfg, specA, &failAfter{n: 64 << 10})
					if !errors.Is(err, ErrStorage) {
						t.Fatalf("job A into a failing sink: %v, want ErrStorage", err)
					}
				} else if _, rep := runTo(t, cfg, specA, nil); tc.stat != "" && statOf(rep, tc.stat) == 0 {
					t.Fatalf("job A left %s at 0: it built no state for B to see", tc.stat)
				}
				if keptTargets.Len() == 0 {
					t.Fatalf("failed A %v: no device kept", failA)
				}
				reg := obs.NewRegistry()
				gotOut, gotRep := runTo(t, cfg, specB, reg)
				kept := metricOf(t, reg, "engine_targets_total", obs.Labels{"source": "kept"})
				built := metricOf(t, reg, "engine_targets_total", obs.Labels{"source": "built"})
				if kept == 0 || built != 0 {
					t.Fatalf("failed A %v: B took %v kept and %v built devices, want only kept ones", failA, kept, built)
				}
				if !bytes.Equal(gotOut, wantOut) {
					t.Fatalf("failed A %v: B on A's devices wrote %d bytes differing from B on new ones (%d)", failA, len(gotOut), len(wantOut))
				}
				if !reflect.DeepEqual(gotRep, wantRep) {
					t.Fatalf("failed A %v: B's report on A's devices:\n got %+v\nwant %+v", failA, gotRep, wantRep)
				}
			}
		})
	}
}

// TestKeptTargetConcurrentJobs runs two jobs at once on one config, the
// daemon's -jobs 2, round after round on the devices the rounds before
// kept. Both must write their serial bytes, and the two devices a
// round returns must be two: a device is never used by two live runs.
// Run it under -race, which sees a shared device's state written from
// both runs.
func TestKeptTargetConcurrentJobs(t *testing.T) {
	dir := t.TempDir()
	ins := []string{
		writeBin(t, dir, "a", genOld(t, "MSNFS", 5000, true)),
		writeBin(t, dir, "b", genOld(t, "webmail", 5000, true)),
	}
	cfg := Config{Workers: 2, MaxShardRequests: 512}
	base := JobSpec{Device: "host", HostConfig: &HostSpec{CachePages: 256, FlushBatch: 8}, InFormat: "bin", OutFormat: "bin"}
	spec := func(in string) JobSpec { s := base; s.In = in; return s }
	defer keptTargets.Drop()
	keptTargets.Drop()
	var want [2][]byte
	for i, in := range ins {
		want[i], _ = runTo(t, cfg, spec(in), nil)
	}
	for round := 0; round < 6; round++ {
		var wg sync.WaitGroup
		var got [2][]byte
		var errs [2]error
		for i, in := range ins {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var out bytes.Buffer
				_, errs[i] = RunJobTo(cfg, spec(in), &out)
				got[i] = out.Bytes()
			}()
		}
		wg.Wait()
		for i := range ins {
			if errs[i] != nil {
				t.Fatalf("round %d job %d: %v", round, i, errs[i])
			}
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("round %d: job %d's bytes differ from its serial run", round, i)
			}
		}
		key := targetKey{device: "host", host: *base.HostConfig}
		var devs []device.Device
		for dev, ok := keptTargets.Get(key); ok; dev, ok = keptTargets.Get(key) {
			devs = append(devs, dev)
		}
		if len(devs) != 2 || devs[0] == devs[1] || keptTargets.Len() != 0 {
			t.Fatalf("round %d: %d devices kept (%v, %d of other configs), want the two runs' two", round, len(devs), devs, keptTargets.Len())
		}
		for _, d := range devs {
			keptTargets.Put(key, d)
		}
	}
}

// keptJobBudgets is what a warm job of a 30k-request MSNFS bin may
// allocate on a kept default target, measured on a 2-CPU Xeon VM: host
// ≈ 0.76 MB against ≈ 4.96 MB when each job builds its cache, ftl
// ≈ 0.81 MB against ≈ 2.05 MB when each job builds its arrays. A job
// that built its target again would cross the bound.
var keptJobBudgets = []struct {
	device string
	bound  float64
}{
	{"host", 2e6},
	{"ftl", 1.6e6},
}

// warmJobAllocs is the least a job of spec allocates over several runs
// (a run allocates more when scheduling keeps more epochs in flight
// than the pools have seen yet); drop empties the kept targets before
// each run, so every run builds its own.
func warmJobAllocs(t *testing.T, cfg Config, spec JobSpec, drop bool) float64 {
	least := math.Inf(1)
	for i := 0; i < 6; i++ {
		if drop {
			keptTargets.Drop()
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := RunJobTo(cfg, spec, io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		least = min(least, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	return least
}

// TestKeptTargetAllocs holds a warm job on a kept default host or ftl
// target to keptJobBudgets.
func TestKeptTargetAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting at full trace size")
	}
	if raceEnabled {
		t.Skip("the race runtime's own allocations swamp a byte bound")
	}
	in := writeBin(t, t.TempDir(), "msnfs", genOld(t, "MSNFS", 30_000, true))
	cfg := Config{Workers: 2}
	defer keptTargets.Drop()
	for _, tc := range keptJobBudgets {
		t.Run(tc.device, func(t *testing.T) {
			spec := JobSpec{In: in, InFormat: "bin", OutFormat: "bin", Device: tc.device}
			built := warmJobAllocs(t, cfg, spec, true)
			kept := warmJobAllocs(t, cfg, spec, false)
			t.Logf("a %s job allocates %.0f B on a kept target, %.0f B on a built one", tc.device, kept, built)
			if kept > tc.bound {
				t.Fatalf("a warm %s job allocates %.2f MB, want <= %.2f MB", tc.device, kept/1e6, tc.bound/1e6)
			}
		})
	}
}

// TestKeptTargetBounds: every registry target at its default config
// fits the per-device budget, the largest configs validation allows do
// not and are dropped when their run ends, and however many configs
// pass through, the list holds at most keptTargetCount devices, within
// keptTargetBytes.
func TestKeptTargetBounds(t *testing.T) {
	defer keptTargets.Drop()
	for _, info := range Devices() {
		spec := JobSpec{In: "x", Device: info.Name}.Normalized()
		if b := deviceEntryFor(info.Name).bytes(spec); b > targetBudget {
			t.Errorf("the default %s target holds up to %d B, over the %d B budget", info.Name, b, targetBudget)
		}
	}
	big := []JobSpec{
		{Device: "host", HostConfig: &HostSpec{CachePages: 1 << 22}},
		{Device: "ftl", FTLConfig: &FTLSpec{Blocks: 1 << 15, PagesPerBlock: 128}},
	}
	for _, s := range big {
		s.In = "x"
		s = s.Normalized()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if b := deviceEntryFor(s.Device).bytes(s); b <= targetBudget {
			t.Errorf("the largest %s config holds up to %d B, within the budget", s.Device, b)
		}
	}

	// A run on a config over the budget builds its device and drops it.
	in := writeBin(t, t.TempDir(), "small", genOld(t, "MSNFS", 500, true))
	keptTargets.Drop()
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		runTo(t, Config{Workers: 2}, JobSpec{In: in, InFormat: "bin", Device: "host", HostConfig: &HostSpec{CachePages: 1 << 22}}, reg)
		if n := keptTargets.Len(); n != 0 {
			t.Fatalf("run %d: %d devices kept of a config over the budget", i, n)
		}
		if built := metricOf(t, reg, "engine_targets_total", obs.Labels{"source": "built"}); built != 1 {
			t.Fatalf("run %d: %v devices built, want 1", i, built)
		}
	}

	// More configs than the list holds pass through it: it keeps the
	// newest keptTargetCount, within keptTargetBytes.
	var targets []*jobTargets
	for i := 0; i < 2*keptTargetCount; i++ {
		spec := JobSpec{In: "x", Device: "host", HostConfig: &HostSpec{CachePages: 80_000 + i}}.Normalized()
		jt := targetsFor(spec, nil)
		jt.take()
		jt.release()
		targets = append(targets, jt)
	}
	if n := keptTargets.Len(); n != keptTargetCount {
		t.Fatalf("%d devices kept, want the bound %d", n, keptTargetCount)
	}
	var held int64
	for i, jt := range targets {
		_, ok := keptTargets.Get(jt.key)
		if newest := i >= len(targets)-keptTargetCount; ok != newest {
			t.Fatalf("config %d of %d kept %v, want only the newest %d", i, len(targets), ok, keptTargetCount)
		}
		if ok {
			held += deviceEntryFor("host").bytes(JobSpec{Device: "host", HostConfig: &jt.key.host})
		}
	}
	if held > keptTargetBytes {
		t.Fatalf("the kept devices hold up to %d B, over keptTargetBytes %d", held, keptTargetBytes)
	}
}

// BenchmarkHostJob prices a job of a 30k-request MSNFS bin on the
// default host target, the benchmark's cold-host-bin job below the
// daemon: "kept" on the device the job before it returned, "built" on a
// new one. Run it with -benchmem.
func BenchmarkHostJob(b *testing.B) {
	in := writeBin(b, b.TempDir(), "msnfs", genOld(b, "MSNFS", 30_000, true))
	cfg := Config{Workers: 2}
	spec := JobSpec{In: in, InFormat: "bin", OutFormat: "bin", Device: "host"}
	defer keptTargets.Drop()
	for _, kept := range []bool{true, false} {
		b.Run(map[bool]string{true: "kept", false: "built"}[kept], func(b *testing.B) {
			runTo(b, cfg, spec, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !kept {
					keptTargets.Drop()
				}
				if _, err := RunJobTo(cfg, spec, io.Discard); err != nil {
					b.Fatal(fmt.Sprint(err))
				}
			}
		})
	}
}
