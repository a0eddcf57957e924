package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apicode"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hoststack"
	"repro/internal/trace"
)

// testFTLSpec is a deliberately small geometry so corpus-scale test
// traces lap the device and force both foreground and background GC —
// state the one device pass must carry across epoch boundaries.
var testFTLSpec = &FTLSpec{Blocks: 64, PagesPerBlock: 32}

// testHostConfig is a small cache over a write-caching HDD: evictions,
// dirty-threshold flushes and inner destage debt all cross epoch
// boundaries.
func testHostConfig() (hoststack.Config, device.HDDConfig) {
	wc := device.DefaultHDDConfig()
	wc.WriteCache = true
	return hoststack.Config{
		CachePages: 256,
		PageKB:     4,
		WriteBack:  true,
		FlushBatch: 8,
		NoBlockLog: true,
	}, wc
}

// statefulTargets returns the two deep-state pipelined targets under
// test, with fixture assertions proving the workload actually
// exercised their state machines. spec is the nearest a job can name:
// the same FTL, and the small cache over the registry's plain HDD.
func statefulTargets(t *testing.T) map[string]struct {
	mk    func() device.Device
	spec  JobSpec
	prove func(name string, stats []device.Stat)
} {
	t.Helper()
	hostCfg, hddCfg := testHostConfig()
	find := func(name string, stats []device.Stat, key string) float64 {
		for _, s := range stats {
			if s.Name == key {
				return s.Value
			}
		}
		t.Fatalf("%s: device stats missing %q: %+v", name, key, stats)
		return 0
	}
	return map[string]struct {
		mk    func() device.Device
		spec  JobSpec
		prove func(name string, stats []device.Stat)
	}{
		"ftl": {
			mk:   func() device.Device { return device.NewFTLDevice(testFTLSpec.Config()) },
			spec: JobSpec{Device: "ftl", FTLConfig: testFTLSpec},
			prove: func(name string, stats []device.Stat) {
				if find(name, stats, "host_writes") == 0 || find(name, stats, "erases") == 0 {
					t.Fatalf("%s: fixture created no GC pressure: %+v", name, stats)
				}
			},
		},
		"host": {
			mk: func() device.Device { return hoststack.New(hostCfg, device.NewHDD(hddCfg)) },
			spec: JobSpec{Device: "host", HostConfig: &HostSpec{
				CachePages: hostCfg.CachePages, PageKB: hostCfg.PageKB, FlushBatch: hostCfg.FlushBatch}},
			prove: func(name string, stats []device.Stat) {
				if find(name, stats, "cache_misses") == 0 || find(name, stats, "flushed_pages") == 0 {
					t.Fatalf("%s: fixture created no cache/writeback pressure: %+v", name, stats)
				}
			},
		},
	}
}

// pipelinedByteIdentical locks the epoch-pipelined path for one
// stateful target: for workers 1, 4 and 8 the reconstruction — records,
// report aggregates and device stats — is byte-identical to the
// sequential core pipeline, on workload families (tracetracker through
// Engine.Reconstruct, dynamic as a job on the target's spec) and on the
// generated adversaries.
func pipelinedByteIdentical(t *testing.T, target string) {
	tc := statefulTargets(t)[target]
	adversaryIdentity(t, target, tc.mk)
	for _, family := range []string{"ikki", "MSNFS"} {
		for _, tsdev := range []bool{true, false} {
			old := genOld(t, family, 3000, tsdev)
			wantTrace, wantRep, err := core.Reconstruct(old, tc.mk(), core.Options{})
			if err != nil {
				t.Fatalf("%s tsdev=%v: sequential: %v", family, tsdev, err)
			}
			tc.prove(target+"/"+family, wantRep.DeviceStats)
			want := traceBytes(t, wantTrace)
			for _, workers := range []int{1, 4, 8} {
				cfg := testConfig(workers)
				cfg.Device = tc.mk
				gotTrace, gotRep, err := New(cfg).Reconstruct(old)
				if err != nil {
					t.Fatalf("%s tsdev=%v w=%d: pipelined: %v", family, tsdev, workers, err)
				}
				if got := traceBytes(t, gotTrace); !bytes.Equal(got, want) {
					t.Fatalf("%s tsdev=%v w=%d: pipelined %s output not byte-identical to the serial path",
						family, tsdev, workers, target)
				}
				if gotRep.Shards < 2 {
					t.Fatalf("%s w=%d: expected multiple epochs, got %d", family, workers, gotRep.Shards)
				}
				if gotRep.IdleCount != wantRep.IdleCount || gotRep.IdleTotal != wantRep.IdleTotal ||
					gotRep.AsyncCount != wantRep.AsyncCount {
					t.Fatalf("%s tsdev=%v w=%d: report aggregates diverge", family, tsdev, workers)
				}
				if !reflect.DeepEqual(gotRep.Model, wantRep.Model) {
					t.Fatalf("%s tsdev=%v w=%d: model diverges", family, tsdev, workers)
				}
				if !reflect.DeepEqual(gotRep.DeviceStats, wantRep.DeviceStats) {
					t.Fatalf("%s tsdev=%v w=%d: device stats diverge:\n got %+v\nwant %+v",
						family, tsdev, workers, gotRep.DeviceStats, wantRep.DeviceStats)
				}
			}
			label := fmt.Sprintf("%s/%s tsdev=%v", target, family, tsdev)
			tc.prove(label, dynamicJobIdentity(t, label, old, tc.spec))
		}
	}
}

// TestPipelinedFTLByteIdentical is the acceptance lock for the FTL
// target on the epoch-pipelined path.
func TestPipelinedFTLByteIdentical(t *testing.T) { pipelinedByteIdentical(t, "ftl") }

// TestPipelinedHostByteIdentical is the acceptance lock for the
// host-stack target on the epoch-pipelined path.
func TestPipelinedHostByteIdentical(t *testing.T) { pipelinedByteIdentical(t, "host") }

// TestHostOutputGolden pins the host target's output bytes across
// commits. Every other identity check compares two runs of the same
// hoststack code (the engine against core.Reconstruct, the benchmark
// against the same reference), so none of them can see the model itself
// drift; the digests are PR 20's, from before the cache's index and
// flusher were rewritten, and may only move on purpose.
func TestHostOutputGolden(t *testing.T) {
	in := filepath.Join(t.TempDir(), "old.bin")
	if err := os.WriteFile(in, traceBytes(t, genOld(t, "MSNFS", 5000, true)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec *HostSpec
		want string
	}{
		{"defaults", nil, "5e66b29c2e6658bb153ee4e207666bb8ab35ab0e0e52791c22ca29513ed47df7"},
		{"write-through", &HostSpec{WriteThrough: true}, "2854d2e799a8ae100e22231bd53ce5183b2ae9bf1c353f29baf7f3f5b5e312f3"},
		{"tiny-cache-always-flushing", &HostSpec{CachePages: 256, DirtyHighWater: 0.01, ReadAheadPages: -1}, "3925aee7d85ec90ae8676d2df071809f5ebe0e1571c05c2c4799b3ac40f10cb1"},
	} {
		var out bytes.Buffer
		spec := JobSpec{In: in, InFormat: "bin", OutFormat: "bin", Device: "host", HostConfig: tc.spec}
		if _, err := RunJobTo(testConfig(2), spec, &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: output digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFTLOutputGolden pins the ftl target's output bytes and device
// stats across commits, for the same reason TestHostOutputGolden pins
// the host target's: the identity tests compare two runs of the same
// FTL, and the experiments' ext-ftl rows at golden scale never collect,
// so nothing else would see the model's GC drift. The input is 20k
// MSNFS requests because at 5k the test geometry absorbs every erase in
// idle time, leaving foreground GC unpinned. The values are from before
// the page map was flattened, and may only move on purpose.
func TestFTLOutputGolden(t *testing.T) {
	in := filepath.Join(t.TempDir(), "old.bin")
	if err := os.WriteFile(in, traceBytes(t, genOld(t, "MSNFS", 20000, true)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		spec      *FTLSpec
		collects  bool // erases, foreground and background GC all non-zero
		want, set string
	}{
		{"defaults", nil, false,
			"374ab40c74a0c069b3cabf44ee49624ac4657b0b27915185ac7be05ffadbc6fb",
			"host_writes=18273 gc_writes=0 erases=0 foreground_gc=0 background_gc=0 foreground_stall_us=0 idle_budget_used_us=0 waf=1 wear_spread=0"},
		{"test-geometry", testFTLSpec, true,
			"65e56410508a69e13f27a7c1560442a2a606385bddea38aa5055e57e9af4b405",
			"host_writes=18273 gc_writes=442703 erases=14346 foreground_gc=12186 background_gc=2160 foreground_stall_us=2.817081e+08 idle_budget_used_us=4.908685e+07 waf=25.22716576369507 wear_spread=1.5348837209302326"},
		{"96-pages-of-6k", &FTLSpec{Blocks: 64, PagesPerBlock: 96, PageKB: 6}, true,
			"a2d8ab4e7feb7580880be071025e3ca28e919ba44aeb0f5c1bf108c49ca95f74",
			"host_writes=21685 gc_writes=888269 erases=9421 foreground_gc=5016 background_gc=4405 foreground_stall_us=3.244116e+08 idle_budget_used_us=2.8122625e+08 waf=41.96237030205211 wear_spread=1.344"},
	} {
		var out bytes.Buffer
		spec := JobSpec{In: in, InFormat: "bin", OutFormat: "bin", Device: "ftl", FTLConfig: tc.spec}
		rep, err := RunJobTo(testConfig(2), spec, &out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: output digest %s, want %s", tc.name, got, tc.want)
		}
		var set []string
		stat := map[string]float64{}
		for _, s := range rep.DeviceStats {
			set = append(set, fmt.Sprintf("%s=%v", s.Name, s.Value))
			stat[s.Name] = s.Value
		}
		if got := strings.Join(set, " "); got != tc.set {
			t.Errorf("%s: device stats\n got %s\nwant %s", tc.name, got, tc.set)
		}
		if tc.collects && (stat["erases"] == 0 || stat["foreground_gc"] == 0 || stat["background_gc"] == 0) {
			t.Errorf("%s: fixture does not collect in both modes: %s", tc.name, strings.Join(set, " "))
		}
	}
}

// TestPipelinedFTLHostStream checks the streaming variant for both
// targets: streamed bytes equal a direct whole-trace encode of the
// sequential reconstruction, and the stream report carries the same
// device stats.
func TestPipelinedFTLHostStream(t *testing.T) {
	for target, tc := range statefulTargets(t) {
		old := genOld(t, "MSNFS", 3000, true)
		wantTrace, wantRep, err := core.Reconstruct(old, tc.mk(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var want, input bytes.Buffer
		if err := trace.WriteCSV(&want, wantTrace); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteBinary(&input, old); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 8} {
			cfg := testConfig(workers)
			cfg.Device = tc.mk
			var got bytes.Buffer
			rep, err := New(cfg).ReconstructStream(
				decoderOf(t, "bin", input.Bytes()),
				trace.NewCSVEncoder(&got),
				nil,
			)
			if err != nil {
				t.Fatalf("%s w=%d: stream: %v", target, workers, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s w=%d: streamed output diverges from the serial path", target, workers)
			}
			if rep.Shards < 2 {
				t.Fatalf("%s w=%d: expected multiple epochs, got %d", target, workers, rep.Shards)
			}
			if !reflect.DeepEqual(rep.DeviceStats, wantRep.DeviceStats) {
				t.Fatalf("%s w=%d: stream device stats diverge:\n got %+v\nwant %+v",
					target, workers, rep.DeviceStats, wantRep.DeviceStats)
			}
		}
	}
}

// TestJobSpecDeviceConfigs locks the spec-level surface: nested config
// validation codes, fingerprint gating (configs only digest when their
// target is selected; an all-defaults config digests like none), and
// registry-driven construction.
func TestJobSpecDeviceConfigs(t *testing.T) {
	base := JobSpec{In: "x.csv", Device: "ftl"}
	if err := base.Normalized().Validate(); err != nil {
		t.Fatalf("plain ftl spec: %v", err)
	}
	if err := (JobSpec{In: "x", FIODevice: strings.Repeat("d", 4096)}).Normalized().Validate(); err != nil {
		t.Fatalf("4096-byte fio device: %v", err)
	}

	cases := []struct {
		name  string
		spec  JobSpec
		field string
		code  apicode.Code
	}{
		{"mismatched ftl_config", JobSpec{In: "x", Device: "array", FTLConfig: &FTLSpec{Blocks: 128}}, "ftl_config", apicode.ConfigMismatch},
		{"mismatched host_config", JobSpec{In: "x", Device: "ssd", HostConfig: &HostSpec{CachePages: 64}}, "host_config", apicode.ConfigMismatch},
		{"bad ftl blocks", JobSpec{In: "x", Device: "ftl", FTLConfig: &FTLSpec{Blocks: 4}}, "ftl_config.blocks", apicode.BadDeviceConfig},
		{"bad host inner", JobSpec{In: "x", Device: "host", HostConfig: &HostSpec{Inner: "ftl"}}, "host_config.device", apicode.BadDeviceConfig},
		{"host inner by the host row's alias", JobSpec{In: "x", Device: "host", HostConfig: &HostSpec{Inner: "hoststack"}}, "host_config.device", apicode.BadDeviceConfig},
		{"bad host highwater", JobSpec{In: "x", Device: "host", HostConfig: &HostSpec{DirtyHighWater: 1.5}}, "host_config.dirty_high_water", apicode.BadDeviceConfig},
		{"bad host syscall overhead", JobSpec{In: "x", Device: "host", HostConfig: &HostSpec{SyscallOverheadUS: -1}}, "host_config.syscall_overhead_us", apicode.BadDeviceConfig},
		{"bad host hit latency", JobSpec{In: "x", Device: "host", HostConfig: &HostSpec{HitLatencyUS: -1}}, "host_config.hit_latency_us", apicode.BadDeviceConfig},
		// Every *_us knob converts to a time.Duration, and reports on its
		// own field: beyond an int64 of nanoseconds it would wrap negative.
		{"ftl read latency beyond a duration", JobSpec{In: "x", Device: "ftl", FTLConfig: &FTLSpec{ReadLatencyUS: 1e300}}, "ftl_config.read_latency_us", apicode.BadDeviceConfig},
		{"negative ftl program latency", JobSpec{In: "x", Device: "ftl", FTLConfig: &FTLSpec{ProgramLatencyUS: -1}}, "ftl_config.program_latency_us", apicode.BadDeviceConfig},
		{"negative ftl erase latency", JobSpec{In: "x", Device: "ftl", FTLConfig: &FTLSpec{EraseLatencyUS: -1}}, "ftl_config.erase_latency_us", apicode.BadDeviceConfig},
		{"NaN ftl erase latency", JobSpec{In: "x", Device: "ftl", FTLConfig: &FTLSpec{EraseLatencyUS: math.NaN()}}, "ftl_config.erase_latency_us", apicode.BadDeviceConfig},
		{"host hit latency beyond a duration", JobSpec{In: "x", Device: "host", HostConfig: &HostSpec{HitLatencyUS: 1e300}}, "host_config.hit_latency_us", apicode.BadDeviceConfig},
		{"host syscall overhead beyond a duration", JobSpec{In: "x", Device: "host", HostConfig: &HostSpec{SyscallOverheadUS: 1e16}}, "host_config.syscall_overhead_us", apicode.BadDeviceConfig},
		{"unknown device", JobSpec{In: "x", Device: "floppy"}, "device", apicode.UnknownDevice},
		// The baseline knobs: finite and above zero, whatever the method
		// (JSON cannot carry NaN or Inf; the CLI's -factor flag can).
		{"negative factor", JobSpec{In: "x", Method: "acceleration", Factor: -3}, "factor", apicode.BadSpec},
		{"NaN factor", JobSpec{In: "x", Factor: math.NaN()}, "factor", apicode.BadSpec},
		{"infinite factor", JobSpec{In: "x", Method: "acceleration", Factor: math.Inf(1)}, "factor", apicode.BadSpec},
		{"negative threshold", JobSpec{In: "x", Method: "fixed-th", ThresholdUS: -10}, "threshold_us", apicode.BadSpec},
		{"NaN threshold", JobSpec{In: "x", ThresholdUS: math.NaN()}, "threshold_us", apicode.BadSpec},
		{"threshold beyond a duration", JobSpec{In: "x", Method: "fixed-th", ThresholdUS: 1e16}, "threshold_us", apicode.BadSpec},
		// The fio device is written into every iolog line.
		{"fio device over 4096 bytes", JobSpec{In: "x", FIODevice: strings.Repeat("d", 4097)}, "fio_device", apicode.BadSpec},
		{"newline in fio device", JobSpec{In: "x", OutFormat: "fio", FIODevice: "/dev/sda\n/dev/sdb rw=write"}, "fio_device", apicode.BadSpec},
		{"space in fio device", JobSpec{In: "x", FIODevice: "/dev/sd a"}, "fio_device", apicode.BadSpec},
		{"DEL in fio device", JobSpec{In: "x", FIODevice: "/dev/sda\x7f"}, "fio_device", apicode.BadSpec},
	}
	for _, tc := range cases {
		err := tc.spec.Normalized().Validate()
		ve, ok := err.(*ValidationError)
		if !ok {
			t.Fatalf("%s: want *ValidationError, got %v", tc.name, err)
		}
		if ve.Field != tc.field || ve.Code != tc.code {
			t.Fatalf("%s: got field=%q code=%q, want field=%q code=%q", tc.name, ve.Field, ve.Code, tc.field, tc.code)
		}
		// A rejected inner device is quoted as the request spelled it.
		if inner := tc.spec.HostConfig; ve.Field == "host_config.device" && !strings.Contains(ve.Error(), strconv.Quote(inner.Inner)) {
			t.Fatalf("%s: %q does not quote the inner device %q the spec sent", tc.name, ve.Error(), inner.Inner)
		}
	}

	// Fingerprint gating: a config on a non-matching device is dropped
	// from the digest; on its own device it changes the digest; an
	// all-defaults (zero) config digests like no config at all.
	arr := JobSpec{In: "x"}.Fingerprint()
	if got := (JobSpec{In: "x", FTLConfig: &FTLSpec{Blocks: 128}}).Fingerprint(); got != arr {
		t.Fatalf("ftl_config entered a non-ftl fingerprint")
	}
	plainFTL := JobSpec{In: "x", Device: "ftl"}.Fingerprint()
	if got := (JobSpec{In: "x", Device: "ftl", FTLConfig: &FTLSpec{}}).Fingerprint(); got != plainFTL {
		t.Fatalf("zero ftl_config changed the ftl fingerprint")
	}
	if got := (JobSpec{In: "x", Device: "ftl", FTLConfig: &FTLSpec{Blocks: 128}}).Fingerprint(); got == plainFTL {
		t.Fatalf("ftl_config did not enter the ftl fingerprint")
	}
	plainHost := JobSpec{In: "x", Device: "host"}.Fingerprint()
	if got := (JobSpec{In: "x", Device: "host", HostConfig: &HostSpec{CachePages: 64}}).Fingerprint(); got == plainHost {
		t.Fatalf("host_config did not enter the host fingerprint")
	}
	if got := (JobSpec{In: "x", Device: "hoststack"}).Fingerprint(); got != plainHost {
		t.Fatalf("hoststack alias fingerprints differently from host")
	}

	// Registry-driven discovery matches validation, and the published
	// pipeline is shard-parallel exactly when the device is shard-safe.
	names := map[string]bool{}
	for _, d := range Devices() {
		names[d.Name] = true
		if d.Pipeline != PipelineShardParallel && d.Pipeline != PipelineStateful {
			t.Fatalf("device %s: unknown pipeline %q", d.Name, d.Pipeline)
		}
		mk, err := DeviceFactory(d.Name)
		if err != nil {
			t.Fatalf("registry device %s fails DeviceFactory: %v", d.Name, err)
		}
		if shardSafe := device.IsShardSafe(mk()); (d.Pipeline == PipelineShardParallel) != shardSafe {
			t.Fatalf("device %s: published pipeline %q, but IsShardSafe = %v", d.Name, d.Pipeline, shardSafe)
		}
		for _, a := range d.Aliases {
			if normalizeDevice(a) != d.Name {
				t.Fatalf("alias %q does not normalize to %s", a, d.Name)
			}
		}
	}
	for _, want := range []string{"array", "ssd", "hdd", "ftl", "host"} {
		if !names[want] {
			t.Fatalf("registry missing device %q", want)
		}
	}
}
