package device

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// drive submits reqs from start, each at the previous completion (the
// emulation loop's shape) or, for a burst, all at start, and returns
// the results and the time it stopped at.
func drive(d Device, start time.Duration, reqs []trace.Request, burst bool) ([]Result, time.Duration) {
	out := make([]Result, len(reqs))
	for i, r := range reqs {
		if out[i] = d.Submit(start, r); !burst {
			start = out[i].Complete
		}
	}
	return out, start
}

// TestStatefulCapabilities pins which devices the engine may shard, and
// that none offers Snapshot/Restore: Reset is the one state contract, so
// Stateful survives only as the benchmark's compile shim.
func TestStatefulCapabilities(t *testing.T) {
	cases := []struct {
		dev       Device
		shardSafe bool
	}{
		{NewHDD(DefaultHDDConfig()), false},
		{NewSSD(DefaultSSDConfig()), true},
		{NewArray(DefaultArrayConfig()), true},
		{NewFTLDevice(DefaultFTLDeviceConfig()), false},
		{&Null{}, false},
		{NewInstrumented(NewHDD(DefaultHDDConfig())), false},
	}
	for _, tc := range cases {
		if got := IsShardSafe(tc.dev); got != tc.shardSafe {
			t.Errorf("%s: IsShardSafe = %v, want %v", tc.dev.Name(), got, tc.shardSafe)
		}
		if IsStateful(tc.dev) {
			t.Errorf("%s: IsStateful = true, want false: Reset is the one state contract", tc.dev.Name())
		}
	}
}

// TestResetMatchesFresh pins Reset as the one device-state contract,
// for every model behind a registry target (the host stack has its own
// row in internal/hoststack): a device driven through a prefix and then
// Reset equals a new device field for field, nested state (the FTL's
// blocks and mapping table, the array's members) included, and services
// the suffix from the prefix's end time exactly as a new device does.
// Each prefix builds state the suffix depends on, so the same device
// continued without the Reset must service the suffix differently.
func TestResetMatchesFresh(t *testing.T) {
	// The HDD suffix starts sequential to the prefix's last access;
	// ending the write-cache prefix on a cached write also leaves the
	// mechanism busy past the last completion.
	hddPrefix := []trace.Request{req(1<<20, 64, trace.Write), req(1<<20+64, 64, trace.Write), req(9<<24, 8, trace.Read)}
	wcPrefix := append(hddPrefix[:2:2], req(9<<24, 8, trace.Write))
	hddSuffix := []trace.Request{req(9<<24+8, 8, trace.Read), req(3<<22, 16, trace.Write), req(3<<22+16, 16, trace.Read)}

	// A tiny FTL geometry, so the prefix laps the device and leaves
	// mapping, wear and GC debt behind.
	ftlCfg := DefaultFTLDeviceConfig()
	ftlCfg.Blocks, ftlCfg.PagesPerBlock = 64, 8
	ps := uint64(ftlCfg.PageKB) * 1024 / trace.SectorSize
	var ftlPrefix, ftlSuffix []trace.Request
	for i := 0; i < 600; i++ {
		ftlPrefix = append(ftlPrefix, req(uint64(i*7%400)*ps, uint32(ps), trace.Write))
		if i < 120 {
			ftlSuffix = append(ftlSuffix, req(uint64(i*13%400)*ps, uint32(ps), trace.Op(min(i%3, 1))))
		}
	}

	// A flash device has drained by its last completion, so its prefix
	// is a burst of 128 KiB writes all submitted at time zero, and the
	// suffix starts there, while the burst still occupies the channels.
	var flashBurst, flashSuffix []trace.Request
	for i := 0; i < 64; i++ {
		flashBurst = append(flashBurst, req(uint64(i)*4096, 256, trace.Write))
		if i < 16 {
			flashSuffix = append(flashSuffix, req(uint64(i)*2048, 16, trace.Op(i%2)))
		}
	}

	cases := []struct {
		name           string
		mk             func() Device
		prefix, suffix []trace.Request
		burst          bool
	}{
		{"hdd", func() Device { return NewHDD(DefaultHDDConfig()) }, hddPrefix, hddSuffix, false},
		{"hdd-writecache", func() Device { c := DefaultHDDConfig(); c.WriteCache = true; return NewHDD(c) }, wcPrefix, hddSuffix, false},
		{"ssd", func() Device { return NewSSD(DefaultSSDConfig()) }, flashBurst, flashSuffix, true},
		{"array", func() Device { return NewArray(DefaultArrayConfig()) }, flashBurst, flashSuffix, true},
		{"ftl", func() Device { return NewFTLDevice(ftlCfg) }, ftlPrefix, ftlSuffix, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			used := tc.mk()
			_, start := drive(used, 0, tc.prefix, tc.burst)
			used.Reset()
			// Some state (the FTL's completion clock, a drained HDD's
			// busyUntil) is overwritten before any suffix could observe
			// it, so Reset is also held to a new device's value directly.
			if !reflect.DeepEqual(used, tc.mk()) {
				t.Fatalf("device after Reset differs from a new device")
			}
			got, _ := drive(used, start, tc.suffix, false)
			fresh := tc.mk()
			if want, _ := drive(fresh, start, tc.suffix, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("suffix after Reset:\n got %+v\nwant %+v", got, want)
			}
			if sr, ok := used.(StatsReporter); ok && !reflect.DeepEqual(sr.DeviceStats(), fresh.(StatsReporter).DeviceStats()) {
				t.Fatalf("device stats after Reset:\n got %+v\nwant %+v", sr.DeviceStats(), fresh.(StatsReporter).DeviceStats())
			}
			continued := tc.mk()
			drive(continued, 0, tc.prefix, tc.burst)
			if skipped, _ := drive(continued, start, tc.suffix, false); reflect.DeepEqual(skipped, got) {
				t.Fatalf("a device continued without Reset serviced the suffix like a new one; the prefix built no state")
			}
		})
	}
}
