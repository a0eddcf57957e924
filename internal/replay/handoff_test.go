package replay_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ftl"
	"repro/internal/hoststack"
	"repro/internal/replay"
	"repro/internal/trace"
)

// epochReqs synthesizes a request sequence with mixed sequential runs,
// random jumps and both ops, plus idle periods and async flags.
func epochReqs(n int) ([]trace.Request, []time.Duration, []bool) {
	rng := rand.New(rand.NewSource(11))
	reqs := make([]trace.Request, n)
	idle := make([]time.Duration, n)
	async := make([]bool, n)
	lba := uint64(4096)
	for i := range reqs {
		if rng.Intn(4) == 0 {
			lba = uint64(rng.Intn(1 << 28))
		}
		op := trace.Read
		if rng.Intn(3) == 0 {
			op = trace.Write
		}
		sectors := uint32(8 << rng.Intn(4))
		reqs[i] = trace.Request{LBA: lba, Sectors: sectors, Op: op}
		lba += uint64(sectors)
		if rng.Intn(5) == 0 {
			idle[i] = time.Duration(rng.Intn(3_000_000)) * time.Nanosecond
		}
		async[i] = i%3 == 0
	}
	return reqs, idle, async
}

// writeCacheHDD is the HDD that owes destage work past the last
// host-visible completion.
func writeCacheHDD() device.Device {
	wc := device.DefaultHDDConfig()
	wc.WriteCache = true
	return device.NewHDD(wc)
}

// epochDevices returns the targets of the serviced graph: both HDD
// cache configurations, the FTL (mapping table, wear, GC debt) and the
// host stack over a write-caching HDD (page-cache contents,
// dirty/writeback debt, plus the inner device's destage debt).
// Geometries are sized so the epochReqs fixture actually crosses GC and
// eviction thresholds inside the epoch cuts.
func epochDevices() map[string]func() device.Device {
	ftlCfg := ftl.Config{Blocks: 64, PagesPerBlock: 8, PageKB: 8}
	hostCfg := hoststack.Config{
		CachePages: 128,
		PageKB:     4,
		WriteBack:  true,
		FlushBatch: 8,
		NoBlockLog: true,
	}
	return map[string]func() device.Device{
		"hdd":            func() device.Device { return device.NewHDD(device.DefaultHDDConfig()) },
		"hdd-writecache": writeCacheHDD,
		"ftl":            func() device.Device { return device.NewFTLDevice(ftlCfg) },
		"host":           func() device.Device { return hoststack.New(hostCfg, writeCacheHDD()) },
	}
}

// TestEmulateEpochChains is the identity the engine's serviced graph
// relies on: an emulation cut into uneven epochs (including a
// one-request epoch) and chained through (end, shiftDelta) on one
// evolving device, each epoch post-processed from the shift accumulated
// before it, reproduces one continuous EmulateEpoch +
// PostProcessShard run over the concatenation exactly — and
// ServiceShard, the pass without the output, reports the same
// (end, shiftDelta) for every epoch.
func TestEmulateEpochChains(t *testing.T) {
	const n = 1200
	reqs, idle, async := epochReqs(n)
	cuts := []int{0, 1, 257, 600, 601, 999, n}
	for name, mk := range epochDevices() {
		want := make([]trace.Request, n)
		wantEnd, _ := replay.EmulateEpoch(want, reqs, mk(), idle, nil, 0)
		wantShift := core.PostProcessShard(want, async, 0)

		got := make([]trace.Request, n)
		dev, svc := mk(), mk()
		var now, shift time.Duration
		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			end, delta := replay.EmulateEpoch(got[lo:hi], reqs[lo:hi], dev, idle[lo:hi], async[lo:hi], now)
			if sEnd, sDelta := replay.ServiceShard(reqs[lo:hi], svc, idle[lo:hi], async[lo:hi], now); sEnd != end || sDelta != delta {
				t.Fatalf("%s: epoch [%d,%d): ServiceShard (%v, %v), collecting pass (%v, %v)", name, lo, hi, sEnd, sDelta, end, delta)
			}
			if after := core.PostProcessShard(got[lo:hi], async[lo:hi], shift); after != shift+delta {
				t.Fatalf("%s: epoch [%d,%d): post-processing accumulates %v, device pass reported %v", name, lo, hi, after-shift, delta)
			}
			now, shift = end, shift+delta
		}
		if now != wantEnd || shift != wantShift {
			t.Fatalf("%s: chained (end, shift) = (%v, %v), continuous (%v, %v)", name, now, shift, wantEnd, wantShift)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: request %d diverges:\n got %+v\nwant %+v", name, i, got[i], want[i])
			}
		}
		if _, d := replay.ServiceShard(reqs, mk(), idle, nil, 0); d != 0 {
			t.Fatalf("%s: nil async must accumulate no shift, got %v", name, d)
		}
	}
}
