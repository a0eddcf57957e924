package replay

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/ftl"
	"repro/internal/hoststack"
	"repro/internal/trace"
)

// handoffReqs synthesizes a request sequence with mixed sequential
// runs, random jumps and both ops, plus idle periods.
func handoffReqs(n int) ([]trace.Request, []time.Duration) {
	rng := rand.New(rand.NewSource(11))
	reqs := make([]trace.Request, n)
	idle := make([]time.Duration, n)
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
	}
	return reqs, idle
}

// writeCacheHDD is the HDD whose snapshot carries destage debt past the
// last host-visible completion.
func writeCacheHDD() device.Device {
	wc := device.DefaultHDDConfig()
	wc.WriteCache = true
	return device.NewHDD(wc)
}

// checkResumeChain splits an emulation into uneven epochs (including a
// one-request epoch), runs each on a fresh device restored from the
// previous epoch's exit handoff — restoring the handoff must be all
// the continuity an epoch needs — and requires the chain to reproduce
// one continuous EmulateShardInto run exactly.
func checkResumeChain(t *testing.T, name string, mk func() device.Device, reqs []trace.Request, idle []time.Duration) {
	t.Helper()
	n := len(reqs)
	want := make([]trace.Request, n)
	wantEnd := EmulateShardInto(want, reqs, mk(), idle)

	got := make([]trace.Request, n)
	h := Handoff{State: mk().(device.Stateful).Snapshot()}
	cuts := []int{0, 1, 257, 600, 601, 999, n}
	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		dev := mk()
		end := EmulateShardResume(got[lo:hi], reqs[lo:hi], dev, idle[lo:hi], h)
		h = Handoff{State: dev.(device.Stateful).Snapshot(), Now: end}
	}
	if h.Now != wantEnd {
		t.Fatalf("%s: chained end %v, continuous end %v", name, h.Now, wantEnd)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: request %d diverges:\n got %+v\nwant %+v", name, i, got[i], want[i])
		}
	}
}

// TestEmulateShardResumeChains is the handoff identity: splitting an
// emulation into epochs and chaining EmulateShardResume through the
// exit handoffs reproduces one continuous EmulateShardInto run
// exactly, on both HDD cache configurations (write-back caching leaves
// destage debt in the snapshot) and on the trivially-stateful SSD.
func TestEmulateShardResumeChains(t *testing.T) {
	reqs, idle := handoffReqs(1200)
	devs := map[string]func() device.Device{
		"hdd":            func() device.Device { return device.NewHDD(device.DefaultHDDConfig()) },
		"hdd-writecache": writeCacheHDD,
		"ssd":            func() device.Device { return device.NewSSD(device.SSDConfig{}) },
	}
	for name, mk := range devs {
		checkResumeChain(t, name, mk, reqs, idle)
	}
}

// deepStateDevices returns the two deep-state targets: the FTL
// (snapshot = mapping table, wear, GC debt) and the host stack over a
// write-caching HDD (snapshot = page-cache contents, dirty/writeback
// debt, plus the inner device's destage debt). Geometries are sized so
// the handoffReqs fixture actually crosses GC and eviction thresholds
// inside the epoch cuts.
func deepStateDevices() map[string]func() device.Device {
	ftlCfg := ftl.Config{Blocks: 64, PagesPerBlock: 8, PageKB: 8}
	hostCfg := hoststack.Config{
		CachePages: 128,
		PageKB:     4,
		WriteBack:  true,
		FlushBatch: 8,
		NoBlockLog: true,
	}
	return map[string]func() device.Device{
		"ftl":                 func() device.Device { return device.NewFTLDevice(ftlCfg) },
		"host-hdd-writecache": func() device.Device { return hoststack.New(hostCfg, writeCacheHDD()) },
	}
}

// TestEmulateShardResumeChainsFTLHost mirrors
// TestEmulateShardResumeChains for the two deep-state targets.
func TestEmulateShardResumeChainsFTLHost(t *testing.T) {
	reqs, idle := handoffReqs(1200)
	for name, mk := range deepStateDevices() {
		checkResumeChain(t, name, mk, reqs, idle)
	}
}

// TestSnapshotDoesNotAliasSource guards the ownership rule the engine
// leans on now that workers no longer re-snapshot at epoch exit: a
// Snapshot is independent of the device that took it, and Restore may
// adopt the snapshot's storage. Snapshot at a quiescent point, restore
// into a fresh device and keep submitting there; the source device,
// continued from the same point, must still produce the uninterrupted
// run's results.
func TestSnapshotDoesNotAliasSource(t *testing.T) {
	const n, cut = 1200, 600
	reqs, idle := handoffReqs(n)
	devs := deepStateDevices()
	devs["hdd-writecache"] = writeCacheHDD
	for name, mk := range devs {
		want := make([]trace.Request, n)
		EmulateShardInto(want, reqs, mk(), idle)

		src := mk()
		got := make([]trace.Request, n)
		mid := EmulateShardInto(got[:cut], reqs[:cut], src, idle[:cut])
		h := Handoff{State: src.(device.Stateful).Snapshot(), Now: mid}

		// The restored device runs ahead first, mutating whatever
		// storage it adopted from the snapshot.
		ahead := make([]trace.Request, n-cut)
		EmulateShardResume(ahead, reqs[cut:], mk(), idle[cut:], h)

		emulate(got[cut:], reqs[cut:], src, idle[cut:], nil, mid)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: source device diverges at request %d after its snapshot was restored elsewhere:\n got %+v\nwant %+v",
					name, i, got[i], want[i])
			}
			if i >= cut && ahead[i-cut] != want[i] {
				t.Fatalf("%s: restored device diverges at request %d:\n got %+v\nwant %+v", name, i, ahead[i-cut], want[i])
			}
		}
	}
}

// TestServiceShardLockstep checks the lightweight serial pass tracks
// EmulateShardResume exactly: same end time, and a shift delta equal
// to what core-style post-processing would accumulate from the
// emulated latencies.
func TestServiceShardLockstep(t *testing.T) {
	const n = 800
	reqs, idle := handoffReqs(n)
	async := make([]bool, n)
	for i := range async {
		async[i] = i%3 == 0
	}
	mk := func() device.Device { return device.NewHDD(device.DefaultHDDConfig()) }

	out := make([]trace.Request, n)
	emuEnd := EmulateShardResume(out, reqs, mk(), idle, Handoff{State: mk().(device.Stateful).Snapshot()})

	end, delta := ServiceShard(reqs, mk(), idle, async, 0)
	if end != emuEnd {
		t.Fatalf("service end %v, emulate end %v", end, emuEnd)
	}
	var want time.Duration
	for i, r := range out {
		if async[i] {
			if red := r.Latency - SubmissionGap; red > 0 {
				want += red
			}
		}
	}
	if delta != want {
		t.Fatalf("shift delta %v, post-processing accumulates %v", delta, want)
	}
	if _, d := ServiceShard(reqs, mk(), idle, nil, 0); d != 0 {
		t.Fatalf("nil async must accumulate no shift, got %v", d)
	}
}
