package hoststack

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/trace"
)

// stackWorkload drives a deterministic mix of reads and writes that
// fills the cache, dirties pages and crosses the flush threshold.
func stackWorkload(n, span int, seed uint64) []trace.Request {
	reqs := make([]trace.Request, n)
	x := seed
	for i := range reqs {
		x = x*6364136223846793005 + 1442695040888963407
		op := trace.Write
		if x>>32%3 == 0 {
			op = trace.Read
		}
		page := (x >> 16) % uint64(span)
		reqs[i] = trace.Request{LBA: page * 8, Sectors: 8, Op: op}
	}
	return reqs
}

// TestResetMatchesFresh pins Reset as the stack's state contract: a
// stack driven through a prefix and then Reset holds nothing the prefix
// built and services the suffix — results and counters — exactly as a
// new stack does from the same time. The prefix leaves cached pages in
// recency order, dirty pages and the inner HDD's destage debt behind,
// so the same stack continued without the Reset must service the
// suffix differently.
func TestResetMatchesFresh(t *testing.T) {
	wc := device.DefaultHDDConfig()
	wc.WriteCache = true
	cfg := Config{CachePages: 64, PageKB: 4, WriteBack: true, FlushBatch: 8, NoBlockLog: true}
	mk := func() *Stack { return New(cfg, device.NewHDD(wc)) }
	prefix, suffix := stackWorkload(500, 200, 11), stackWorkload(120, 200, 23)

	used := mk()
	_, now := run(used, 0, prefix)
	used.Reset()
	// Reset keeps the slab and index storage, so the stack is not a new
	// one field for field; what it holds must be: no pages, no flush
	// cursor, no counters, and an inner device equal to a new one.
	checkLayout(t, used)
	if used.resident != 0 || used.flushFrom != nilSlot || used.hits+used.misses+used.flushed != 0 ||
		*used.inner.(*device.HDD) != *device.NewHDD(wc) {
		t.Fatalf("Reset left %d pages, flush cursor %d, counters %d/%d/%d, inner device %+v",
			used.resident, used.flushFrom, used.hits, used.misses, used.flushed, used.inner)
	}
	got, _ := run(used, now, suffix)
	fresh := mk()
	want, _ := run(fresh, now, suffix)
	sameResults(t, "suffix after Reset", got, want)
	if !reflect.DeepEqual(used.DeviceStats(), fresh.DeviceStats()) {
		t.Fatalf("device stats after Reset:\n got %+v\nwant %+v", used.DeviceStats(), fresh.DeviceStats())
	}

	continued := mk()
	run(continued, 0, prefix)
	if skipped, _ := run(continued, now, suffix); reflect.DeepEqual(skipped, want) {
		t.Fatalf("a stack continued without Reset serviced the suffix like a new one; the prefix built no state")
	}
}

// TestNoBlockLogDisablesLog checks the engine-target mode: with
// NoBlockLog set the block-layer log stays empty no matter how much
// traffic reaches the inner device, and servicing is unaffected.
func TestNoBlockLogDisablesLog(t *testing.T) {
	inner := device.NewHDD(device.DefaultHDDConfig())
	logged := New(Config{CachePages: 16, WriteBack: true}, device.NewHDD(device.DefaultHDDConfig()))
	quiet := New(Config{CachePages: 16, WriteBack: true, NoBlockLog: true}, inner)
	reqs := stackWorkload(200, 64, 7)
	now, qnow := time.Duration(0), time.Duration(0)
	for _, r := range reqs {
		now = logged.Submit(now, r).Complete
		qnow = quiet.Submit(qnow, r).Complete
	}
	if now != qnow {
		t.Fatalf("NoBlockLog changed servicing: %v vs %v", qnow, now)
	}
	if n := len(logged.BlockTrace().Requests); n == 0 {
		t.Fatalf("fixture issued no block-layer traffic")
	}
	if n := len(quiet.BlockTrace().Requests); n != 0 {
		t.Fatalf("NoBlockLog still logged %d requests", n)
	}
}
