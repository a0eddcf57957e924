package hoststack

// Differential oracle for the flat page cache. oracle is the page cache
// as it was before the slab/index rewrite — map[key]*page plus
// container/list — kept here, test-only, as the reference model: the
// flat cache is only ever allowed to be a faster way of computing the
// same device.Result stream and the same counters. adversary decodes
// an arbitrary byte string into a config and an op sequence (with
// reset hops: Stack.Reset against a fresh oracle) so the same driver
// serves the seeded property test and FuzzStackVsOracle; checkLayout
// audits the flat structures every 256 ops on the way.

import (
	"container/list"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/trace"
)

type oracleKey struct {
	dev  uint32
	page uint64
}

type oraclePage struct {
	key   oracleKey
	dirty bool
	elem  *list.Element
}

type oracle struct {
	cfg                   Config
	inner                 device.Device
	pages                 map[oracleKey]*oraclePage
	lru                   *list.List // front = most recent
	dirty                 int
	hits, misses, flushed uint64
}

// newOracle takes a Stack's already-defaulted config.
func newOracle(cfg Config, inner device.Device) *oracle {
	return &oracle{cfg: cfg, inner: inner, pages: map[oracleKey]*oraclePage{}, lru: list.New()}
}

func (o *oracle) Submit(at time.Duration, r trace.Request) device.Result {
	now := at + o.cfg.SyscallOverhead
	ps := uint64(o.cfg.PageKB) * 1024 / trace.SectorSize
	first, last := r.LBA/ps, (r.End()-1)/ps
	if r.Op == trace.Read {
		var missFrom, missTo uint64
		haveMiss := false
		for p := first; p <= last; p++ {
			if o.touch(oracleKey{r.Device, p}, false) {
				o.hits++
				continue
			}
			o.misses++
			if !haveMiss {
				missFrom, haveMiss = p, true
			}
			missTo = p
		}
		complete := now + o.cfg.HitLatency
		if haveMiss {
			fetchTo := missTo + uint64(o.cfg.ReadAheadPages)
			complete = o.issue(now, r.Device, missFrom, fetchTo, trace.Read).Complete
			for p := missFrom; p <= fetchTo; p++ {
				o.install(oracleKey{r.Device, p}, false, now)
			}
		}
		return device.Result{Start: now, Complete: complete}
	}
	if !o.cfg.WriteBack {
		res := o.issue(now, r.Device, first, last, trace.Write)
		for p := first; p <= last; p++ {
			o.install(oracleKey{r.Device, p}, false, now)
		}
		return device.Result{Start: now, Complete: res.Complete}
	}
	for p := first; p <= last; p++ {
		if k := (oracleKey{r.Device, p}); !o.touch(k, true) {
			o.install(k, true, now)
		}
	}
	var stall time.Duration
	for o.dirty > int(o.cfg.DirtyHighWater*float64(o.cfg.CachePages)) {
		inBatch := 0
		for e := o.lru.Back(); e != nil && inBatch < o.cfg.FlushBatch; e = e.Prev() {
			if pg := e.Value.(*oraclePage); pg.dirty {
				stall += o.clean(now+stall, pg)
				inBatch++
			}
		}
		if inBatch == 0 {
			break
		}
	}
	return device.Result{Start: now, Complete: now + o.cfg.HitLatency + stall}
}

func (o *oracle) touch(k oracleKey, dirty bool) bool {
	pg, ok := o.pages[k]
	if !ok {
		return false
	}
	o.lru.MoveToFront(pg.elem)
	if dirty && !pg.dirty {
		pg.dirty = true
		o.dirty++
	}
	return true
}

func (o *oracle) install(k oracleKey, dirty bool, now time.Duration) {
	if o.touch(k, dirty) {
		return
	}
	for len(o.pages) >= o.cfg.CachePages && o.lru.Back() != nil {
		victim := o.lru.Remove(o.lru.Back()).(*oraclePage)
		if victim.dirty {
			o.issue(now, victim.key.dev, victim.key.page, victim.key.page, trace.Write)
			o.flushed++
			o.dirty--
		}
		delete(o.pages, victim.key)
	}
	pg := &oraclePage{key: k, dirty: dirty}
	pg.elem = o.lru.PushFront(pg)
	o.pages[k] = pg
	if dirty {
		o.dirty++
	}
}

func (o *oracle) clean(at time.Duration, pg *oraclePage) time.Duration {
	res := o.issue(at, pg.key.dev, pg.key.page, pg.key.page, trace.Write)
	pg.dirty = false
	o.dirty--
	o.flushed++
	return res.Complete - at
}

func (o *oracle) Flush(at time.Duration) time.Duration {
	var stall time.Duration
	for e := o.lru.Back(); e != nil; e = e.Prev() {
		if pg := e.Value.(*oraclePage); pg.dirty {
			stall += o.clean(at+stall, pg)
		}
	}
	return stall
}

func (o *oracle) issue(at time.Duration, dev uint32, first, last uint64, op trace.Op) device.Result {
	ps := uint64(o.cfg.PageKB) * 1024 / trace.SectorSize
	return o.inner.Submit(at, trace.Request{Arrival: at, Device: dev, LBA: first * ps,
		Sectors: uint32((last - first + 1) * ps), Op: op})
}

// byteSource deals out a byte string, then zeros.
type byteSource struct{ b []byte }

func (s *byteSource) u8() int {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return int(v)
}

func (s *byteSource) u16() int { return s.u8() | s.u8()<<8 }

// adversaryHeader is the number of bytes adversary spends on the
// config; every op after it takes adversaryOp bytes.
const (
	adversaryHeader = 9
	adversaryOp     = 6
)

// adversary runs one generated case through the flat Stack and the
// oracle in lockstep, failing on the first diverging device.Result and
// on any counter, writeback-order or inner-device-state difference at
// the end. Header bytes pick the config (CachePages 1…300, FlushBatch,
// DirtyHighWater, ReadAheadPages, write-back or -through, write-cached
// or plain HDD, page size, and a page universe of 1…1024 pages so the
// working set falls on both sides of the cache size); each op picks
// read or write, one of two device ids, a start sector that need not
// be page-aligned, 1…6 pages — or a span of 250+ pages, wider than any
// cache here — an idle gap, and whether to hop first (Reset the stack,
// start a fresh oracle). It returns the flat stack and the number of
// hops taken, for fixture assertions.
func adversary(t testing.TB, data []byte) (*Stack, int) {
	src := &byteSource{data}
	cfg := Config{
		CachePages:     1 + src.u16()%300,
		FlushBatch:     1 + src.u8()%40,
		DirtyHighWater: float64(1+src.u8()%99) / 100,
		ReadAheadPages: src.u8() % 12,
		PageKB:         []int{1, 4, 16}[src.u8()%3],
		NoBlockLog:     true,
	}
	flags := src.u8()
	cfg.WriteBack = flags&1 != 0
	hdd := device.DefaultHDDConfig()
	hdd.WriteCache = flags&2 != 0
	universe := uint64(1 + src.u16()%1024)

	s := New(cfg, device.NewHDD(hdd))
	o := newOracle(s.cfg, device.NewHDD(hdd))
	ps := s.pageSectors
	hops := 0
	var at time.Duration
	for i := 0; len(src.b) >= adversaryOp; i++ {
		kind, where, off, size, gap := src.u8(), uint64(src.u16()), uint64(src.u8()), src.u8(), src.u8()
		if kind>>2 == 0 { // 1 op in 64: Reset the stack, start a fresh oracle
			s.Reset()
			o = newOracle(s.cfg, device.NewHDD(hdd))
			hops++
		}
		pages := uint64(1 + size%6)
		if size >= 250 {
			pages = uint64(size)
		}
		r := trace.Request{
			Device:  uint32(kind >> 1 & 1),
			LBA:     where%universe*ps + off%ps,
			Sectors: uint32(pages * ps),
			Op:      trace.Op(kind & 1),
		}
		if gap >= 192 { // a quarter of ops arrive after an idle period
			at += time.Duration(gap-191) * 200 * time.Microsecond
		}
		got, want := s.Submit(at, r), o.Submit(at, r)
		if got != want {
			t.Fatalf("op %d (%+v at %v, cfg %+v): flat cache returned %+v, oracle %+v", i, r, at, cfg, got, want)
		}
		at = got.Complete
		if s.resident > cfg.CachePages || s.resident != len(o.pages) {
			t.Fatalf("op %d: %d pages resident, oracle holds %d, capacity %d", i, s.resident, len(o.pages), cfg.CachePages)
		}
		if i%256 == 255 {
			checkLayout(t, s)
		}
	}
	checkCounters := func(when string) {
		t.Helper()
		if s.hits != o.hits || s.misses != o.misses || s.flushed != o.flushed || s.dirty != o.dirty {
			t.Fatalf("%s (cfg %+v): hits/misses/flushed/dirty = %d/%d/%d/%d, oracle %d/%d/%d/%d", when, cfg,
				s.hits, s.misses, s.flushed, s.dirty, o.hits, o.misses, o.flushed, o.dirty)
		}
	}
	checkCounters("after the last op")
	checkLayout(t, s)
	// Same pages in the same recency order, and the final writeback
	// visits them in the same order (its stall is order-dependent on a
	// seeking disk).
	var want []oracleKey
	for e := o.lru.Front(); e != nil; e = e.Next() {
		want = append(want, e.Value.(*oraclePage).key)
	}
	if got := lruKeys(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("recency order diverges (cfg %+v):\n got %v\nwant %v", cfg, got, want)
	}
	if got, want := s.Flush(at), o.Flush(at); got != want {
		t.Fatalf("final Flush stalled %v, oracle %v (cfg %+v)", got, want, cfg)
	}
	checkCounters("after Flush")
	if got, want := *s.inner.(*device.HDD), *o.inner.(*device.HDD); got != want {
		t.Fatalf("inner devices diverge (cfg %+v):\n got %+v\nwant %+v", cfg, got, want)
	}
	return s, hops
}

// lruKeys walks the recency list MRU → LRU.
func lruKeys(s *Stack) []oracleKey {
	var keys []oracleKey
	for slot := s.head; slot != nilSlot && len(keys) <= len(s.slab); slot = s.slab[slot].next {
		keys = append(keys, oracleKey{s.slab[slot].dev, s.slab[slot].page})
	}
	return keys
}

// checkLayout asserts the flat cache's structural invariants: the
// recency list is a consistent doubly-linked chain of exactly resident
// slots, every listed key resolves through the index to its own slot,
// the dirty flags add up to the dirty counter, every page on the LRU
// side of the flush cursor is clean, listed plus free slots account for
// the whole slab, and the index's bucket chains are acyclic, hold
// exactly the listed slots — no free one — each under the bucket its key
// hashes to.
func checkLayout(t testing.TB, s *Stack) {
	t.Helper()
	listed, dirty, prev := 0, 0, nilSlot
	onList := make([]bool, len(s.slab))
	pastCursor := false // walking MRU to LRU: the cursor's slot is behind us
	for slot := s.head; slot != nilSlot; prev, slot = slot, s.slab[slot].next {
		pg := s.slab[slot]
		if pg.prev != prev {
			t.Fatalf("slot %d: prev = %d, want %d", slot, pg.prev, prev)
		}
		if got := s.find(pg.dev, pg.page); got != slot {
			t.Fatalf("resident key (%d,%d) in slot %d resolves to %d", pg.dev, pg.page, slot, got)
		}
		if listed++; listed > len(s.slab) {
			t.Fatalf("recency list cycles")
		}
		onList[slot] = true
		if pg.dirty() {
			dirty++
			if pastCursor {
				t.Fatalf("slot %d is dirty on the LRU side of the flush cursor (slot %d)", slot, s.flushFrom)
			}
		}
		pastCursor = pastCursor || slot == s.flushFrom
	}
	if s.flushFrom != nilSlot && !pastCursor {
		t.Fatalf("flush cursor %d is not on the recency list", s.flushFrom)
	}
	if dirty != s.dirty {
		t.Fatalf("%d listed pages are dirty, dirty = %d", dirty, s.dirty)
	}
	if s.tail != prev {
		t.Fatalf("tail = %d, list ends at %d", s.tail, prev)
	}
	if listed != s.resident || (s.cfg.CachePages > 0 && listed > s.cfg.CachePages) {
		t.Fatalf("list holds %d pages, resident = %d, capacity %d", listed, s.resident, s.cfg.CachePages)
	}
	free := 0
	for slot := s.free; slot != nilSlot; slot = s.slab[slot].next {
		if free++; free > len(s.slab) {
			t.Fatalf("free chain cycles")
		}
	}
	if listed+free != len(s.slab) {
		t.Fatalf("%d listed + %d free slots != slab of %d", listed, free, len(s.slab))
	}
	indexed := 0
	for b, e := range s.index {
		for ; e != 0; e = s.slab[e-1].chain() {
			pg := s.slab[e-1]
			if !onList[e-1] {
				t.Fatalf("bucket %d reaches slot %d, which is not on the recency list", b, e-1)
			}
			if home := s.home(pg.dev, pg.page); int(home) != b {
				t.Fatalf("slot %d (%d,%d) hangs from bucket %d, hashes to %d", e-1, pg.dev, pg.page, b, home)
			}
			if indexed++; indexed > listed {
				t.Fatalf("index chains hold more than the %d resident pages: a cycle or a slot chained twice", listed)
			}
		}
	}
	if indexed != listed || 2*indexed > len(s.index) || len(s.index)&(len(s.index)-1) != 0 {
		t.Fatalf("index of %d holds %d entries for %d resident pages", len(s.index), indexed, listed)
	}
}

// adversaryBytes draws a case of n ops from a seeded generator.
func adversaryBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, adversaryHeader+n*adversaryOp)
	rng.Read(data)
	return data
}

// TestStackVsOracle is the generated-adversary property test (ROADMAP
// 4a/4b for this device): 40 random configs x 20k ops each, every
// result and the final state equal to the reference model's.
func TestStackVsOracle(t *testing.T) {
	cases, ops := 40, 20_000
	if testing.Short() {
		cases, ops = 8, 4_000
	}
	var hits, misses, flushed uint64
	hops := 0
	for seed := int64(1); seed <= int64(cases); seed++ {
		s, n := adversary(t, adversaryBytes(seed, ops))
		hits, misses, flushed, hops = hits+s.hits, misses+s.misses, flushed+s.flushed, hops+n
	}
	if hits == 0 || misses == 0 || flushed == 0 || hops < cases {
		t.Fatalf("fixture too tame: %d hits, %d misses, %d flushed pages, %d hops", hits, misses, flushed, hops)
	}
	t.Logf("%d cases x %d ops: %d hits, %d misses, %d flushed pages, %d reset hops", cases, ops, hits, misses, flushed, hops)
}

// FuzzStackVsOracle exposes the same driver to the fuzzer; the seed
// corpus under testdata/fuzz covers one-page and 300-page caches,
// write-through, both inner devices and spans wider than the cache,
// and the flush cursor's edges: a dirty limit so low that every write
// flushes while the next ones re-dirty pages the flusher has passed,
// one- and two-page caches where the cursor's slot is the eviction
// victim, and reset hops taken straight after a flush round. About one
// op in 64 is a hop, so a Reset that keeps anything (the flush cursor
// above all) diverges from the fresh oracle.
func FuzzStackVsOracle(f *testing.F) {
	f.Add(adversaryBytes(99, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > adversaryHeader+4096*adversaryOp {
			t.Skip("long inputs add time, not coverage")
		}
		adversary(t, data)
	})
}
