// Package hoststack models the host side of the paper's Fig 2a
// storage stack: the mode switch and buffer copy an I/O system call
// costs, the VFS page cache that absorbs read hits and buffers
// writes, and the writeback flusher that turns dirty pages into the
// block-layer requests an underlying device actually sees.
//
// The Stack wraps any device.Device and is itself a device.Device, so
// the replay machinery composes unchanged:
//
//	inner := device.NewHDD(device.DefaultHDDConfig())
//	host := hoststack.New(hoststack.DefaultConfig(), inner)
//	res := app.Execute(host)      // application-visible timing
//	blk := host.BlockTrace()      // what blktrace records below the cache
//
// This is the substrate behind the paper's observation that public
// block traces are collected *underneath* the block layer: the
// application-level behaviour and the block-level trace differ by
// exactly the cache hits, write buffering and readahead modeled here.
//
// The page cache is flat, pointer-free storage: a slab of 24-byte
// slots that carry their own LRU and index-chain links as slot numbers
// (and the dirty flag in a spare bit of one), and a hash index of
// bucket heads whose chains run through the slots. A flush cursor
// remembers how far up the LRU the flusher has already cleaned, so
// lookup, insert, evict and flush are all O(1) per page. Steady-state
// Submit allocates nothing and the garbage collector has nothing to
// scan (Stack documents the layout).
package hoststack

import (
	"math/bits"
	"time"
	"unsafe"

	"repro/internal/device"
	"repro/internal/trace"
)

// Config parameterizes the host stack.
type Config struct {
	// CachePages is the page-cache capacity in pages.
	CachePages int
	// PageKB is the cache page size.
	PageKB int
	// WriteBack buffers writes in the cache (completing them at
	// memory speed) and flushes them later; false means write-through.
	WriteBack bool
	// DirtyHighWater triggers synchronous flushing when the dirty
	// fraction of the cache exceeds it (the kernel flusher's
	// dirty_ratio analogue).
	DirtyHighWater float64
	// FlushBatch is the number of dirty pages each flush round writes.
	FlushBatch int
	// ReadAheadPages prefetches this many pages after a read miss.
	ReadAheadPages int
	// SyscallOverhead is the CPU cost of the user/kernel mode switch
	// and buffer copy charged to every request (the paper's hidden
	// CPU burst).
	SyscallOverhead time.Duration
	// HitLatency is the cost of serving a request from the cache.
	HitLatency time.Duration
	// NoBlockLog disables the block-layer request log. The engine sets
	// it for reconstruction targets: the log grows without bound over a
	// whole trace and is only a diagnostic of a serially-driven stack.
	NoBlockLog bool
}

// DefaultConfig returns a 256 MiB write-back cache with modest
// readahead, roughly a 2007-era file server's per-volume share.
func DefaultConfig() Config {
	return Config{
		CachePages:      65536, // 256 MiB of 4K pages
		PageKB:          4,
		WriteBack:       true,
		DirtyHighWater:  0.20,
		FlushBatch:      32,
		ReadAheadPages:  8,
		SyscallOverhead: 3 * time.Microsecond,
		HitLatency:      2 * time.Microsecond,
	}
}

// cachePage is one slab slot: a resident page linked into the LRU and
// into its index bucket's chain by slot number, or a free slot chained
// through next. The fields fill 24 bytes exactly, so the dirty flag
// rides in hnext's sign bit.
type cachePage struct {
	page       uint64
	dev        uint32
	prev, next int32 // toward the MRU and LRU ends; nilSlot terminates
	hnext      int32 // rest of the bucket's chain as slot+1 (0 ends it) | dirtyBit
}

// dirtyBit marks a page that owes a writeback.
const dirtyBit int32 = -1 << 31

func (pg *cachePage) dirty() bool { return pg.hnext < 0 }

// chain returns the next entry of the page's index bucket.
func (pg *cachePage) chain() int32 { return pg.hnext &^ dirtyBit }

// nilSlot terminates the LRU list and the free chain, and is the flush
// cursor's "unknown".
const nilSlot int32 = -1

// Slab and index start this small and double with residency; they are
// never sized from Config.CachePages up front (a spec may ask for 4 Mi
// pages it will not touch).
const (
	minSlab  = 64
	minIndex = 2 * minSlab
)

// Stack is the host storage stack; it implements device.Device.
//
// The page cache is two pointer-free slices plus five words. slab holds
// one 24-byte slot per page ever resident at once; head and tail are the
// MRU and LRU ends of the recency list threaded through the slots'
// prev/next, free heads the chain of evicted slots (linked by next), and
// resident and dirty count the listed pages and their writeback debt.
// index is the power-of-two table of bucket heads (slot+1, at least two
// buckets per resident page) from a hash of (dev, page); the pages of a
// bucket are chained through the slots' hnext, whose sign bit is the
// page's dirty flag.
type Stack struct {
	cfg   Config
	inner device.Device
	// Derived from cfg in New.
	pageSectors uint64
	dirtyLimit  int // dirty pages beyond this force synchronous flushing

	slab             []cachePage
	index            []int32
	head, tail, free int32
	resident, dirty  int
	// flushFrom is the flush cursor: every resident page strictly on the
	// LRU side of this slot is clean, so the flusher starts here instead
	// of at tail (nilSlot: unknown, start at tail). It stays true because
	// a page only ever becomes dirty at the head of the list. It only
	// records work the flusher need not repeat, so Reset forgets it.
	flushFrom int32

	log *trace.Trace

	hits, misses, flushed uint64
}

// New builds a Stack over inner (zero cfg fields default).
func New(cfg Config, inner device.Device) *Stack {
	def := DefaultConfig()
	if cfg.CachePages == 0 {
		cfg.CachePages = def.CachePages
	}
	if cfg.PageKB == 0 {
		cfg.PageKB = def.PageKB
	}
	if cfg.DirtyHighWater == 0 {
		cfg.DirtyHighWater = def.DirtyHighWater
	}
	if cfg.FlushBatch == 0 {
		cfg.FlushBatch = def.FlushBatch
	}
	if cfg.SyscallOverhead == 0 {
		cfg.SyscallOverhead = def.SyscallOverhead
	}
	if cfg.HitLatency == 0 {
		cfg.HitLatency = def.HitLatency
	}
	s := &Stack{
		cfg:         cfg,
		inner:       inner,
		pageSectors: uint64(cfg.PageKB) * 1024 / trace.SectorSize,
		dirtyLimit:  int(cfg.DirtyHighWater * float64(cfg.CachePages)),
	}
	s.Reset()
	return s
}

// CacheBytes is the most the page cache of a Stack built from cfg (zero
// fields default as in New) ever holds: the slab grows to at most
// CachePages slots and the index to the least power of two that gives
// every one of them two buckets. Reset keeps both. The inner device is
// not counted.
func CacheBytes(cfg Config) int64 {
	pages := cfg.CachePages
	if pages == 0 {
		pages = DefaultConfig().CachePages
	}
	index := max(minIndex, 1<<bits.Len(uint(2*pages-1)))
	return int64(pages)*int64(unsafe.Sizeof(cachePage{})) + int64(index)*int64(unsafe.Sizeof(int32(0)))
}

// Name implements device.Device.
func (s *Stack) Name() string { return "hoststack(" + s.inner.Name() + ")" }

// Reset implements device.Device. The cache empties in place: slab and
// index keep their storage.
func (s *Stack) Reset() {
	s.inner.Reset()
	s.slab = s.slab[:0]
	if s.index == nil {
		s.index = make([]int32, minIndex)
	}
	clear(s.index)
	s.head, s.tail, s.free, s.flushFrom = nilSlot, nilSlot, nilSlot, nilSlot
	s.resident, s.dirty = 0, 0
	s.log = &trace.Trace{Name: "blocktrace", TsdevKnown: true}
	s.hits, s.misses, s.flushed = 0, 0, 0
}

// HitRate returns cache hits / (hits+misses) for reads.
func (s *Stack) HitRate() float64 {
	total := s.hits + s.misses
	if total == 0 {
		return 0
	}
	return float64(s.hits) / float64(total)
}

// BlockTrace returns the block-layer request log collected so far —
// what blktrace underneath the cache would have captured. The caller
// must not mutate it while the stack is in use.
func (s *Stack) BlockTrace() *trace.Trace {
	s.log.Sort()
	return s.log
}

// Submit implements device.Device: the application-visible service of
// one request through the cache.
//
//tracelint:hotpath
func (s *Stack) Submit(at time.Duration, r trace.Request) device.Result {
	now := at + s.cfg.SyscallOverhead
	first := r.LBA / s.pageSectors
	last := (r.End() - 1) / s.pageSectors

	if r.Op == trace.Read {
		return s.read(now, r, first, last)
	}
	return s.write(now, r, first, last)
}

//tracelint:hotpath
func (s *Stack) read(now time.Duration, r trace.Request, first, last uint64) device.Result {
	// Partition the span into hits and misses; misses fetch from the
	// inner device synchronously (plus readahead beyond the span).
	var missFrom, missTo uint64
	haveMiss := false
	for p := first; p <= last; p++ {
		if s.touch(r.Device, p, false) {
			s.hits++
			continue
		}
		s.misses++
		if !haveMiss {
			missFrom, haveMiss = p, true
		}
		missTo = p
	}
	complete := now + s.cfg.HitLatency
	if haveMiss {
		ra := uint64(s.cfg.ReadAheadPages)
		fetchTo := missTo + ra
		res := s.issue(now, r.Device, missFrom, fetchTo, trace.Read)
		for p := missFrom; p <= fetchTo; p++ {
			s.install(r.Device, p, false, now)
		}
		complete = res.Complete
	}
	return device.Result{Start: now, Complete: complete}
}

//tracelint:hotpath
func (s *Stack) write(now time.Duration, r trace.Request, first, last uint64) device.Result {
	if !s.cfg.WriteBack {
		res := s.issue(now, r.Device, first, last, trace.Write)
		for p := first; p <= last; p++ {
			s.install(r.Device, p, false, now)
		}
		return device.Result{Start: now, Complete: res.Complete}
	}
	for p := first; p <= last; p++ {
		s.install(r.Device, p, true, now)
	}
	complete := now + s.cfg.HitLatency
	// Dirty high-water: flush synchronously, charging this request —
	// the stall applications observe when the flusher falls behind.
	if stall := s.maybeFlush(now); stall > 0 {
		complete += stall
	}
	return device.Result{Start: now, Complete: complete}
}

// touch marks a resident page used (and dirty when dirty), reporting
// residency.
//
//tracelint:hotpath
func (s *Stack) touch(dev uint32, page uint64, dirty bool) bool {
	slot := s.find(dev, page)
	if slot == nilSlot {
		return false
	}
	if slot != s.head {
		s.unlink(slot)
		s.pushFront(slot)
	}
	if pg := &s.slab[slot]; dirty && !pg.dirty() {
		pg.hnext |= dirtyBit
		s.dirty++
	}
	return true
}

// install makes a page resident and most recent, evicting (and writing
// back) the LRU victim when full.
//
//tracelint:hotpath
func (s *Stack) install(dev uint32, page uint64, dirty bool, now time.Duration) {
	if s.touch(dev, page, dirty) {
		return
	}
	for s.resident >= s.cfg.CachePages && s.tail != nilSlot {
		s.evict(now)
	}
	slot := s.free
	if slot != nilSlot {
		s.free = s.slab[slot].next
	} else {
		if len(s.slab) == cap(s.slab) {
			s.growSlab()
		}
		slot = int32(len(s.slab))
		s.slab = s.slab[:slot+1]
	}
	if 2*(s.resident+1) > len(s.index) {
		s.growIndex()
	}
	s.slab[slot] = cachePage{page: page, dev: dev}
	s.pushFront(slot)
	s.indexAdd(slot)
	s.resident++
	if dirty {
		s.slab[slot].hnext |= dirtyBit
		s.dirty++
	}
}

// evict drops the LRU page, writing it back first when dirty, and
// chains its slot onto the free list.
//
//tracelint:hotpath
func (s *Stack) evict(now time.Duration) {
	slot := s.tail
	if pg := &s.slab[slot]; pg.dirty() {
		s.issue(now, pg.dev, pg.page, pg.page, trace.Write)
		s.flushed++
		s.dirty--
	}
	s.indexRemove(slot)
	s.unlink(slot)
	s.slab[slot].next = s.free
	s.free = slot
	s.resident--
}

// unlink takes a resident slot out of the LRU list, stepping the flush
// cursor toward the MRU end when it stood on that slot.
//
//tracelint:hotpath
func (s *Stack) unlink(slot int32) {
	pg := &s.slab[slot]
	if s.flushFrom == slot {
		s.flushFrom = pg.prev
	}
	if pg.prev == nilSlot {
		s.head = pg.next
	} else {
		s.slab[pg.prev].next = pg.next
	}
	if pg.next == nilSlot {
		s.tail = pg.prev
	} else {
		s.slab[pg.next].prev = pg.prev
	}
}

// pushFront links an unlinked slot in as the most recent page.
//
//tracelint:hotpath
func (s *Stack) pushFront(slot int32) {
	pg := &s.slab[slot]
	pg.prev, pg.next = nilSlot, s.head
	if s.head == nilSlot {
		s.tail = slot
	} else {
		s.slab[s.head].prev = slot
	}
	s.head = slot
}

// home is the index bucket a key hangs from. len(index) is a power of
// two; the multiplicative hash spreads the sequential page runs that
// readahead and streaming I/O produce over distinct buckets.
//
//tracelint:hotpath
func (s *Stack) home(dev uint32, page uint64) uint32 {
	h := (page + uint64(dev)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	return uint32(h>>32) & uint32(len(s.index)-1)
}

// find returns the slot holding a page, nilSlot when not resident.
// Index entries and chain links are slot+1 so the zero value is an
// empty bucket or the end of a chain; with at least two buckets per
// resident page a chain is rarely longer than one.
//
//tracelint:hotpath
func (s *Stack) find(dev uint32, page uint64) int32 {
	for e := s.index[s.home(dev, page)]; e != 0; {
		pg := &s.slab[e-1]
		if pg.page == page && pg.dev == dev {
			return e - 1
		}
		e = pg.chain()
	}
	return nilSlot
}

// indexAdd pushes a slot whose key is not indexed yet onto its bucket.
//
//tracelint:hotpath
func (s *Stack) indexAdd(slot int32) {
	pg := &s.slab[slot]
	b := s.home(pg.dev, pg.page)
	pg.hnext = pg.hnext&dirtyBit | s.index[b]
	s.index[b] = slot + 1
}

// indexRemove unlinks an indexed slot from its bucket's chain. link is
// the word that names the slot: the bucket head, or the hnext of the
// page chained before it, whose own dirty flag stays put.
//
//tracelint:hotpath
func (s *Stack) indexRemove(slot int32) {
	pg := &s.slab[slot]
	link := &s.index[s.home(pg.dev, pg.page)]
	for *link&^dirtyBit != slot+1 {
		link = &s.slab[*link&^dirtyBit-1].hnext
	}
	*link = *link&dirtyBit | pg.chain()
}

// growSlab doubles the slab, up to the configured capacity.
func (s *Stack) growSlab() {
	n := max(2*cap(s.slab), minSlab)
	if c := s.cfg.CachePages; c > 0 && n > c {
		n = c
	}
	slab := make([]cachePage, len(s.slab), n)
	copy(slab, s.slab)
	s.slab = slab
}

// growIndex doubles the index and re-chains every resident page.
func (s *Stack) growIndex() {
	s.index = make([]int32, 2*len(s.index))
	for slot := s.head; slot != nilSlot; slot = s.slab[slot].next {
		s.indexAdd(slot)
	}
}

// maybeFlush writes back batches, oldest page first, while the dirty
// count exceeds the high-water mark; returns the synchronous stall
// incurred. Each batch resumes at the flush cursor and leaves it on the
// last slot it examined.
//
//tracelint:hotpath
func (s *Stack) maybeFlush(now time.Duration) time.Duration {
	var stall time.Duration
	for s.dirty > s.dirtyLimit {
		slot := s.flushFrom
		if slot == nilSlot {
			slot = s.tail
		}
		flushedInBatch := 0
		for ; slot != nilSlot && flushedInBatch < s.cfg.FlushBatch; slot = s.slab[slot].prev {
			s.flushFrom = slot
			if !s.slab[slot].dirty() {
				continue
			}
			stall += s.writeBack(now+stall, slot)
			flushedInBatch++
		}
		if flushedInBatch == 0 {
			break
		}
	}
	return stall
}

// Flush synchronously writes back every dirty page (fsync/unmount).
func (s *Stack) Flush(at time.Duration) time.Duration {
	var stall time.Duration
	for slot := s.tail; slot != nilSlot; slot = s.slab[slot].prev {
		if s.slab[slot].dirty() {
			stall += s.writeBack(at+stall, slot)
		}
	}
	return stall
}

// writeBack cleans one dirty resident page, returning how long the
// inner device took.
//
//tracelint:hotpath
func (s *Stack) writeBack(at time.Duration, slot int32) time.Duration {
	pg := &s.slab[slot]
	res := s.issue(at, pg.dev, pg.page, pg.page, trace.Write)
	pg.hnext &^= dirtyBit
	s.dirty--
	s.flushed++
	return res.Complete - at
}

// issue sends a page span to the inner device and records it in the
// block-layer log.
//
//tracelint:hotpath
func (s *Stack) issue(at time.Duration, dev uint32, firstPage, lastPage uint64, op trace.Op) device.Result {
	req := trace.Request{
		Arrival: at,
		Device:  dev,
		LBA:     firstPage * s.pageSectors,
		Sectors: uint32((lastPage - firstPage + 1) * s.pageSectors),
		Op:      op,
	}
	res := s.inner.Submit(at, req)
	if !s.cfg.NoBlockLog {
		req.Latency = res.Complete - at
		s.log.Requests = append(s.log.Requests, req)
	}
	return res
}

// DeviceStats implements device.StatsReporter with the cache-level
// numbers that distinguish application-visible from block-level
// behaviour, appending the inner device's stats when it reports any.
func (s *Stack) DeviceStats() []device.Stat {
	stats := []device.Stat{
		{Name: "cache_hits", Value: float64(s.hits)},
		{Name: "cache_misses", Value: float64(s.misses)},
		{Name: "hit_rate", Value: s.HitRate()},
		{Name: "flushed_pages", Value: float64(s.flushed)},
		{Name: "dirty_pages", Value: float64(s.dirty)},
	}
	if sr, ok := s.inner.(device.StatsReporter); ok {
		for _, st := range sr.DeviceStats() {
			stats = append(stats, device.Stat{Name: "inner_" + st.Name, Value: st.Value})
		}
	}
	return stats
}
