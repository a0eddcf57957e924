// Package ftl implements a page-mapped flash translation layer with
// garbage collection — the class of simulator the paper's motivating
// studies ([8]: lifetime improvement via program/erase scaling, [31],
// [17], [23]) drive with block traces.
//
// Its role in this repository is to demonstrate the paper's central
// system implication: trace-driven conclusions depend on the timing
// context the trace carries. The FTL runs garbage collection in the
// background *during idle gaps* between requests; a trace whose idle
// periods were destroyed by Acceleration or Revision forces GC into
// the foreground, inflating stall counts and write amplification
// attribution, while a TraceTracker-reconstructed trace preserves the
// background budget. The ext-ftl experiment quantifies exactly this.
//
// The page map is flat, pointer-free storage: every physical page has a
// number, its block shifted left by ⌈log2 PagesPerBlock⌉ or'd with its
// page, and its state and the logical page it holds live in arrays
// indexed by that number; per-block bookkeeping is one array, and the
// logical-to-physical map holds page numbers plus one, so zero memory is
// the empty map. A device of any size is a handful of allocations, Reset
// clears them in place, steady-state Write, Read and Idle allocate
// nothing, the garbage collector has nothing to scan, and the page
// arithmetic is shifts and compares (FTL documents the layout).
package ftl

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
	"unsafe"

	"repro/internal/trace"
)

// Config sizes the simulated flash. The zero value is unusable; use
// DefaultConfig.
//
// Page numbers are int32: Blocks times PagesPerBlock rounded up to a
// power of two must be below 2^31, and New panics when it is not. The
// engine's ftl target caps a device at 2^22 pages and DefaultConfig is
// 2^20, far inside the bound.
type Config struct {
	// Geometry.
	Blocks        int // physical erase blocks
	PagesPerBlock int
	PageKB        int

	// OverprovisionPct reserves a fraction of blocks the host LBA
	// space cannot address (SSDs ship 7-28%).
	OverprovisionPct float64

	// Timing.
	ReadLatency    time.Duration // page read (tR)
	ProgramLatency time.Duration // page program (tPROG)
	EraseLatency   time.Duration // block erase (tBERS)

	// GCTriggerFreeBlocks starts foreground GC when free blocks fall
	// to this level; BackgroundGCTarget is the free-block level
	// background GC tries to restore during idle periods.
	GCTriggerFreeBlocks int
	BackgroundGCTarget  int
}

// DefaultConfig returns a small-but-realistic 8 GiB device: big
// enough to exercise GC on corpus-scale traces, small enough that a
// few thousand requests create pressure.
func DefaultConfig() Config {
	return Config{
		Blocks:              4096,
		PagesPerBlock:       256,
		PageKB:              8,
		OverprovisionPct:    0.07,
		ReadLatency:         50 * time.Microsecond,
		ProgramLatency:      600 * time.Microsecond,
		EraseLatency:        3 * time.Millisecond,
		GCTriggerFreeBlocks: 8,
		BackgroundGCTarget:  32,
	}
}

// pageState tracks one physical page.
type pageState uint8

const (
	pageFree pageState = iota
	pageValid
	pageInvalid
)

// blockMeta is one erase block's bookkeeping.
type blockMeta struct {
	validCount int32
	writePtr   int32 // next page to program
	eraseCount uint64
}

// FTL is the page-mapped translation layer. Its state is a few flat,
// pointer-free arrays. A physical page is numbered ppn =
// block<<pageShift | page, pageShift = ⌈log2 PagesPerBlock⌉; when
// PagesPerBlock is not a power of two, the slots past it in each block
// are padding that stays free.
//
//   - state[ppn] is the page's state, and lpns[ppn] the logical page
//     programmed into it (stale once the page is invalid or erased).
//   - meta[b] is block b's valid-page count, write pointer and wear.
//   - l2p[lpn] is the ppn holding lpn plus one, 0 meaning unmapped.
//   - free is a FIFO ring of the free block numbers: freeCount entries
//     starting at freeHead. It holds cfg.Blocks slots — the active
//     block is never free, so it cannot overflow.
//
// New allocates them once; nothing reallocates them.
type FTL struct {
	cfg Config

	pageShift   uint
	pageSectors int64 // sectors per page
	sectorShift int   // log2(pageSectors) if a power of two, else -1

	state     []pageState
	lpns      []int32
	meta      []blockMeta
	free      []int32
	freeHead  int
	freeCount int
	active    int     // block currently receiving host writes
	gcActive  int     // block receiving GC relocations (-1 = none)
	l2p       []int32 // logical page -> ppn+1; 0 unmapped
	logical   int64   // addressable logical pages

	stats Stats
}

// Stats accumulates the numbers lifetime studies report.
type Stats struct {
	HostWrites   uint64 // pages written by the host
	GCWrites     uint64 // pages relocated by GC
	Erases       uint64
	ForegroundGC uint64 // GC rounds that stalled a host request
	BackgroundGC uint64 // GC rounds absorbed by idle time
	// ForegroundStall is the host-visible time spent waiting for
	// foreground GC.
	ForegroundStall time.Duration
	// IdleBudgetUsed is background-GC time drawn from idle gaps.
	IdleBudgetUsed time.Duration
	MaxErase       uint64
	MinErase       uint64
}

// WAF returns the write amplification factor (host+GC)/host.
func (s Stats) WAF() float64 {
	if s.HostWrites == 0 {
		return 1
	}
	return float64(s.HostWrites+s.GCWrites) / float64(s.HostWrites)
}

// ForegroundShare is the fraction of GC rounds that stalled the host —
// the number the paper's background-budget discussion predicts will
// differ across reconstructions.
func (s Stats) ForegroundShare() float64 {
	total := s.ForegroundGC + s.BackgroundGC
	if total == 0 {
		return 0
	}
	return float64(s.ForegroundGC) / float64(total)
}

// WearSpread returns max/min erase counts (1 = perfectly even).
func (s Stats) WearSpread() float64 {
	if s.MinErase == 0 {
		return float64(s.MaxErase)
	}
	return float64(s.MaxErase) / float64(s.MinErase)
}

// ErrFull is returned when GC cannot reclaim space (logical space
// exceeds physical capacity — a configuration bug).
var ErrFull = errors.New("ftl: no reclaimable space")

// New builds an FTL from cfg (zero fields default). It panics when the
// geometry's page numbers do not fit an int32 (see Config).
func New(cfg Config) *FTL {
	cfg = cfg.withDefaults()
	f := &FTL{cfg: cfg, pageShift: uint(bits.Len(uint(cfg.PagesPerBlock - 1)))}
	if slots := int64(cfg.Blocks) << f.pageShift; slots > math.MaxInt32 {
		panic(fmt.Sprintf("ftl: %d blocks of %d pages (%d page slots) overflow int32 page numbers",
			cfg.Blocks, cfg.PagesPerBlock, slots))
	}
	f.pageSectors = int64(cfg.PageKB) * 1024 / trace.SectorSize
	f.sectorShift = -1
	if f.pageSectors > 0 && f.pageSectors&(f.pageSectors-1) == 0 {
		f.sectorShift = bits.TrailingZeros64(uint64(f.pageSectors))
	}
	f.logical = cfg.logicalPages()
	f.state = make([]pageState, cfg.Blocks<<f.pageShift)
	f.lpns = make([]int32, cfg.Blocks<<f.pageShift)
	f.meta = make([]blockMeta, cfg.Blocks)
	f.free = make([]int32, cfg.Blocks)
	f.l2p = make([]int32, f.logical)
	f.Reset()
	return f
}

// withDefaults fills cfg's zero fields from DefaultConfig.
func (cfg Config) withDefaults() Config {
	def := DefaultConfig()
	if cfg.Blocks == 0 {
		cfg.Blocks = def.Blocks
	}
	if cfg.PagesPerBlock == 0 {
		cfg.PagesPerBlock = def.PagesPerBlock
	}
	if cfg.PageKB == 0 {
		cfg.PageKB = def.PageKB
	}
	if cfg.OverprovisionPct == 0 {
		cfg.OverprovisionPct = def.OverprovisionPct
	}
	if cfg.ReadLatency == 0 {
		cfg.ReadLatency = def.ReadLatency
	}
	if cfg.ProgramLatency == 0 {
		cfg.ProgramLatency = def.ProgramLatency
	}
	if cfg.EraseLatency == 0 {
		cfg.EraseLatency = def.EraseLatency
	}
	if cfg.GCTriggerFreeBlocks == 0 {
		cfg.GCTriggerFreeBlocks = def.GCTriggerFreeBlocks
	}
	if cfg.BackgroundGCTarget == 0 {
		cfg.BackgroundGCTarget = def.BackgroundGCTarget
	}
	return cfg
}

// logicalPages is the host-addressable page count: the physical pages
// less the overprovisioned share.
func (cfg Config) logicalPages() int64 {
	return int64(float64(int64(cfg.Blocks)*int64(cfg.PagesPerBlock)) * (1 - cfg.OverprovisionPct))
}

// StateBytes is what the arrays of an FTL built from cfg (zero fields
// default as in New) occupy. New allocates exactly these, once, and
// nothing grows them, so it is the most an FTL of cfg holds.
func StateBytes(cfg Config) int64 {
	cfg = cfg.withDefaults()
	slots := int64(cfg.Blocks) << bits.Len(uint(cfg.PagesPerBlock-1))
	blocks := int64(cfg.Blocks)
	return slots*int64(unsafe.Sizeof(pageState(0))+unsafe.Sizeof(int32(0))) +
		blocks*int64(unsafe.Sizeof(blockMeta{})+unsafe.Sizeof(int32(0))) +
		cfg.logicalPages()*int64(unsafe.Sizeof(int32(0)))
}

// Reset returns the FTL to its freshly-built state — empty mapping,
// zero wear, zero statistics — in place.
func (f *FTL) Reset() {
	f.gcActive = -1
	clear(f.state)
	clear(f.lpns)
	clear(f.meta)
	clear(f.l2p)
	// Block 0 starts active; the rest are free.
	f.active = 0
	clear(f.free)
	f.freeHead, f.freeCount = 0, 0
	for i := 1; i < f.cfg.Blocks; i++ {
		f.pushFree(i)
	}
	f.stats = Stats{}
}

// Config returns the FTL's configuration with defaults applied.
func (f *FTL) Config() Config { return f.cfg }

// LogicalPages returns the addressable logical page count.
func (f *FTL) LogicalPages() int64 { return f.logical }

// Stats returns the accumulated statistics with wear bounds filled.
func (f *FTL) Stats() Stats {
	s := f.stats
	s.MinErase = ^uint64(0)
	for i := range f.meta {
		ec := f.meta[i].eraseCount
		if ec > s.MaxErase {
			s.MaxErase = ec
		}
		if ec < s.MinErase {
			s.MinErase = ec
		}
	}
	if s.MinErase == ^uint64(0) {
		s.MinErase = 0
	}
	return s
}

// Read services a logical-page read and returns its device time.
//
//tracelint:hotpath
func (f *FTL) Read(lpn int64) time.Duration {
	return f.cfg.ReadLatency
}

// Write services a logical-page write: invalidate the old mapping,
// program into the active block, and run foreground GC if free space
// is exhausted. It returns the host-visible device time including any
// GC stall.
//
//tracelint:hotpath
func (f *FTL) Write(lpn int64) (time.Duration, error) {
	if lpn < 0 {
		return 0, fmt.Errorf("ftl: negative lpn %d", lpn)
	}
	if lpn >= f.logical {
		lpn %= f.logical
	}
	var stall time.Duration
	// Ensure space first so the invariant "active block has a free
	// page" holds.
	for f.sealed(f.active) {
		if err := f.rotateActive(); err != nil {
			// Foreground GC: reclaim, charging the host.
			d, gcErr := f.collect(true)
			if gcErr != nil {
				return stall, gcErr
			}
			stall += d
			continue
		}
	}
	f.invalidate(lpn)
	f.program(f.active, lpn, false)
	// Low-water foreground trigger: keep a reserve so bursts do not
	// deadlock mid-rotation. A cold device with nothing invalid yet
	// simply has nothing to reclaim — that is not an error as long as
	// rotation is still possible.
	for f.freeCount < f.cfg.GCTriggerFreeBlocks {
		d, err := f.collect(true)
		if err != nil {
			if f.freeCount > 0 {
				break
			}
			return stall, err
		}
		stall += d
	}
	return f.cfg.ProgramLatency + stall, nil
}

// Idle grants the FTL an idle period to spend on background GC. It
// returns the portion of the budget actually used.
//
//tracelint:hotpath
func (f *FTL) Idle(budget time.Duration) time.Duration {
	var used time.Duration
	for f.freeCount < f.cfg.BackgroundGCTarget {
		v := f.victim()
		if v < 0 {
			break
		}
		cost := f.collectCost(v)
		if cost <= 0 || used+cost > budget {
			break
		}
		d, err := f.reclaim(v, false)
		if err != nil {
			break
		}
		used += d
	}
	f.stats.IdleBudgetUsed += used
	return used
}

// sealed reports whether block b has no page left to program.
func (f *FTL) sealed(b int) bool {
	return int(f.meta[b].writePtr) >= f.cfg.PagesPerBlock
}

// rotateActive takes a fresh block from the free list.
func (f *FTL) rotateActive() error {
	if f.freeCount == 0 {
		return ErrFull
	}
	f.active = f.popFree()
	return nil
}

// popFree takes the oldest free block off the ring (freeCount > 0).
//
//tracelint:hotpath
func (f *FTL) popFree() int {
	b := int(f.free[f.freeHead])
	f.freeHead++
	if f.freeHead == len(f.free) {
		f.freeHead = 0
	}
	f.freeCount--
	return b
}

// pushFree appends an erased block to the ring.
//
//tracelint:hotpath
func (f *FTL) pushFree(b int) {
	i := f.freeHead + f.freeCount
	if i >= len(f.free) {
		i -= len(f.free)
	}
	f.free[i] = int32(b)
	f.freeCount++
}

// invalidate clears lpn's current mapping.
//
//tracelint:hotpath
func (f *FTL) invalidate(lpn int64) {
	e := f.l2p[lpn]
	if e == 0 {
		return
	}
	if ppn := e - 1; f.state[ppn] == pageValid {
		f.state[ppn] = pageInvalid
		f.meta[ppn>>f.pageShift].validCount--
	}
	f.l2p[lpn] = 0
}

// program writes lpn into the next free page of block b.
//
//tracelint:hotpath
func (f *FTL) program(b int, lpn int64, gc bool) {
	m := &f.meta[b]
	ppn := b<<f.pageShift | int(m.writePtr)
	m.writePtr++
	m.validCount++
	f.state[ppn] = pageValid
	f.lpns[ppn] = int32(lpn)
	f.l2p[lpn] = int32(ppn + 1)
	if gc {
		f.stats.GCWrites++
	} else {
		f.stats.HostWrites++
	}
}

// victim selects the fullest-invalid (greedy) block, excluding the
// active and GC blocks. Returns -1 when nothing is reclaimable.
//
//tracelint:hotpath
func (f *FTL) victim() int {
	best, bestValid := -1, int32(math.MaxInt32)
	sealed := int32(f.cfg.PagesPerBlock)
	for i := range f.meta {
		m := &f.meta[i]
		if m.writePtr < sealed || i == f.active || i == f.gcActive {
			continue // not yet sealed, or being written
		}
		if m.validCount < bestValid {
			best, bestValid = i, m.validCount
			if bestValid == 0 {
				break // nothing later can win: ties go to the lowest index
			}
		}
	}
	if best >= 0 && bestValid == sealed {
		return -1 // everything fully valid: nothing to reclaim
	}
	return best
}

// collectCost is what a GC round on victim v would cost, without
// running it (for idle budgeting).
func (f *FTL) collectCost(v int) time.Duration {
	valid := f.meta[v].validCount
	return time.Duration(valid)*(f.cfg.ReadLatency+f.cfg.ProgramLatency) + f.cfg.EraseLatency
}

// collect runs one GC round on the victim.
//
//tracelint:hotpath
func (f *FTL) collect(foreground bool) (time.Duration, error) {
	v := f.victim()
	if v < 0 {
		return 0, ErrFull
	}
	return f.reclaim(v, foreground)
}

// reclaim relocates block v's valid pages, erases it and returns it to
// the free list.
//
//tracelint:hotpath
func (f *FTL) reclaim(v int, foreground bool) (time.Duration, error) {
	var cost time.Duration
	m := &f.meta[v]
	base := v << f.pageShift
	pages := f.state[base : base+f.cfg.PagesPerBlock]
	for p, st := range pages {
		if st != pageValid {
			continue
		}
		// Relocation target: a dedicated GC block so host and GC
		// streams do not interleave (hot/cold separation).
		if f.gcActive < 0 || f.sealed(f.gcActive) {
			if f.freeCount == 0 {
				return cost, ErrFull
			}
			f.gcActive = f.popFree()
		}
		pages[p] = pageInvalid
		m.validCount--
		f.program(f.gcActive, int64(f.lpns[base+p]), true)
		cost += f.cfg.ReadLatency + f.cfg.ProgramLatency
	}
	// Erase and reclaim.
	clear(pages)
	m.validCount = 0
	m.writePtr = 0
	m.eraseCount++
	f.stats.Erases++
	cost += f.cfg.EraseLatency
	f.pushFree(v)
	if foreground {
		f.stats.ForegroundGC++
		f.stats.ForegroundStall += cost
	} else {
		f.stats.BackgroundGC++
	}
	return cost, nil
}

// PagesOf converts a block request to its logical page span. first is
// reduced modulo the logical space (negative if int64(r.LBA) is).
//
//tracelint:hotpath
func (f *FTL) PagesOf(r trace.Request) (first, count int64) {
	first = f.pageOf(int64(r.LBA))
	last := f.pageOf(int64(r.End()) - 1)
	count = last - first + 1
	if first >= f.logical || first <= -f.logical {
		first %= f.logical
	}
	return first, count
}

// pageOf is sector / pageSectors, truncated toward zero: a shift when
// pages are a power-of-two sector count and sector is not negative.
//
//tracelint:hotpath
func (f *FTL) pageOf(sector int64) int64 {
	if f.sectorShift >= 0 && sector >= 0 {
		return sector >> f.sectorShift
	}
	return sector / f.pageSectors
}
