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
package ftl

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/trace"
)

// Config sizes the simulated flash. The zero value is unusable; use
// DefaultConfig.
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

// block is one erase block.
type block struct {
	pages      []pageState
	lpns       []int64 // logical page stored in each physical page
	validCount int
	writePtr   int
	eraseCount uint64
}

// FTL is the page-mapped translation layer.
type FTL struct {
	cfg Config

	blocks []block
	// free is a FIFO ring of the free block numbers: freeCount entries
	// starting at freeHead. It holds cfg.Blocks slots — the active block
	// is never free, so it cannot overflow — and never reallocates.
	free      []int
	freeHead  int
	freeCount int
	active    int     // block currently receiving host writes
	gcActive  int     // block receiving GC relocations (-1 = none)
	l2p       []int64 // logical page -> packed (block<<32 | page); -1 unmapped
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

// New builds an FTL from cfg (zero fields default).
func New(cfg Config) *FTL {
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
	f := &FTL{cfg: cfg}
	f.Reset()
	return f
}

// Reset returns the FTL to its freshly-built state: empty mapping,
// zero wear, zero statistics.
func (f *FTL) Reset() {
	f.gcActive = -1
	f.blocks = make([]block, f.cfg.Blocks)
	for i := range f.blocks {
		f.blocks[i] = block{
			pages: make([]pageState, f.cfg.PagesPerBlock),
			lpns:  make([]int64, f.cfg.PagesPerBlock),
		}
	}
	totalPages := int64(f.cfg.Blocks) * int64(f.cfg.PagesPerBlock)
	f.logical = int64(float64(totalPages) * (1 - f.cfg.OverprovisionPct))
	f.l2p = make([]int64, f.logical)
	for i := range f.l2p {
		f.l2p[i] = -1
	}
	// Block 0 starts active; the rest are free.
	f.active = 0
	f.free = make([]int, f.cfg.Blocks)
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
	for i := range f.blocks {
		ec := f.blocks[i].eraseCount
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
	lpn %= f.logical
	var stall time.Duration
	// Ensure space first so the invariant "active block has a free
	// page" holds.
	for f.activeFull() {
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
func (f *FTL) Idle(budget time.Duration) time.Duration {
	var used time.Duration
	for f.freeCount < f.cfg.BackgroundGCTarget {
		cost := f.peekCollectCost()
		if cost <= 0 || used+cost > budget {
			break
		}
		d, err := f.collect(false)
		if err != nil {
			break
		}
		used += d
	}
	f.stats.IdleBudgetUsed += used
	return used
}

func (f *FTL) activeFull() bool {
	return f.blocks[f.active].writePtr >= f.cfg.PagesPerBlock
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
	b := f.free[f.freeHead]
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
	f.free[i] = b
	f.freeCount++
}

// invalidate clears lpn's current mapping.
func (f *FTL) invalidate(lpn int64) {
	packed := f.l2p[lpn]
	if packed < 0 {
		return
	}
	b, p := int(packed>>32), int(packed&0xffffffff)
	if f.blocks[b].pages[p] == pageValid {
		f.blocks[b].pages[p] = pageInvalid
		f.blocks[b].validCount--
	}
	f.l2p[lpn] = -1
}

// program writes lpn into the next free page of block b.
//
//tracelint:hotpath
func (f *FTL) program(b int, lpn int64, gc bool) {
	blk := &f.blocks[b]
	p := blk.writePtr
	blk.writePtr++
	blk.pages[p] = pageValid
	blk.lpns[p] = lpn
	blk.validCount++
	f.l2p[lpn] = int64(b)<<32 | int64(p)
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
	best, bestValid := -1, 1<<30
	for i := range f.blocks {
		if i == f.active || i == f.gcActive {
			continue
		}
		blk := &f.blocks[i]
		if blk.writePtr < f.cfg.PagesPerBlock {
			continue // not yet sealed
		}
		if blk.validCount < bestValid {
			best, bestValid = i, blk.validCount
		}
	}
	if best >= 0 && bestValid == f.cfg.PagesPerBlock {
		return -1 // everything fully valid: nothing to reclaim
	}
	return best
}

// peekCollectCost estimates the next GC round's cost without running
// it (for idle budgeting).
func (f *FTL) peekCollectCost() time.Duration {
	v := f.victim()
	if v < 0 {
		return -1
	}
	valid := f.blocks[v].validCount
	return time.Duration(valid)*(f.cfg.ReadLatency+f.cfg.ProgramLatency) + f.cfg.EraseLatency
}

// collect runs one GC round: relocate the victim's valid pages, erase
// it, return it to the free list.
//
//tracelint:hotpath
func (f *FTL) collect(foreground bool) (time.Duration, error) {
	v := f.victim()
	if v < 0 {
		return 0, ErrFull
	}
	var cost time.Duration
	blk := &f.blocks[v]
	for p := 0; p < f.cfg.PagesPerBlock; p++ {
		if blk.pages[p] != pageValid {
			continue
		}
		lpn := blk.lpns[p]
		// Relocation target: a dedicated GC block so host and GC
		// streams do not interleave (hot/cold separation).
		if f.gcActive < 0 || f.blocks[f.gcActive].writePtr >= f.cfg.PagesPerBlock {
			if f.freeCount == 0 {
				return cost, ErrFull
			}
			f.gcActive = f.popFree()
		}
		blk.pages[p] = pageInvalid
		blk.validCount--
		f.program(f.gcActive, lpn, true)
		cost += f.cfg.ReadLatency + f.cfg.ProgramLatency
	}
	// Erase and reclaim.
	clear(blk.pages)
	blk.validCount = 0
	blk.writePtr = 0
	blk.eraseCount++
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

// PagesOf converts a block request to its logical page span.
func (f *FTL) PagesOf(r trace.Request) (first, count int64) {
	pageSectors := int64(f.cfg.PageKB) * 1024 / trace.SectorSize
	first = int64(r.LBA) / pageSectors
	last := (int64(r.End()) - 1) / pageSectors
	return first % f.logical, last - first + 1
}
