package ftl

// Differential oracle for the FTL. oracle is the page map as it was
// laid out before the flat rewrite — a []oracleBlock whose every element
// owns its page states and logical page numbers, and an l2p of packed
// block<<32 | page, -1 unmapped — and oracleDevice is the
// device.FTLDevice page loop of the same era, both kept here, test-only,
// as the reference model: the FTL is only ever allowed to be a faster
// way of computing the same durations, errors, page spans and Stats.
// Adversary decodes an arbitrary byte string into a geometry and an op
// sequence (with Reset hops) so the same driver serves the seeded
// property test and FuzzFTLVsOracle (fuzz_test.go, package ftl_test,
// which can import internal/device); checkLayout audits the FTL's
// structures every 256 ops on the way.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/trace"
)

type oracleBlock struct {
	pages      []pageState
	lpns       []int64 // logical page stored in each physical page
	validCount int
	writePtr   int
	eraseCount uint64
}

type oracle struct {
	cfg Config

	blocks    []oracleBlock
	free      []int
	freeHead  int
	freeCount int
	active    int
	gcActive  int
	l2p       []int64 // logical page -> packed (block<<32 | page); -1 unmapped
	logical   int64

	stats Stats
}

// newOracle takes an FTL's already-defaulted config.
func newOracle(cfg Config) *oracle {
	o := &oracle{cfg: cfg}
	o.gcActive = -1
	o.blocks = make([]oracleBlock, o.cfg.Blocks)
	for i := range o.blocks {
		o.blocks[i] = oracleBlock{
			pages: make([]pageState, o.cfg.PagesPerBlock),
			lpns:  make([]int64, o.cfg.PagesPerBlock),
		}
	}
	totalPages := int64(o.cfg.Blocks) * int64(o.cfg.PagesPerBlock)
	o.logical = int64(float64(totalPages) * (1 - o.cfg.OverprovisionPct))
	o.l2p = make([]int64, o.logical)
	for i := range o.l2p {
		o.l2p[i] = -1
	}
	o.active = 0
	o.free = make([]int, o.cfg.Blocks)
	for i := 1; i < o.cfg.Blocks; i++ {
		o.pushFree(i)
	}
	return o
}

func (o *oracle) Stats() Stats {
	s := o.stats
	s.MinErase = ^uint64(0)
	for i := range o.blocks {
		ec := o.blocks[i].eraseCount
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

func (o *oracle) Read(lpn int64) time.Duration { return o.cfg.ReadLatency }

func (o *oracle) Write(lpn int64) (time.Duration, error) {
	if lpn < 0 {
		return 0, fmt.Errorf("ftl: negative lpn %d", lpn)
	}
	lpn %= o.logical
	var stall time.Duration
	for o.activeFull() {
		if err := o.rotateActive(); err != nil {
			d, gcErr := o.collect(true)
			if gcErr != nil {
				return stall, gcErr
			}
			stall += d
			continue
		}
	}
	o.invalidate(lpn)
	o.program(o.active, lpn, false)
	for o.freeCount < o.cfg.GCTriggerFreeBlocks {
		d, err := o.collect(true)
		if err != nil {
			if o.freeCount > 0 {
				break
			}
			return stall, err
		}
		stall += d
	}
	return o.cfg.ProgramLatency + stall, nil
}

func (o *oracle) Idle(budget time.Duration) time.Duration {
	var used time.Duration
	for o.freeCount < o.cfg.BackgroundGCTarget {
		cost := o.peekCollectCost()
		if cost <= 0 || used+cost > budget {
			break
		}
		d, err := o.collect(false)
		if err != nil {
			break
		}
		used += d
	}
	o.stats.IdleBudgetUsed += used
	return used
}

func (o *oracle) activeFull() bool {
	return o.blocks[o.active].writePtr >= o.cfg.PagesPerBlock
}

func (o *oracle) rotateActive() error {
	if o.freeCount == 0 {
		return ErrFull
	}
	o.active = o.popFree()
	return nil
}

func (o *oracle) popFree() int {
	b := o.free[o.freeHead]
	o.freeHead++
	if o.freeHead == len(o.free) {
		o.freeHead = 0
	}
	o.freeCount--
	return b
}

func (o *oracle) pushFree(b int) {
	i := o.freeHead + o.freeCount
	if i >= len(o.free) {
		i -= len(o.free)
	}
	o.free[i] = b
	o.freeCount++
}

func (o *oracle) invalidate(lpn int64) {
	packed := o.l2p[lpn]
	if packed < 0 {
		return
	}
	b, p := int(packed>>32), int(packed&0xffffffff)
	if o.blocks[b].pages[p] == pageValid {
		o.blocks[b].pages[p] = pageInvalid
		o.blocks[b].validCount--
	}
	o.l2p[lpn] = -1
}

func (o *oracle) program(b int, lpn int64, gc bool) {
	blk := &o.blocks[b]
	p := blk.writePtr
	blk.writePtr++
	blk.pages[p] = pageValid
	blk.lpns[p] = lpn
	blk.validCount++
	o.l2p[lpn] = int64(b)<<32 | int64(p)
	if gc {
		o.stats.GCWrites++
	} else {
		o.stats.HostWrites++
	}
}

func (o *oracle) victim() int {
	best, bestValid := -1, 1<<30
	for i := range o.blocks {
		if i == o.active || i == o.gcActive {
			continue
		}
		blk := &o.blocks[i]
		if blk.writePtr < o.cfg.PagesPerBlock {
			continue
		}
		if blk.validCount < bestValid {
			best, bestValid = i, blk.validCount
		}
	}
	if best >= 0 && bestValid == o.cfg.PagesPerBlock {
		return -1
	}
	return best
}

func (o *oracle) peekCollectCost() time.Duration {
	v := o.victim()
	if v < 0 {
		return -1
	}
	valid := o.blocks[v].validCount
	return time.Duration(valid)*(o.cfg.ReadLatency+o.cfg.ProgramLatency) + o.cfg.EraseLatency
}

func (o *oracle) collect(foreground bool) (time.Duration, error) {
	v := o.victim()
	if v < 0 {
		return 0, ErrFull
	}
	var cost time.Duration
	blk := &o.blocks[v]
	for p := 0; p < o.cfg.PagesPerBlock; p++ {
		if blk.pages[p] != pageValid {
			continue
		}
		lpn := blk.lpns[p]
		if o.gcActive < 0 || o.blocks[o.gcActive].writePtr >= o.cfg.PagesPerBlock {
			if o.freeCount == 0 {
				return cost, ErrFull
			}
			o.gcActive = o.popFree()
		}
		blk.pages[p] = pageInvalid
		blk.validCount--
		o.program(o.gcActive, lpn, true)
		cost += o.cfg.ReadLatency + o.cfg.ProgramLatency
	}
	clear(blk.pages)
	blk.validCount = 0
	blk.writePtr = 0
	blk.eraseCount++
	o.stats.Erases++
	cost += o.cfg.EraseLatency
	o.pushFree(v)
	if foreground {
		o.stats.ForegroundGC++
		o.stats.ForegroundStall += cost
	} else {
		o.stats.BackgroundGC++
	}
	return cost, nil
}

func (o *oracle) PagesOf(r trace.Request) (first, count int64) {
	pageSectors := int64(o.cfg.PageKB) * 1024 / trace.SectorSize
	first = int64(r.LBA) / pageSectors
	last := (int64(r.End()) - 1) / pageSectors
	return first % o.logical, last - first + 1
}

// oracleDevice is device.FTLDevice's Submit as it was: the idle gap
// to background GC, then one (first+i) % logical per page.
type oracleDevice struct {
	f            *oracle
	lastComplete time.Duration
}

func (d *oracleDevice) Submit(at time.Duration, r trace.Request) (start, complete time.Duration) {
	if at > d.lastComplete {
		d.f.Idle(at - d.lastComplete)
	}
	first, count := d.f.PagesOf(r)
	logical := d.f.logical
	var svc time.Duration
	for i := int64(0); i < count; i++ {
		lpn := (first + i) % logical
		if r.Op == trace.Read {
			svc += d.f.Read(lpn)
		} else {
			dur, _ := d.f.Write(lpn)
			svc += dur
		}
	}
	complete = at + svc
	d.lastComplete = complete
	return at, complete
}

// Lane is a device.FTLDevice seen through funcs, so Adversary can
// drive the device's page loop from package ftl, which internal/device
// imports: fuzz_test.go builds one per geometry.
type Lane struct {
	FTL    *FTL
	Submit func(at time.Duration, r trace.Request) (start, complete time.Duration)
	Reset  func()
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

// AdversaryHeader is the number of bytes Adversary spends on the
// geometry; every op after it takes AdversaryOp bytes.
const (
	AdversaryHeader = 7
	AdversaryOp     = 5
)

// Outcome is what one adversary case exercised, for fixture assertions.
type Outcome struct {
	Stats  Stats // both lanes' counters, summed over every hop
	Hops   int
	Errors int // Write errors seen on the direct lane
	Full   int // of which ErrFull
}

func (o *Outcome) add(s Stats) {
	o.Stats.HostWrites += s.HostWrites
	o.Stats.GCWrites += s.GCWrites
	o.Stats.Erases += s.Erases
	o.Stats.ForegroundGC += s.ForegroundGC
	o.Stats.BackgroundGC += s.BackgroundGC
}

// Adversary runs one generated case through two lanes in lockstep, each
// against its own oracle, failing on the first diverging duration,
// error, page span or Stats: the direct lane calls Write, Read and Idle
// on an FTL, the device lane Submits requests to the Lane newLane builds.
// Header bytes pick the geometry — 64…256 blocks; 5, 8, 24, 32, 64 or
// 96 pages per block; 4, 6, 8 or 16 KiB pages (6 KiB takes PagesOf's
// division path); 1…40% overprovisioning; the foreground GC trigger and
// the background target — and the logical-page universe the ops draw
// from, from a 64th of the logical space (heavy overwrite, so GC runs)
// to half again beyond it (so lpns wrap). Each op picks a direct write,
// read or idle grant; an lpn that may be negative or laps the logical
// space; a device request of either op, 1…8 pages at a sector offset,
// or a span past two blocks, or an LBA whose int64 is negative; the idle
// gap before it; and, about one op in 4,096, a hop first: Reset both
// lanes and start fresh oracles.
func Adversary(t testing.TB, data []byte, newLane func(Config) Lane) Outcome {
	src := &byteSource{data}
	cfg := Config{
		Blocks:           64 + src.u8()%193,
		PagesPerBlock:    []int{8, 24, 32, 64, 96, 5}[src.u8()%6],
		PageKB:           []int{4, 6, 8, 16}[src.u8()%4],
		OverprovisionPct: float64(1+src.u8()%40) / 100,
	}
	cfg.GCTriggerFreeBlocks = 1 + src.u8()%12
	cfg.BackgroundGCTarget = cfg.GCTriggerFreeBlocks + src.u8()%32
	spread := 1 + src.u8()%96

	f := New(cfg)
	cfg = f.Config()
	lane := newLane(cfg)
	o, od := newOracle(cfg), &oracleDevice{f: newOracle(cfg)}
	logical := f.LogicalPages()
	universe := max(1, logical*int64(spread)/64)
	pageSectors := uint64(cfg.PageKB) * 1024 / trace.SectorSize
	var out Outcome
	var at time.Duration
	for i := 0; len(src.b) >= AdversaryOp; i++ {
		kind, where, size, gap := src.u8(), int64(src.u16()), src.u8(), src.u8()
		if kind == 0 && where&15 == 0 {
			out.add(f.Stats())
			out.add(lane.FTL.Stats())
			f.Reset()
			lane.Reset()
			o, od = newOracle(cfg), &oracleDevice{f: newOracle(cfg)}
			at = 0
			out.Hops++
		}
		lpn := where % universe
		switch {
		case size >= 240: // a long device span
		case size >= 224:
			lpn = -1 - lpn
		case size >= 192:
			lpn += logical * int64(1+size&3)
		}

		switch kind & 3 {
		case 0, 1:
			got, gotErr := f.Write(lpn)
			want, wantErr := o.Write(lpn)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("op %d (cfg %+v): Write(%d) = %v, %v; oracle %v, %v", i, cfg, lpn, got, gotErr, want, wantErr)
			}
			if gotErr != nil {
				out.Errors++
			}
			if errors.Is(gotErr, ErrFull) {
				out.Full++
			}
		case 2:
			if got, want := f.Read(lpn), o.Read(lpn); got != want {
				t.Fatalf("op %d (cfg %+v): Read(%d) = %v, oracle %v", i, cfg, lpn, got, want)
			}
		case 3:
			budget := time.Duration(gap) * 200 * time.Microsecond
			if got, want := f.Idle(budget), o.Idle(budget); got != want {
				t.Fatalf("op %d (cfg %+v): Idle(%v) used %v, oracle %v", i, cfg, budget, got, want)
			}
		}

		pages := uint64(1 + size%8)
		r := trace.Request{
			LBA: uint64(where%universe)*pageSectors + uint64(kind>>3)%pageSectors,
			Op:  trace.Op(kind >> 2 & 1),
		}
		switch {
		case size >= 240:
			pages = uint64(2*cfg.PagesPerBlock + size%8)
		case size >= 224:
			r.LBA |= 1 << 63 // int64(LBA) < 0
		case size >= 192:
			r.LBA += uint64(logical) * pageSectors
		}
		r.Sectors = uint32(pages * pageSectors)
		first, count := f.PagesOf(r)
		if wantFirst, wantCount := o.PagesOf(r); first != wantFirst || count != wantCount {
			t.Fatalf("op %d (cfg %+v): PagesOf(%+v) = %d, %d; oracle %d, %d", i, cfg, r, first, count, wantFirst, wantCount)
		}
		if gap >= 160 {
			at += time.Duration(gap-159) * 100 * time.Microsecond
		}
		start, complete := lane.Submit(at, r)
		wantStart, wantComplete := od.Submit(at, r)
		if start != wantStart || complete != wantComplete {
			t.Fatalf("op %d (cfg %+v): Submit(%v, %+v) = [%v, %v], oracle [%v, %v]",
				i, cfg, at, r, start, complete, wantStart, wantComplete)
		}
		at = complete
		if got, want := f.Stats(), o.Stats(); got != want {
			t.Fatalf("op %d (cfg %+v): direct Stats\n got %+v\nwant %+v", i, cfg, got, want)
		}
		if got, want := lane.FTL.Stats(), od.f.Stats(); got != want {
			t.Fatalf("op %d (cfg %+v): device Stats\n got %+v\nwant %+v", i, cfg, got, want)
		}
		if i%256 == 255 {
			checkLayout(t, f)
			checkLayout(t, lane.FTL)
		}
	}
	checkLayout(t, f)
	checkLayout(t, lane.FTL)
	out.add(f.Stats())
	out.add(lane.FTL.Stats())
	return out
}

// checkLayout asserts the flat layout's invariants: each block's
// validCount is the number of valid pages in its slots and its write
// pointer bounds its programmed ones, padding slots stay free and zero,
// every valid page's lpn maps back to it and every mapping lands on a
// valid page holding that lpn, and the free ring, the active block and
// the GC block are disjoint, the ring holding each free block once, each
// one erased.
func checkLayout(t testing.TB, f *FTL) {
	t.Helper()
	ppb, slots := f.cfg.PagesPerBlock, 1<<f.pageShift
	if len(f.state) != f.cfg.Blocks*slots || len(f.lpns) != len(f.state) || len(f.meta) != f.cfg.Blocks ||
		int64(len(f.l2p)) != f.logical || len(f.free) != f.cfg.Blocks {
		t.Fatalf("array sizes: state %d, lpns %d, meta %d, l2p %d, free %d for %d blocks of %d slots, %d logical pages",
			len(f.state), len(f.lpns), len(f.meta), len(f.l2p), len(f.free), f.cfg.Blocks, slots, f.logical)
	}
	for b := range f.meta {
		m := f.meta[b]
		valid := int32(0)
		for p := 0; p < slots; p++ {
			ppn := b<<f.pageShift | p
			st := f.state[ppn]
			switch {
			case p >= ppb:
				if st != pageFree || f.lpns[ppn] != 0 {
					t.Fatalf("padding slot %d of block %d: state %d, lpn %d", p, b, st, f.lpns[ppn])
				}
			case st != pageFree && p >= int(m.writePtr):
				t.Fatalf("page %d of block %d is programmed past the write pointer %d", p, b, m.writePtr)
			case st == pageValid:
				valid++
				lpn := f.lpns[ppn]
				if lpn < 0 || int64(lpn) >= f.logical || f.l2p[lpn] != int32(ppn+1) {
					t.Fatalf("valid page %d of block %d holds lpn %d, which does not map back to it", p, b, lpn)
				}
			}
		}
		if valid != m.validCount {
			t.Fatalf("block %d: %d valid pages, validCount = %d", b, valid, m.validCount)
		}
	}
	for lpn, e := range f.l2p {
		if e == 0 {
			continue
		}
		if ppn := e - 1; ppn < 0 || int(ppn) >= len(f.state) || int(ppn)&(slots-1) >= ppb ||
			f.state[ppn] != pageValid || f.lpns[ppn] != int32(lpn) {
			t.Fatalf("lpn %d maps to slot %d, which is not a valid page holding it", lpn, ppn)
		}
	}
	seen := make([]bool, f.cfg.Blocks)
	for i := 0; i < f.freeCount; i++ {
		b := int(f.free[(f.freeHead+i)%len(f.free)])
		if seen[b] || b == f.active || b == f.gcActive {
			t.Fatalf("free ring entry %d (block %d) repeats or is the active (%d) or GC (%d) block", i, b, f.active, f.gcActive)
		}
		seen[b] = true
		if m := f.meta[b]; m.writePtr != 0 || m.validCount != 0 {
			t.Fatalf("free block %d is not erased: writePtr %d, validCount %d", b, m.writePtr, m.validCount)
		}
	}
	if f.active == f.gcActive {
		t.Fatalf("active block %d is also the GC block", f.active)
	}
}

// AdversaryBytes draws a case of n ops from a seeded generator.
func AdversaryBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, AdversaryHeader+n*AdversaryOp)
	rng.Read(data)
	return data
}
