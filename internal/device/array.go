package device

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// ArrayConfig parameterizes a striped all-flash array: N member SSDs
// behind an array controller, chunk-striped like RAID-0. The paper's
// evaluation node groups four NVMe 750-class SSDs over four PCIe 3.0
// x4 slots, reaching ~9 GB/s reads and ~4 GB/s writes.
type ArrayConfig struct {
	Members int
	ChunkKB int // stripe unit
	SSD     SSDConfig
	// Controller adds a fixed per-request overhead (host driver +
	// striping computation).
	CtrlOverhead time.Duration
}

// DefaultArrayConfig returns the paper's 4-SSD evaluation node.
func DefaultArrayConfig() ArrayConfig {
	return ArrayConfig{
		Members:      4,
		ChunkKB:      128,
		SSD:          DefaultSSDConfig(),
		CtrlOverhead: 5 * time.Microsecond,
	}
}

// Array is a striped group of SSDs implementing Device.
type Array struct {
	cfg             ArrayConfig
	members         []*SSD
	sectorsPerChunk uint64
}

// NewArray builds an Array from cfg, defaulting zero fields.
func NewArray(cfg ArrayConfig) *Array {
	def := DefaultArrayConfig()
	if cfg.Members == 0 {
		cfg.Members = def.Members
	}
	if cfg.ChunkKB == 0 {
		cfg.ChunkKB = def.ChunkKB
	}
	if cfg.CtrlOverhead == 0 {
		cfg.CtrlOverhead = def.CtrlOverhead
	}
	a := &Array{
		cfg:             cfg,
		sectorsPerChunk: uint64(cfg.ChunkKB) * 1024 / trace.SectorSize,
	}
	for i := 0; i < cfg.Members; i++ {
		a.members = append(a.members, NewSSD(cfg.SSD))
	}
	return a
}

// Name implements Device.
func (a *Array) Name() string {
	return fmt.Sprintf("flash-array-%dx%s", a.cfg.Members, a.members[0].Name())
}

// DrainedLatency implements ShardSafe: striping is stateless and the
// members are shard-safe SSDs. A request of at most Members fragments
// puts each fragment on its own drained member, so its latency is the
// controller overhead plus the slowest fragment's drained latency. Any
// other request runs Submit at time zero on Reset members, which are
// Reset again afterwards.
//
//tracelint:hotpath
func (a *Array) DrainedLatency(r trace.Request) time.Duration {
	chunk := r.LBA / a.sectorsPerChunk
	offsetInChunk := r.LBA - chunk*a.sectorsPerChunk
	members := uint64(a.cfg.Members)
	if offsetInChunk+uint64(r.Sectors) > members*a.sectorsPerChunk {
		a.Reset()
		lat := a.Submit(0, r).Complete
		a.Reset()
		return lat
	}
	// The fragments Submit would issue, walked chunk by chunk: after the
	// first, each starts a chunk on the next member, wrapping to the
	// next member-local chunk after the last member.
	localChunk := chunk / members
	member := chunk - localChunk*members
	var slowest time.Duration
	for remaining := uint64(r.Sectors); remaining > 0; {
		n := min(a.sectorsPerChunk-offsetInChunk, remaining)
		m := a.members[member]
		localLBA := localChunk*a.sectorsPerChunk + offsetInChunk
		lat, ok := m.closedForm(localLBA, uint32(n), r.Op)
		if !ok {
			lat = m.drainedSubmit(trace.Request{Device: r.Device, LBA: localLBA, Sectors: uint32(n), Op: r.Op})
		}
		slowest = max(slowest, lat)
		remaining -= n
		offsetInChunk = 0
		if member++; member == members {
			member, localChunk = 0, localChunk+1
		}
	}
	return a.cfg.CtrlOverhead + slowest
}

// Reset implements Device.
func (a *Array) Reset() {
	for _, m := range a.members {
		m.Reset()
	}
}

// Submit implements Device. The request is split at chunk boundaries;
// each fragment goes to its stripe member with the member-local LBA,
// and the request completes when the slowest fragment does.
//
//tracelint:hotpath
func (a *Array) Submit(at time.Duration, r trace.Request) Result {
	start := at
	issue := start + a.cfg.CtrlOverhead
	complete := issue

	lba := r.LBA
	remaining := uint64(r.Sectors)
	for remaining > 0 {
		chunk := lba / a.sectorsPerChunk
		member := int(chunk % uint64(a.cfg.Members))
		offsetInChunk := lba % a.sectorsPerChunk
		n := a.sectorsPerChunk - offsetInChunk
		if n > remaining {
			n = remaining
		}
		// Member-local address: collapse the stripe so member LBAs
		// stay dense (standard RAID-0 addressing).
		localChunk := chunk / uint64(a.cfg.Members)
		localLBA := localChunk*a.sectorsPerChunk + offsetInChunk
		res := a.members[member].Submit(issue, trace.Request{
			Arrival: issue,
			Device:  r.Device,
			LBA:     localLBA,
			Sectors: uint32(n),
			Op:      r.Op,
		})
		if res.Complete > complete {
			complete = res.Complete
		}
		lba += n
		remaining -= n
	}
	return Result{Start: start, Complete: complete}
}
