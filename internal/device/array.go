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

// ShardSafe implements ShardSafe: striping is stateless and the
// members are shard-safe SSDs.
func (a *Array) ShardSafe() bool { return true }

// Reset implements Device.
func (a *Array) Reset() {
	for _, m := range a.members {
		m.Reset()
	}
}

// Submit implements Device. The request is split at chunk boundaries;
// each fragment goes to its stripe member with the member-local LBA,
// and the request completes when the slowest fragment does.
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
