package device

import (
	"math"
	"time"

	"repro/internal/trace"
)

// HDDConfig parameterizes the rotating-disk model. The defaults
// (DefaultHDDConfig) approximate the 7200rpm enterprise SATA disk class
// the paper calibrates Tmovd on (WD Blue-era): the model follows
// Ruemmler & Wilkes, "An Introduction to Disk Drive Modeling" (the
// paper's reference [21]): a square-root-plus-linear seek curve,
// rotational positioning from actual angular position, media transfer
// at the track rate, and an interface (channel) delay.
type HDDConfig struct {
	// Capacity geometry.
	TotalSectors    uint64
	SectorsPerTrack uint64
	TracksPerCyl    uint64 // surfaces (heads)

	// Rotation.
	RPM float64

	// Seek curve: SeekMin for a single-cylinder move, SeekMax for a
	// full-stroke move. Short seeks follow sqrt, long seeks linear,
	// blended per Ruemmler–Wilkes.
	SeekMin time.Duration
	SeekMax time.Duration

	// Interface (channel): fixed per-request command overhead plus
	// payload transfer at InterfaceBps. This is the model's Tcdel.
	CmdOverhead  time.Duration
	InterfaceBps float64

	// WriteCache: when true, writes complete after the channel
	// transfer and a small cache insertion delay; media work still
	// occupies the mechanism (destage), matching write-back caching
	// on the traced systems.
	WriteCache     bool
	CacheInsertion time.Duration
}

// DefaultHDDConfig returns the 7200rpm SATA profile used as the OLD
// system in all experiments.
func DefaultHDDConfig() HDDConfig {
	return HDDConfig{
		TotalSectors:    976773168, // ~500 GB
		SectorsPerTrack: 1024,
		TracksPerCyl:    4,
		RPM:             7200,
		SeekMin:         800 * time.Microsecond,
		SeekMax:         16 * time.Millisecond,
		CmdOverhead:     20 * time.Microsecond,
		InterfaceBps:    300e6, // SATA-II ~300 MB/s
		WriteCache:      false,
		CacheInsertion:  30 * time.Microsecond,
	}
}

// HDD is a deterministic rotating-disk simulator implementing Device.
type HDD struct {
	cfg HDDConfig

	rotPeriod  time.Duration
	sectorTime time.Duration
	cylinders  uint64

	// mechanism state
	busyUntil time.Duration
	headCyl   uint64
	lastEnd   uint64
	hasPos    bool
}

// NewHDD builds an HDD from cfg; zero-valued fields fall back to
// DefaultHDDConfig values so partial configs stay usable.
func NewHDD(cfg HDDConfig) *HDD {
	def := DefaultHDDConfig()
	if cfg.TotalSectors == 0 {
		cfg.TotalSectors = def.TotalSectors
	}
	if cfg.SectorsPerTrack == 0 {
		cfg.SectorsPerTrack = def.SectorsPerTrack
	}
	if cfg.TracksPerCyl == 0 {
		cfg.TracksPerCyl = def.TracksPerCyl
	}
	if cfg.RPM == 0 {
		cfg.RPM = def.RPM
	}
	if cfg.SeekMin == 0 {
		cfg.SeekMin = def.SeekMin
	}
	if cfg.SeekMax == 0 {
		cfg.SeekMax = def.SeekMax
	}
	if cfg.CmdOverhead == 0 {
		cfg.CmdOverhead = def.CmdOverhead
	}
	if cfg.InterfaceBps == 0 {
		cfg.InterfaceBps = def.InterfaceBps
	}
	if cfg.CacheInsertion == 0 {
		cfg.CacheInsertion = def.CacheInsertion
	}
	h := &HDD{cfg: cfg}
	h.rotPeriod = time.Duration(60 / cfg.RPM * float64(time.Second))
	h.sectorTime = h.rotPeriod / time.Duration(cfg.SectorsPerTrack)
	h.cylinders = cfg.TotalSectors / (cfg.SectorsPerTrack * cfg.TracksPerCyl)
	if h.cylinders == 0 {
		h.cylinders = 1
	}
	return h
}

// Name implements Device.
func (h *HDD) Name() string { return "hdd-7200rpm" }

// Reset implements Device.
func (h *HDD) Reset() {
	h.busyUntil = 0
	h.headCyl = 0
	h.lastEnd = 0
	h.hasPos = false
}

// cylinderOf maps an LBA to its cylinder.
func (h *HDD) cylinderOf(lba uint64) uint64 {
	c := lba / (h.cfg.SectorsPerTrack * h.cfg.TracksPerCyl)
	if c >= h.cylinders {
		c = h.cylinders - 1
	}
	return c
}

// seekTime follows the Ruemmler–Wilkes blend: the arm accelerates for
// short strokes (sqrt regime) and coasts for long strokes (linear
// regime). A 70/30 sqrt/linear mix stays monotone in distance and is
// bounded by [SeekMin, SeekMax].
func (h *HDD) seekTime(from, to uint64) time.Duration {
	if from == to {
		return 0
	}
	dist := float64(to) - float64(from)
	if dist < 0 {
		dist = -dist
	}
	frac := dist / float64(h.cylinders)
	if frac > 1 {
		frac = 1
	}
	blend := 0.7*math.Sqrt(frac) + 0.3*frac
	t := float64(h.cfg.SeekMin) + (float64(h.cfg.SeekMax)-float64(h.cfg.SeekMin))*blend
	return time.Duration(t)
}

// rotationalDelay computes the wait for the target sector to come under
// the head given the platter's angular position at time t.
func (h *HDD) rotationalDelay(t time.Duration, lba uint64) time.Duration {
	sectorInTrack := lba % h.cfg.SectorsPerTrack
	targetAngle := float64(sectorInTrack) / float64(h.cfg.SectorsPerTrack)
	nowAngle := float64(t%h.rotPeriod) / float64(h.rotPeriod)
	delta := targetAngle - nowAngle
	if delta < 0 {
		delta++
	}
	return time.Duration(delta * float64(h.rotPeriod))
}

// Submit implements Device.
func (h *HDD) Submit(at time.Duration, r trace.Request) Result {
	// Channel: command + payload transfer. For writes the payload
	// crosses the channel before media work; for reads after. Either
	// way it contributes the same Tcdel to the host-visible latency,
	// so the model charges it up front.
	tcdel := h.cfg.CmdOverhead + bytesDuration(r.Bytes(), h.cfg.InterfaceBps)

	start := at
	if h.busyUntil > start {
		start = h.busyUntil
	}
	mediaStart := start + tcdel

	seq := h.hasPos && r.LBA == h.lastEnd
	var positioning time.Duration
	if !seq {
		cyl := h.cylinderOf(r.LBA)
		sk := h.seekTime(h.headCyl, cyl)
		positioning = sk + h.rotationalDelay(mediaStart+sk, r.LBA)
	}
	transfer := time.Duration(r.Sectors) * h.sectorTime

	mediaDone := mediaStart + positioning + transfer
	h.headCyl = h.cylinderOf(r.End())
	h.lastEnd = r.End()
	h.hasPos = true
	h.busyUntil = mediaDone

	complete := mediaDone
	if r.Op == trace.Write && h.cfg.WriteCache {
		complete = start + tcdel + h.cfg.CacheInsertion
		// Mechanism still owes the destage time (busyUntil above).
		if complete > mediaDone {
			complete = mediaDone
		}
	}
	return Result{Start: start, Complete: complete}
}
