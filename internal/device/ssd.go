package device

import (
	"time"

	"repro/internal/trace"
)

// SSDConfig parameterizes the NVMe flash simulator. The defaults
// (DefaultSSDConfig) follow the Intel SSD 750-class device the paper's
// evaluation node uses: 400 GB, 18 channels, 36 dies (2 per channel),
// 72 planes (2 per die), attached over PCIe 3.0 x4.
type SSDConfig struct {
	Channels     int
	DiesPerChan  int
	PlanesPerDie int
	PageKB       int // flash page size

	// Flash timing.
	ReadLatency    time.Duration // tR: cell array -> page register
	ProgramLatency time.Duration // tPROG: page register -> cells
	ChannelBps     float64       // per-channel flash bus bandwidth

	// Host interface (NVMe over PCIe): per-command overhead and link
	// bandwidth. This is the model's Tcdel.
	CmdOverhead time.Duration
	LinkBps     float64
}

// DefaultSSDConfig returns the Intel 750-class profile: with four of
// these striped (see Array), aggregate read bandwidth lands near the
// 9 GB/s the paper reports and write bandwidth near 4 GB/s.
func DefaultSSDConfig() SSDConfig {
	return SSDConfig{
		Channels:       18,
		DiesPerChan:    2,
		PlanesPerDie:   2,
		PageKB:         8,
		ReadLatency:    50 * time.Microsecond,
		ProgramLatency: 600 * time.Microsecond,
		ChannelBps:     160e6, // ONFI-class flash bus
		CmdOverhead:    8 * time.Microsecond,
		LinkBps:        3.2e9, // PCIe 3.0 x4 effective
	}
}

// SSD is a deterministic flash-array simulator implementing Device.
// Requests are split into pages; pages stripe round-robin across
// channels, then dies, then planes, so large requests exploit the full
// internal parallelism while small requests see single-die latency —
// the behaviour that separates Tsdev on the NEW system from the OLD.
type SSD struct {
	cfg            SSDConfig
	sectorsPerPage uint64
	// pageXfer is the channel transfer time of one page, and linkNsPerB
	// the host-link nanoseconds per byte — both Submit-loop constants
	// hoisted out of the per-request path.
	pageXfer   time.Duration
	linkNsPerB float64

	// busy-until trackers, indexed [channel] and
	// [(channel*dies+die)*planes+plane]: a die with multiple planes
	// overlaps the array time of pages mapped to different planes.
	chanBusy  []time.Duration
	planeBusy []time.Duration
}

// NewSSD builds an SSD from cfg, defaulting zero fields.
func NewSSD(cfg SSDConfig) *SSD {
	def := DefaultSSDConfig()
	if cfg.Channels == 0 {
		cfg.Channels = def.Channels
	}
	if cfg.DiesPerChan == 0 {
		cfg.DiesPerChan = def.DiesPerChan
	}
	if cfg.PlanesPerDie == 0 {
		cfg.PlanesPerDie = def.PlanesPerDie
	}
	if cfg.PageKB == 0 {
		cfg.PageKB = def.PageKB
	}
	if cfg.ReadLatency == 0 {
		cfg.ReadLatency = def.ReadLatency
	}
	if cfg.ProgramLatency == 0 {
		cfg.ProgramLatency = def.ProgramLatency
	}
	if cfg.ChannelBps == 0 {
		cfg.ChannelBps = def.ChannelBps
	}
	if cfg.CmdOverhead == 0 {
		cfg.CmdOverhead = def.CmdOverhead
	}
	if cfg.LinkBps == 0 {
		cfg.LinkBps = def.LinkBps
	}
	s := &SSD{
		cfg:            cfg,
		sectorsPerPage: uint64(cfg.PageKB) * 1024 / trace.SectorSize,
		pageXfer:       bytesDuration(int64(cfg.PageKB)*1024, cfg.ChannelBps),
		linkNsPerB:     nsPerByte(cfg.LinkBps),
	}
	s.Reset()
	return s
}

// Name implements Device.
func (s *SSD) Name() string { return "nvme-ssd" }

// DrainedLatency implements ShardSafe: all SSD state is busy-until
// tracking bounded by the last completion.
//
//tracelint:hotpath
func (s *SSD) DrainedLatency(r trace.Request) time.Duration {
	if lat, ok := s.closedForm(r.LBA, r.Sectors, r.Op); ok {
		return lat
	}
	return s.drainedSubmit(r)
}

// closedForm is DrainedLatency of a request of sectors at lba, when its
// pages span at most Channels. Every page then lands on its own
// channel, die and plane, so on a drained device the pages run side by
// side and the latency is one page's path behind the host link.
func (s *SSD) closedForm(lba uint64, sectors uint32, op trace.Op) (time.Duration, bool) {
	if sectors == 0 || lba%s.sectorsPerPage+uint64(sectors) > uint64(s.cfg.Channels)*s.sectorsPerPage {
		return 0, false
	}
	tcdel := s.cfg.CmdOverhead + time.Duration(float64(int64(sectors)*trace.SectorSize)*s.linkNsPerB)
	if op == trace.Read {
		return tcdel + s.cfg.ReadLatency + s.pageXfer, true
	}
	return tcdel + s.pageXfer + s.cfg.ProgramLatency, true
}

// drainedSubmit is DrainedLatency of any request: Submit at time zero
// on cleared busy arrays, which are cleared again afterwards.
func (s *SSD) drainedSubmit(r trace.Request) time.Duration {
	s.Reset()
	lat := s.Submit(0, r).Complete
	s.Reset()
	return lat
}

// Reset implements Device. The busy arrays are cleared in place, so a
// per-shard Reset in the parallel engine costs no allocation.
func (s *SSD) Reset() {
	if s.chanBusy == nil {
		s.chanBusy = make([]time.Duration, s.cfg.Channels)
		s.planeBusy = make([]time.Duration, s.cfg.Channels*s.cfg.DiesPerChan*s.cfg.PlanesPerDie)
		return
	}
	clear(s.chanBusy)
	clear(s.planeBusy)
}

// geometryOf maps a flash page number to (channel, die, plane) with
// channel-first striping.
func (s *SSD) geometryOf(page uint64) (ch, die, plane int) {
	ch = int(page % uint64(s.cfg.Channels))
	die = int(page / uint64(s.cfg.Channels) % uint64(s.cfg.DiesPerChan))
	plane = int(page / uint64(s.cfg.Channels) / uint64(s.cfg.DiesPerChan) % uint64(s.cfg.PlanesPerDie))
	return ch, die, plane
}

// Submit implements Device.
//
//tracelint:hotpath
func (s *SSD) Submit(at time.Duration, r trace.Request) Result {
	start := at
	// Host link: command processing + payload on the PCIe link. NVMe
	// queues are deep; the link itself is the only serialized stage.
	tcdel := s.cfg.CmdOverhead + time.Duration(float64(r.Bytes())*s.linkNsPerB)
	dataAt := start + tcdel

	firstPage := r.LBA / s.sectorsPerPage
	lastPage := (r.End() - 1) / s.sectorsPerPage
	pageXfer := s.pageXfer

	complete := dataAt
	for p := firstPage; p <= lastPage; p++ {
		ch, die, plane := s.geometryOf(p)
		pi := (ch*s.cfg.DiesPerChan+die)*s.cfg.PlanesPerDie + plane
		var done time.Duration
		if r.Op == trace.Read {
			// Array read on the plane, then page out over the channel.
			cellStart := maxDur(dataAt, s.planeBusy[pi])
			cellDone := cellStart + s.cfg.ReadLatency
			xferStart := maxDur(cellDone, s.chanBusy[ch])
			done = xferStart + pageXfer
			s.planeBusy[pi] = cellDone
			s.chanBusy[ch] = done
		} else {
			// Page in over the channel, then program on the plane.
			xferStart := maxDur(dataAt, s.chanBusy[ch])
			xferDone := xferStart + pageXfer
			progStart := maxDur(xferDone, s.planeBusy[pi])
			done = progStart + s.cfg.ProgramLatency
			s.chanBusy[ch] = xferDone
			s.planeBusy[pi] = done
		}
		if done > complete {
			complete = done
		}
	}
	return Result{Start: start, Complete: complete}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
