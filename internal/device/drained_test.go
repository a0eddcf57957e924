package device

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// drainedCase decodes a fuzz input into a shard-safe device maker, the
// request under test and a synchronous prefix. geom and timing are bit
// fields, so every value is a valid geometry with positive timings:
//
//	geom   bits 0-4 channels-1, 5-6 dies-1, 7-8 planes-1, 9-10 page size
//	       (4, 8, 16 or 32 KiB), 11-13 members-1, 14-16 chunk size
//	       (4 KiB << n)
//	timing bits 0-7 tR µs-1, 8-18 tPROG µs-1, 19-24 command overhead
//	       µs-1, 25-30 controller overhead µs-1, 31-40 channel MB/s-50,
//	       41-53 link MB/s-500
//
// The request is sized up to four stripes (Channels pages on an SSD,
// Members chunks on an array), so both closed forms and both fallbacks
// are reached. Each 6-byte prefix record is a 3-byte page-scaled LBA,
// a size byte, an op bit and an idle byte in microseconds.
func drainedCase(array bool, geom uint32, timing uint64, lba uint64, sectors uint32, write bool, prefix []byte) (func() ShardSafe, trace.Request, []trace.Request, []time.Duration) {
	bits := func(v uint64, lo, n uint) uint64 { return v >> lo & (1<<n - 1) }
	g := uint64(geom)
	ssd := SSDConfig{
		Channels:       int(bits(g, 0, 5)) + 1,
		DiesPerChan:    int(bits(g, 5, 2)) + 1,
		PlanesPerDie:   int(bits(g, 7, 2)) + 1,
		PageKB:         4 << bits(g, 9, 2),
		ReadLatency:    time.Duration(bits(timing, 0, 8)+1) * time.Microsecond,
		ProgramLatency: time.Duration(bits(timing, 8, 11)+1) * time.Microsecond,
		CmdOverhead:    time.Duration(bits(timing, 19, 6)+1) * time.Microsecond,
		ChannelBps:     float64(bits(timing, 31, 10)+50) * 1e6,
		LinkBps:        float64(bits(timing, 41, 13)+500) * 1e6,
	}
	arr := ArrayConfig{
		Members:      int(bits(g, 11, 3)) + 1,
		ChunkKB:      4 << bits(g, 14, 3),
		SSD:          ssd,
		CtrlOverhead: time.Duration(bits(timing, 25, 6)+1) * time.Microsecond,
	}
	pageSectors := uint64(ssd.PageKB) * 1024 / trace.SectorSize
	stripe := uint64(ssd.Channels) * pageSectors
	mk := func() ShardSafe { return NewSSD(ssd) }
	if array {
		stripe = uint64(arr.Members) * uint64(arr.ChunkKB) * 1024 / trace.SectorSize
		mk = func() ShardSafe { return NewArray(arr) }
	}
	op := trace.Read
	if write {
		op = trace.Write
	}
	r := req(lba%(1<<40), uint32(uint64(sectors)%(4*stripe))+1, op)

	var pre []trace.Request
	var idle []time.Duration
	for len(prefix) >= 6 && len(pre) < 64 {
		p := prefix[:6]
		prefix = prefix[6:]
		plba := uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16
		pre = append(pre, req(plba*pageSectors, uint32(uint64(p[3])*pageSectors/4)+1, trace.Op(p[4]&1)))
		idle = append(idle, time.Duration(p[5])*time.Microsecond)
	}
	return mk, r, pre, idle
}

// FuzzDrainedLatency pins what replay.EmulateEpoch relies on when it
// takes a shard-safe device's latencies from DrainedLatency instead of
// Submit: after any synchronous prefix, DrainedLatency(r) equals
// Submit(at, r).Complete - at for every at at or after the prefix's
// end, and a DrainedLatency call leaves a fresh device as fresh — so a
// fallback that runs Submit at time zero cannot leak busy state into a
// later Submit.
//
//	go test -run '^$' -fuzz '^FuzzDrainedLatency$' -fuzztime 30s -fuzzminimizetime 2s ./internal/device
func FuzzDrainedLatency(f *testing.F) {
	f.Add(false, uint32(0), uint64(0), uint64(0), uint32(0), false, uint32(0), []byte(nil))
	f.Fuzz(func(t *testing.T, array bool, geom uint32, timing uint64, lba uint64, sectors uint32, write bool, gap uint32, prefix []byte) {
		mk, r, pre, idle := drainedCase(array, geom, timing, lba, sectors, write, prefix)

		dev := mk()
		var end time.Duration
		for i, p := range pre {
			end += idle[i]
			end = dev.Submit(end, p).Complete
		}
		at := end + time.Duration(gap)
		want := dev.Submit(at, r).Complete - at
		if lat := dev.DrainedLatency(r); lat != want {
			t.Fatalf("%s after %d-request prefix: DrainedLatency(%+v) = %v, Submit at %v took %v",
				dev.Name(), len(pre), r, lat, at, want)
		}

		// A burst at time zero after DrainedLatency on a fresh device:
		// any busy state the call left behind would delay it.
		used, fresh := mk(), mk()
		used.DrainedLatency(r)
		if !reflect.DeepEqual(used, fresh) {
			t.Fatalf("%s: DrainedLatency(%+v) changed a fresh device", used.Name(), r)
		}
		for _, p := range append(pre, r) {
			if got, want := used.Submit(0, p), fresh.Submit(0, p); got != want {
				t.Fatalf("%s: Submit(0, %+v) after DrainedLatency = %+v, on a fresh device %+v", used.Name(), p, got, want)
			}
		}
	})
}
