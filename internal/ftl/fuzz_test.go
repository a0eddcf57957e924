package ftl_test

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/ftl"
	"repro/internal/trace"
)

// deviceLane wraps a new device.FTLDevice for ftl.Adversary's device
// lane.
func deviceLane(cfg ftl.Config) ftl.Lane {
	d := device.NewFTLDevice(cfg)
	return ftl.Lane{
		FTL: d.FTL(),
		Submit: func(at time.Duration, r trace.Request) (time.Duration, time.Duration) {
			res := d.Submit(at, r)
			return res.Start, res.Complete
		},
		Reset: d.Reset,
	}
}

// TestFTLVsOracle is the generated-adversary property test: 40 random
// geometries x 20k ops each, every duration, error, page span and
// Stats — direct and through device.FTLDevice — equal to the reference
// model's.
func TestFTLVsOracle(t *testing.T) {
	cases, ops := 40, 20_000
	if testing.Short() {
		cases, ops = 8, 4_000
	}
	var total ftl.Outcome
	for seed := int64(1); seed <= int64(cases); seed++ {
		out := ftl.Adversary(t, ftl.AdversaryBytes(seed, ops), deviceLane)
		s := &total.Stats
		s.HostWrites += out.Stats.HostWrites
		s.Erases += out.Stats.Erases
		s.ForegroundGC += out.Stats.ForegroundGC
		s.BackgroundGC += out.Stats.BackgroundGC
		total.Hops += out.Hops
		total.Errors += out.Errors
		total.Full += out.Full
	}
	s := total.Stats
	if s.Erases == 0 || s.ForegroundGC == 0 || s.BackgroundGC == 0 || total.Errors == 0 || total.Hops == 0 {
		t.Fatalf("fixture too tame: %+v", total)
	}
	t.Logf("%d cases x %d ops: %d host writes, %d erases, %d foreground and %d background GC rounds, %d write errors (%d ErrFull), %d reset hops",
		cases, ops, s.HostWrites, s.Erases, s.ForegroundGC, s.BackgroundGC, total.Errors, total.Full, total.Hops)
}

// FuzzFTLVsOracle exposes the same driver to the fuzzer; the seed
// corpus under testdata/fuzz covers the smallest and largest
// geometries, both non-power-of-two block sizes, 6 KiB pages, 1%
// overprovisioning written end to end (where writes meet ErrFull),
// negative and lapping lpns and LBAs, long spans, idle-heavy and
// idle-free runs, and reset hops every few ops.
func FuzzFTLVsOracle(f *testing.F) {
	f.Add(ftl.AdversaryBytes(99, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > ftl.AdversaryHeader+4096*ftl.AdversaryOp {
			t.Skip("long inputs add time, not coverage")
		}
		ftl.Adversary(t, data, deviceLane)
	})
}
