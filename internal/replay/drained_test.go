package replay_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workload"
)

// submitLoop is the emulation loop as it ran before shard-safe devices
// declared their drained latency: every request goes through Submit,
// whatever the device. It is the oracle EmulateEpoch is held to.
func submitLoop(dst, reqs []trace.Request, dev device.Device, idle []time.Duration, async []bool, start time.Duration) (end, shiftDelta time.Duration) {
	now := start
	for i, r := range reqs {
		if idle != nil {
			now += idle[i]
		}
		req := r
		req.Arrival = now
		res := dev.Submit(now, req)
		if dst != nil {
			req.Latency = res.Complete - now
			req.Async = false
			dst[i] = req
		}
		if async != nil && async[i] {
			if reduction := (res.Complete - now) - replay.SubmissionGap; reduction > 0 {
				shiftDelta += reduction
			}
		}
		now = res.Complete
	}
	return now, shiftDelta
}

// shardSafeDevices are the targets EmulateEpoch runs in closed form:
// the SSD, the default array, and an array of three members with 4 KiB
// chunks, where a request of a few pages wraps the stripe and requests
// of more than three chunks take the fallback.
func shardSafeDevices() map[string]func() device.Device {
	wrap := device.DefaultArrayConfig()
	wrap.Members, wrap.ChunkKB = 3, 4
	return map[string]func() device.Device{
		"ssd":        func() device.Device { return device.NewSSD(device.DefaultSSDConfig()) },
		"array":      func() device.Device { return device.NewArray(device.DefaultArrayConfig()) },
		"array-wrap": func() device.Device { return device.NewArray(wrap) },
	}
}

// TestEmulateEpochMatchesSubmitLoop holds the closed-form loop to the
// Submit loop on every workload family and every shard-safe target, with
// idle nil (closed-loop replay) or inferred from the recorded latencies
// and async nil or the decomposition's flags: the same records, end and
// shiftDelta over the whole trace; the same when the run is threaded
// through random epoch cuts on one device; and, for each epoch emulated
// on its own device from time zero, the same span shifted by the
// preceding end — the invariance the engine's workers rest on.
func TestEmulateEpochMatchesSubmitLoop(t *testing.T) {
	const ops = 600
	profiles := append(workload.Profiles(), workload.Exchange())
	rng := rand.New(rand.NewSource(38))
	for _, p := range profiles {
		app := workload.Generate(p, workload.GenOptions{Ops: ops, Seed: workload.TraceSeed(p.Name, 0)})
		old := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
		inferred, flags := infer.Decompose(nil, old)
		reqs := old.Requests
		cuts := []int{0}
		for c := rng.Intn(40) + 1; c < len(reqs); c += rng.Intn(120) + 1 {
			cuts = append(cuts, c)
		}
		cuts = append(cuts, len(reqs))
		for name, mk := range shardSafeDevices() {
			for _, idle := range [][]time.Duration{nil, inferred} {
				for _, async := range [][]bool{nil, flags} {
					label := fmt.Sprintf("%s/%s/idle=%t/async=%t", p.Name, name, idle != nil, async != nil)
					want := make([]trace.Request, len(reqs))
					wantEnd, wantShift := submitLoop(want, reqs, mk(), idle, async, 0)

					got := make([]trace.Request, len(reqs))
					if end, shift := replay.EmulateEpoch(got, reqs, mk(), idle, async, 0); end != wantEnd || shift != wantShift {
						t.Fatalf("%s: whole trace (end, shiftDelta) = (%v, %v), Submit loop (%v, %v)", label, end, shift, wantEnd, wantShift)
					}
					sameRecords(t, label+" whole trace", got, want, 0)

					threaded := make([]trace.Request, len(reqs))
					dev := mk()
					var now, shift time.Duration
					for c := 0; c+1 < len(cuts); c++ {
						lo, hi := cuts[c], cuts[c+1]
						end, delta := replay.EmulateEpoch(threaded[lo:hi], reqs[lo:hi], dev, slice(idle, lo, hi), slice(async, lo, hi), now)

						zero := make([]trace.Request, hi-lo)
						zEnd, zDelta := replay.EmulateEpoch(zero, reqs[lo:hi], mk(), slice(idle, lo, hi), slice(async, lo, hi), 0)
						if zEnd+now != end || zDelta != delta {
							t.Fatalf("%s: epoch [%d,%d) from zero (%v, %v), shifted by %v, threaded (%v, %v)", label, lo, hi, zEnd, zDelta, now, end, delta)
						}
						sameRecords(t, fmt.Sprintf("%s epoch [%d,%d) from zero", label, lo, hi), zero, want[lo:hi], now)
						now, shift = end, shift+delta
					}
					if now != wantEnd || shift != wantShift {
						t.Fatalf("%s: threaded (end, shiftDelta) = (%v, %v), Submit loop (%v, %v)", label, now, shift, wantEnd, wantShift)
					}
					sameRecords(t, label+" threaded", threaded, want, 0)
				}
			}
		}
	}
}

// slice returns s[lo:hi], or nil for a nil s.
func slice[T any](s []T, lo, hi int) []T {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}

// sameRecords fails unless got, with every arrival shifted by offset,
// equals want.
func sameRecords(t *testing.T, label string, got, want []trace.Request, offset time.Duration) {
	t.Helper()
	for i := range want {
		g := got[i]
		g.Arrival += offset
		if g != want[i] {
			t.Fatalf("%s: request %d diverges:\n got %+v\nwant %+v", label, i, g, want[i])
		}
	}
}

// BenchmarkEmulateEpoch prices the device pass of the emulation loop
// per request over the cold-array-bin input shape: a 200k-request
// MSNFS trace executed on the old HDD, idle periods decomposed from its
// recorded latencies. array and ssd take their latencies in closed form
// (device.ShardSafe); hdd is the Submit path of a serviced target.
//
//	go test -run '^$' -bench BenchmarkEmulateEpoch -benchmem ./internal/replay
func BenchmarkEmulateEpoch(b *testing.B) {
	p, _ := workload.Lookup("MSNFS")
	const family = "benchmark/MSNFS/200000"
	app := workload.Generate(p, workload.GenOptions{Ops: 200_000, Seed: workload.TraceSeed(family, 0)})
	old := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	idle, async := infer.Decompose(nil, old)
	dst := make([]trace.Request, len(old.Requests))
	for _, tc := range []struct {
		name string
		dev  device.Device
	}{
		{"array", device.NewArray(device.DefaultArrayConfig())},
		{"ssd", device.NewSSD(device.DefaultSSDConfig())},
		{"hdd", device.NewHDD(device.DefaultHDDConfig())},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.dev.Reset()
				replay.EmulateEpoch(dst, old.Requests, tc.dev, idle, async, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/req")
		})
	}
}
