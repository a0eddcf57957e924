package workload

import (
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/device"
	"repro/internal/replay"
	"repro/internal/trace"
)

// GenOptions controls application synthesis.
type GenOptions struct {
	// Ops is the number of I/O operations to generate (default 5000).
	Ops int
	// Seed makes generation reproducible; TraceSeed derives per-trace
	// seeds for multi-trace families.
	Seed int64
	// DiurnalOps, when nonzero, modulates activity with a day/night
	// cycle of this many operations: around the cycle's trough the
	// workload idles more often and longer (production servers show
	// exactly this structure; the MSRC captures span a full week).
	DiurnalOps int
	// DiurnalAmplitude scales the modulation depth in (0,1]; default
	// 0.8 when DiurnalOps is set.
	DiurnalAmplitude float64
}

func (o GenOptions) withDefaults() GenOptions {
	if o.Ops == 0 {
		o.Ops = 5000
	}
	return o
}

// TraceSeed derives a stable seed for trace index i of a family, so
// corpus sweeps regenerate identical traces run over run.
func TraceSeed(family string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(family))
	h.Write([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// sizeMix returns the discrete request-size mixture (sectors) whose
// mean matches the profile's AvgKB: a small anchor (4 KB, the page
// size every corpus is dominated by) and a large anchor (next power of
// two >= 2*AvgKB), mixed to hit the mean, plus a middle size for
// realism. Two-plus sizes per op type are exactly what the inference
// model's β/η estimation needs.
func sizeMix(avgKB float64) (sizes []uint32, weights []float64) {
	const loKB = 4.0
	hiKB := 8.0
	for hiKB < 2*avgKB {
		hiKB *= 2
	}
	midKB := hiKB / 2
	if midKB <= loKB {
		midKB = loKB * 2
		if hiKB <= midKB {
			hiKB = midKB * 2
		}
	}
	// Solve wLo*lo + wMid*mid + wHi*hi = avg with wMid fixed at 0.15.
	const wMid = 0.15
	rem := 1 - wMid
	target := avgKB - wMid*midKB
	// wLo*lo + (rem-wLo)*hi = target
	wLo := (rem*hiKB - target) / (hiKB - loKB)
	if wLo < 0.05 {
		wLo = 0.05
	}
	if wLo > rem-0.05 {
		wLo = rem - 0.05
	}
	wHi := rem - wLo
	toSectors := func(kb float64) uint32 { return uint32(kb * 1024 / trace.SectorSize) }
	return []uint32{toSectors(loKB), toSectors(midKB), toSectors(hiKB)},
		[]float64{wLo, wMid, wHi}
}

// pick draws an index from weights.
func pick(rng *rand.Rand, weights []float64) int {
	x := rng.Float64()
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// Generate synthesizes the application behaviour for one trace of the
// family: LBA stream with the profile's sequentiality, read/write and
// size mixture, async bursts, and the three-bucket idle structure. The
// result runs against any device via replay.App.Execute.
func Generate(p Profile, opts GenOptions) *replay.App {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	sizes, weights := sizeMix(p.AvgKB)

	workingSectors := uint64(p.WorkingSetGB * 1e9 / trace.SectorSize)
	if workingSectors < 1<<20 {
		workingSectors = 1 << 20
	}
	app := &replay.App{Name: p.Name}
	lba := uint64(rng.Int63n(int64(workingSectors)))
	asyncRun := 0
	for i := 0; i < opts.Ops; i++ {
		op := trace.Write
		if rng.Float64() < p.ReadFrac {
			op = trace.Read
		}
		sz := sizes[pick(rng, weights)]
		if rng.Float64() < p.SeqFrac && i > 0 {
			// continue the sequential run: lba already points at the
			// end of the previous request
		} else {
			lba = uint64(rng.Int63n(int64(workingSectors)))
		}
		// Diurnal modulation: phase 0 is midday (busy), phase π the
		// night trough where idles are more frequent and longer.
		nightness := 0.0
		if opts.DiurnalOps > 0 {
			amp := opts.DiurnalAmplitude
			if amp == 0 {
				amp = 0.8
			}
			phase := 2 * math.Pi * float64(i) / float64(opts.DiurnalOps)
			nightness = amp * (1 - math.Cos(phase)) / 2 // 0 midday .. amp midnight
		}
		idleFreq := p.IdleFreq * (1 + nightness)
		if idleFreq > 1 {
			idleFreq = 1
		}
		think := time.Duration(0)
		if rng.Float64() < idleFreq {
			think = p.drawIdle(rng)
			if nightness > 0 {
				think += time.Duration(float64(think) * 2 * nightness)
			}
		}
		// Async bursts: geometric runs so bursts look like real
		// asynchronous flushes rather than independent coin flips.
		sync := true
		if asyncRun > 0 {
			sync = false
			asyncRun--
		} else if rng.Float64() < p.AsyncFrac/3 {
			sync = false
			asyncRun = 2 + rng.Intn(6)
			think = 0 // bursts are back-to-back
		}
		app.Ops = append(app.Ops, replay.AppOp{
			LBA:     lba,
			Sectors: sz,
			Op:      op,
			Think:   think,
			Sync:    sync,
		})
		lba += uint64(sz)
		if lba >= workingSectors {
			lba = 0
		}
	}
	return app
}

// Collect generates one application of family p and executes it on
// dev the way p's corpus was collected: the trace carries p's Set and
// TsdevKnown, and a Tsdev-unknown (FIU) collection recorded no
// completions, so every Latency is cleared. The result's Think is the
// ground truth either way.
func Collect(p Profile, opts GenOptions, dev device.Device) replay.ExecResult {
	res := Generate(p, opts).Execute(dev)
	res.Trace.Set = p.Set
	res.Trace.TsdevKnown = p.TsdevKnown
	if !p.TsdevKnown {
		for i := range res.Trace.Requests {
			res.Trace.Requests[i].Latency = 0
		}
	}
	return res
}

// drawIdle samples one think time from the profile's three-bucket idle
// mixture: 0–10 ms log-uniform, 10–100 ms log-uniform, and an
// exponential >100 ms component with mean LongIdleMean.
func (p Profile) drawIdle(rng *rand.Rand) time.Duration {
	x := rng.Float64()
	switch {
	case x < p.IdleShortFrac:
		// 0.2–10 ms, log-uniform
		return logUniform(rng, 200*time.Microsecond, 10*time.Millisecond)
	case x < p.IdleShortFrac+p.IdleMidFrac:
		// 10–100 ms, log-uniform
		return logUniform(rng, 10*time.Millisecond, 100*time.Millisecond)
	default:
		mean := float64(p.LongIdleMean - 100*time.Millisecond)
		if mean < float64(100*time.Millisecond) {
			mean = float64(100 * time.Millisecond)
		}
		return 100*time.Millisecond + time.Duration(rng.ExpFloat64()*mean)
	}
}

func logUniform(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	llo, lhi := math.Log(float64(lo)), math.Log(float64(hi))
	return time.Duration(math.Exp(llo + rng.Float64()*(lhi-llo)))
}

// ExpectedIdleMean returns the analytic mean idle period of the
// profile's mixture (for calibration tests against Fig 16).
func (p Profile) ExpectedIdleMean() time.Duration {
	shortMean := logUniformMean(200*time.Microsecond, 10*time.Millisecond)
	midMean := logUniformMean(10*time.Millisecond, 100*time.Millisecond)
	longMean := float64(p.LongIdleMean)
	if longMean < float64(200*time.Millisecond) {
		longMean = float64(200 * time.Millisecond)
	}
	m := p.IdleShortFrac*shortMean + p.IdleMidFrac*midMean + p.IdleLongFrac*longMean
	return time.Duration(m)
}

func logUniformMean(lo, hi time.Duration) float64 {
	a, b := float64(lo), float64(hi)
	return (b - a) / math.Log(b/a)
}
