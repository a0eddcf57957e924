package infer

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestEstimateMinGroupSamplesFiltering checks the fit's population
// floor at its boundary: a group needs minGroupSamples (16) samples
// before any pass may select it.
func TestEstimateMinGroupSamplesFiltering(t *testing.T) {
	for _, c := range []struct {
		n, largest int
		sparse     bool
	}{
		{n: 22, largest: 15, sparse: true},
		{n: 23, largest: 16},
		{n: 200, largest: 149},
	} {
		tr, _ := buildSynth(synthSpec{
			betaUS: 0.5, tcdelRUS: 20,
			readSizes: []uint32{8, 128},
			n:         c.n,
			seed:      3,
		})
		largest := 0
		for _, grp := range classifyRef(tr).Groups {
			largest = max(largest, grp.N())
		}
		if largest != c.largest {
			t.Fatalf("n=%d: largest group has %d samples, want %d", c.n, largest, c.largest)
		}
		_, err := Estimate(tr, EstimateOptions{})
		if c.sparse != errors.Is(err, ErrTooSparse) || !c.sparse && err != nil {
			t.Fatalf("n=%d: err = %v, want sparse=%v", c.n, err, c.sparse)
		}
	}
}

func TestEstimateWithJitterStillRecovers(t *testing.T) {
	// ±20% service jitter: coefficients must survive within 2x.
	spec := synthSpec{
		betaUS: 1.0, etaUS: 3.0,
		tcdelRUS: 25, tcdelWUS: 40,
		readSizes:  []uint32{8, 256},
		writeSizes: []uint32{8, 256},
		n:          12000,
		jitterUS:   10,
		seed:       23,
	}
	tr, _ := buildSynth(spec)
	m, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.BetaMicros < spec.betaUS/2 || m.BetaMicros > spec.betaUS*2 {
		t.Fatalf("β under jitter = %v, want ~%v", m.BetaMicros, spec.betaUS)
	}
	if m.EtaMicros < spec.etaUS/2 || m.EtaMicros > spec.etaUS*2 {
		t.Fatalf("η under jitter = %v, want ~%v", m.EtaMicros, spec.etaUS)
	}
}

func TestEstimateIdlesDoNotCorruptCoefficients(t *testing.T) {
	// Idles stretch some inter-arrivals by orders of magnitude; the
	// steepness analysis must still lock onto the service-time rise.
	spec := synthSpec{
		betaUS: 0.5, tcdelRUS: 20,
		readSizes: []uint32{8, 128},
		n:         10000,
		idleEvery: 5, // 20% of gaps carry +50ms
		idleUS:    50000,
		seed:      29,
	}
	tr, _ := buildSynth(spec)
	m, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.BetaMicros-spec.betaUS) > spec.betaUS*0.5 {
		t.Fatalf("β with idles = %v, want ~%v", m.BetaMicros, spec.betaUS)
	}
}

func TestDecomposeNeverNegative(t *testing.T) {
	spec := synthSpec{
		betaUS: 0.5, tcdelRUS: 20,
		readSizes: []uint32{8, 128},
		n:         3000,
		seed:      31,
	}
	tr, _ := buildSynth(spec)
	m, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idle, async := Decompose(m, tr)
	if len(idle) != tr.Len() || len(async) != tr.Len() {
		t.Fatal("length mismatch")
	}
	for i, d := range idle {
		if d < 0 {
			t.Fatalf("negative idle at %d: %v", i, d)
		}
	}
	if idle[0] != 0 {
		t.Fatal("idle[0] must be zero (no preceding gap)")
	}
	if async[len(async)-1] {
		t.Fatal("terminal instruction cannot be async-flagged")
	}
}

func TestDecomposeIdleBoundedByIntt(t *testing.T) {
	// Property: inferred idle before instruction i never exceeds the
	// inter-arrival that precedes it.
	spec := synthSpec{
		betaUS: 0.7, tcdelRUS: 15,
		readSizes: []uint32{8, 64},
		n:         4000,
		idleEvery: 7,
		idleUS:    9000,
		seed:      37,
	}
	tr, _ := buildSynth(spec)
	m, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idle, _ := Decompose(m, tr)
	for i := 1; i < tr.Len(); i++ {
		intt := tr.Requests[i].Arrival - tr.Requests[i-1].Arrival
		if idle[i] > intt {
			t.Fatalf("idle[%d]=%v exceeds preceding Tintt %v", i, idle[i], intt)
		}
	}
}

func TestModelFlatWriteFallback(t *testing.T) {
	// Uniform-size writes + two-size reads: writes use the flat path,
	// reads the coefficient path, and both yield positive Tslat.
	tr := &trace.Trace{}
	now := time.Duration(0)
	lba := uint64(0)
	for i := 0; i < 6000; i++ {
		var sz uint32
		var op trace.Op
		var slatUS float64
		switch i % 3 {
		case 0:
			op, sz, slatUS = trace.Read, 8, 20+0.5*8
		case 1:
			op, sz, slatUS = trace.Read, 128, 20+0.5*128
		default:
			op, sz, slatUS = trace.Write, 16, 70
		}
		tr.Requests = append(tr.Requests, trace.Request{Arrival: now, LBA: lba, Sectors: sz, Op: op})
		lba += uint64(sz)
		now += time.Duration(slatUS * float64(time.Microsecond))
	}
	m, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.FlatWriteMicros < 0 {
		t.Fatal("uniform-size writes should use the flat fallback")
	}
	if m.FlatReadMicros >= 0 {
		t.Fatal("two-size reads should use the coefficient path")
	}
	if m.TslatMicros(trace.Write, 16, true) <= 0 {
		t.Fatal("flat write Tslat must be positive")
	}
	if math.Abs(m.TslatMicros(trace.Write, 16, true)-70) > 25 {
		t.Fatalf("flat write Tslat = %v, want ~70", m.TslatMicros(trace.Write, 16, true))
	}
}
