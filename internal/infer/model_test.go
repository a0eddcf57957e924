package infer

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/trace"
)

// synthTrace builds a trace whose inter-arrival structure follows the
// paper's model exactly: after each request of size s (sectors), the
// next arrival comes tcdel + coef*s (+tmovd if random) later, plus an
// occasional injected idle. With jitter=0 recovery should be exact up
// to binning resolution.
type synthSpec struct {
	betaUS, etaUS      float64 // per-sector device time
	tcdelRUS, tcdelWUS float64
	tmovdUS            float64
	readSizes          []uint32
	writeSizes         []uint32
	n                  int
	idleEvery          int // inject idle every k-th request (0=never)
	idleUS             float64
	jitterUS           float64
	seed               int64
}

func buildSynth(s synthSpec) (*trace.Trace, []time.Duration) {
	rng := rand.New(rand.NewSource(s.seed))
	tr := &trace.Trace{Name: "synth"}
	var idles []time.Duration
	now := time.Duration(0)
	lba := uint64(0)
	for i := 0; i < s.n; i++ {
		var op trace.Op
		var sz uint32
		if i%2 == 0 && len(s.readSizes) > 0 {
			op = trace.Read
			sz = s.readSizes[i/2%len(s.readSizes)]
		} else if len(s.writeSizes) > 0 {
			op = trace.Write
			sz = s.writeSizes[(i/2)%len(s.writeSizes)]
		} else {
			op = trace.Read
			sz = s.readSizes[i%len(s.readSizes)]
		}
		// All-sequential: LBA continues exactly.
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: now, LBA: lba, Sectors: sz, Op: op,
		})
		lba += uint64(sz)
		var slatUS float64
		if op == trace.Read {
			slatUS = s.tcdelRUS + s.betaUS*float64(sz)
		} else {
			slatUS = s.tcdelWUS + s.etaUS*float64(sz)
		}
		slatUS += (rng.Float64()*2 - 1) * s.jitterUS
		idle := time.Duration(0)
		if s.idleEvery > 0 && i%s.idleEvery == s.idleEvery-1 {
			idle = time.Duration(s.idleUS * float64(time.Microsecond))
		}
		idles = append(idles, idle)
		now += time.Duration(slatUS*float64(time.Microsecond)) + idle
	}
	return tr, idles
}

func TestEstimateRecoversCoefficients(t *testing.T) {
	spec := synthSpec{
		betaUS: 0.5, etaUS: 1.5,
		tcdelRUS: 20, tcdelWUS: 30,
		readSizes:  []uint32{8, 128},
		writeSizes: []uint32{8, 128},
		n:          8000,
		seed:       11,
	}
	tr, _ := buildSynth(spec)
	m, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// β from ΔT/Δsize: rise points at 20+0.5*8=24 and 20+0.5*128=84,
	// Δ=60 over 120 sectors = 0.5. Binning granularity allows ~25%.
	if math.Abs(m.BetaMicros-spec.betaUS) > spec.betaUS*0.25 {
		t.Fatalf("β = %v, want ~%v", m.BetaMicros, spec.betaUS)
	}
	if math.Abs(m.EtaMicros-spec.etaUS) > spec.etaUS*0.25 {
		t.Fatalf("η = %v, want ~%v", m.EtaMicros, spec.etaUS)
	}
	if math.Abs(m.TcdelReadMicros-spec.tcdelRUS) > 15 {
		t.Fatalf("TcdelRead = %v, want ~%v", m.TcdelReadMicros, spec.tcdelRUS)
	}
	if math.Abs(m.TcdelWriteMicros-spec.tcdelWUS) > 25 {
		t.Fatalf("TcdelWrite = %v, want ~%v", m.TcdelWriteMicros, spec.tcdelWUS)
	}
}

func TestEstimateUniformSizeFallsBackToFlat(t *testing.T) {
	spec := synthSpec{
		betaUS: 1.0, tcdelRUS: 10,
		readSizes: []uint32{64},
		n:         3000,
		seed:      5,
	}
	tr, _ := buildSynth(spec)
	m, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.FlatReadMicros < 0 {
		t.Fatal("uniform-size trace should use the flat fallback")
	}
	// Flat Tslat should be near 10 + 64 = 74µs.
	if math.Abs(m.FlatReadMicros-74) > 20 {
		t.Fatalf("flat Tslat = %v, want ~74", m.FlatReadMicros)
	}
}

func TestEstimateSparseTraceFails(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		{Arrival: 0, LBA: 0, Sectors: 8},
		{Arrival: 100, LBA: 8, Sectors: 8},
	}}
	if _, err := Estimate(tr, EstimateOptions{}); err == nil {
		t.Fatal("two-request trace should be too sparse")
	}
}

func TestEstimateReadOnlyInheritsWriteParams(t *testing.T) {
	spec := synthSpec{
		betaUS: 0.8, tcdelRUS: 15,
		readSizes: []uint32{8, 64},
		n:         4000,
		seed:      9,
	}
	tr, _ := buildSynth(spec)
	// buildSynth with empty writeSizes emits only reads.
	m, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.EtaMicros != m.BetaMicros || m.TcdelWriteMicros != m.TcdelReadMicros {
		t.Fatal("write params should inherit read params on a read-only trace")
	}
}

func TestTmovdRecovery(t *testing.T) {
	// Mixed trace: sequential reads of two sizes plus random reads of
	// one size whose Tintt carries an extra tmovd.
	rng := rand.New(rand.NewSource(21))
	tr := &trace.Trace{Name: "tmovd"}
	now := time.Duration(0)
	lba := uint64(0)
	const betaUS, tcdelUS, tmovdUS = 0.5, 20.0, 8000.0
	for i := 0; i < 9000; i++ {
		var sz uint32
		var slatUS float64
		random := i%3 == 2
		switch i % 3 {
		case 0:
			sz = 8
		case 1:
			sz = 128
		case 2:
			sz = 8
		}
		if random {
			lba += 1 + uint64(rng.Intn(1e6)) // break sequentiality
			slatUS = tcdelUS + betaUS*float64(sz) + tmovdUS
		} else {
			slatUS = tcdelUS + betaUS*float64(sz)
		}
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: now, LBA: lba, Sectors: sz, Op: trace.Read,
		})
		lba += uint64(sz)
		now += time.Duration(slatUS * float64(time.Microsecond))
	}
	m, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TmovdMicros < tmovdUS*0.5 || m.TmovdMicros > tmovdUS*1.5 {
		t.Fatalf("Tmovd = %v, want ~%v", m.TmovdMicros, tmovdUS)
	}
	// Model Tsdev: random read of 8 sectors should exceed sequential.
	if m.TsdevMicros(trace.Read, 8, false) <= m.TsdevMicros(trace.Read, 8, true) {
		t.Fatal("random Tsdev must exceed sequential Tsdev")
	}
}

func TestDecomposeRecoversInjectedIdle(t *testing.T) {
	spec := synthSpec{
		betaUS: 0.5, etaUS: 1.5,
		tcdelRUS: 20, tcdelWUS: 30,
		readSizes:  []uint32{8, 128},
		writeSizes: []uint32{8, 128},
		n:          6000,
		idleEvery:  10,
		idleUS:     20000, // 20ms idles, far above Tslat
		seed:       13,
	}
	tr, truth := buildSynth(spec)
	m, err := Estimate(tr, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idle, _ := Decompose(m, tr)
	// Idle i is attributed to the request *after* the gap; ground
	// truth idles[i] was inserted after request i, i.e. before i+1.
	tp, fn := 0, 0
	var estSum, truthSum time.Duration
	for i := 0; i+1 < len(truth); i++ {
		if truth[i] > 0 {
			truthSum += truth[i]
			estSum += idle[i+1]
			if idle[i+1] > 0 {
				tp++
			} else {
				fn++
			}
		}
	}
	if tp == 0 || float64(tp)/float64(tp+fn) < 0.95 {
		t.Fatalf("idle detection rate %d/%d too low", tp, tp+fn)
	}
	ratio := float64(estSum) / float64(truthSum)
	if ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("idle length recovery ratio %v outside [0.9,1.1]", ratio)
	}
}

func TestDecomposeTsdevKnownPath(t *testing.T) {
	tr := &trace.Trace{TsdevKnown: true, Requests: []trace.Request{
		{Arrival: 0, LBA: 0, Sectors: 8, Latency: 100 * time.Microsecond},
		{Arrival: 500 * time.Microsecond, LBA: 8, Sectors: 8, Latency: 100 * time.Microsecond},
		{Arrival: 550 * time.Microsecond, LBA: 16, Sectors: 8, Latency: 100 * time.Microsecond},
	}}
	idle, async := Decompose(nil, tr)
	// Gap 0->1 is 500us, latency 100us: idle before request 1 = 400us.
	if idle[1] != 400*time.Microsecond {
		t.Fatalf("idle[1] = %v", idle[1])
	}
	// Gap 1->2 is 50us < latency 100us: request 1 is async, no idle.
	if !async[1] {
		t.Fatal("request 1 should be flagged async")
	}
	if idle[2] != 0 {
		t.Fatalf("idle[2] = %v", idle[2])
	}
	if async[2] {
		t.Fatal("last request can never be flagged async")
	}
}

func TestDecomposeEmptyTrace(t *testing.T) {
	idle, async := Decompose(nil, &trace.Trace{})
	if len(idle) != 0 || len(async) != 0 {
		t.Fatal("empty trace should yield empty slices")
	}
}

func TestClassifyGroupsBySizeOpSeq(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		{Arrival: 0, LBA: 0, Sectors: 8, Op: trace.Read},
		{Arrival: 100, LBA: 8, Sectors: 8, Op: trace.Read},     // seq read 8
		{Arrival: 200, LBA: 16, Sectors: 16, Op: trace.Write},  // seq write 16
		{Arrival: 300, LBA: 99999, Sectors: 8, Op: trace.Read}, // rand read 8
		{Arrival: 400, LBA: 0, Sectors: 8, Op: trace.Read},     // rand (terminal, no sample)
	}}
	c := NewStreamClassifier()
	c.AddBatch(tr.Requests)
	// The classifier and the reference the fuzzer holds it to.
	for name, g := range map[string]*Grouping{"stream": c.Grouping(), "ref": classifyRef(tr)} {
		// First request: random (no position history), read, 8.
		if grp := g.Groups[GroupKey{Seq: false, Op: trace.Read, Sectors: 8}]; grp == nil || grp.N() != 2 {
			t.Fatalf("%s: random-read-8 group wrong: %+v", name, grp)
		}
		if grp := g.Groups[GroupKey{Seq: true, Op: trace.Read, Sectors: 8}]; grp == nil || grp.N() != 1 {
			t.Fatalf("%s: seq-read-8 group wrong: %+v", name, grp)
		}
		if grp := g.Groups[GroupKey{Seq: true, Op: trace.Write, Sectors: 16}]; grp == nil || grp.N() != 1 {
			t.Fatalf("%s: seq-write-16 group wrong: %+v", name, grp)
		}
		// Terminal request contributes no inter-arrival sample.
		total := 0
		for _, grp := range g.Groups {
			total += grp.N()
		}
		if total != len(tr.Requests)-1 {
			t.Fatalf("%s: total samples %d, want %d", name, total, len(tr.Requests)-1)
		}
	}
}

func TestSelectOrdersByPopulation(t *testing.T) {
	g := &Grouping{Groups: map[GroupKey]*Group{}}
	add := func(sz uint32, n int) {
		k := GroupKey{Seq: true, Op: trace.Read, Sectors: sz}
		grp := &Group{Key: k}
		for i := 0; i < n; i++ {
			grp.InttMicros = append(grp.InttMicros, float64(i))
		}
		g.Groups[k] = grp
	}
	add(8, 50)
	add(16, 200)
	add(32, 5)
	sel := g.Select(true, trace.Read, 10)
	if len(sel) != 2 {
		t.Fatalf("selected %d groups, want 2 (min filter)", len(sel))
	}
	if sel[0].Key.Sectors != 16 || sel[1].Key.Sectors != 8 {
		t.Fatalf("order wrong: %v then %v", sel[0].Key, sel[1].Key)
	}
}

func TestModelTslatComposition(t *testing.T) {
	m := &Model{
		BetaMicros: 1, EtaMicros: 2,
		TcdelReadMicros: 10, TcdelWriteMicros: 20,
		TmovdMicros:    100,
		FlatReadMicros: -1, FlatWriteMicros: -1,
	}
	if got := m.TslatMicros(trace.Read, 8, true); got != 18 {
		t.Fatalf("seq read Tslat = %v, want 18", got)
	}
	if got := m.TslatMicros(trace.Read, 8, false); got != 118 {
		t.Fatalf("rand read Tslat = %v, want 118", got)
	}
	if got := m.TslatMicros(trace.Write, 4, true); got != 28 {
		t.Fatalf("seq write Tslat = %v, want 28", got)
	}
	if d := m.Tslat(trace.Read, 8, true); d != 18*time.Microsecond {
		t.Fatalf("Tslat duration = %v", d)
	}
}
