package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workload"
)

// oldTrace generates an MSNFS-style application, runs it on the HDD
// model, and returns the collected OLD trace plus ground truth.
func oldTrace(t *testing.T, name string, ops int, tsdevKnown bool) (*trace.Trace, replay.ExecResult) {
	t.Helper()
	p, ok := workload.Lookup(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	app := workload.Generate(p, workload.GenOptions{Ops: ops, Seed: 1234})
	res := app.Execute(device.NewHDD(device.DefaultHDDConfig()))
	res.Trace.TsdevKnown = tsdevKnown
	res.Trace.Workload = name
	res.Trace.Set = p.Set
	return res.Trace, res
}

func TestReconstructEndToEndTsdevUnknown(t *testing.T) {
	old, truth := oldTrace(t, "MSNFS", 4000, false)
	target := device.NewArray(device.DefaultArrayConfig())
	got, rep, err := Reconstruct(old, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != old.Len() {
		t.Fatalf("request count changed: %d vs %d", got.Len(), old.Len())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("reconstructed trace invalid: %v", err)
	}
	if rep.Model == nil {
		t.Fatal("Tsdev-unknown path must fit a model")
	}
	// The reconstructed trace must preserve a large share of the
	// ground-truth idle: compare total idle to total injected think.
	truthIdle := truth.TotalThink()
	ratio := float64(rep.IdleTotal) / float64(truthIdle)
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("idle preservation ratio %.3f outside [0.7,1.3] (est %v, truth %v)",
			ratio, rep.IdleTotal, truthIdle)
	}
	// The new trace must be much shorter in wall time than the old
	// one minus idles would suggest... at minimum, it must carry the
	// idle periods: duration >= idle total.
	if got.Duration() < rep.IdleTotal {
		t.Fatalf("new trace duration %v below injected idle %v", got.Duration(), rep.IdleTotal)
	}
}

func TestReconstructEndToEndTsdevKnown(t *testing.T) {
	old, truth := oldTrace(t, "CFS", 4000, true)
	target := device.NewArray(device.DefaultArrayConfig())
	got, rep, err := Reconstruct(old, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != nil {
		t.Fatal("Tsdev-known path must skip model fitting")
	}
	if got.Len() != old.Len() {
		t.Fatal("request count changed")
	}
	truthIdle := truth.TotalThink()
	ratio := float64(rep.IdleTotal) / float64(truthIdle)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("recorded-latency idle recovery %.3f should be tight (est %v, truth %v)",
			ratio, rep.IdleTotal, truthIdle)
	}
}

// TestReconstructFlagClearedFits: a trace that records its latencies
// but has its TsdevKnown flag cleared takes the inference path — the
// flag alone decides, and the recorded latencies are never read.
func TestReconstructFlagClearedFits(t *testing.T) {
	old, _ := oldTrace(t, "CFS", 4000, true)
	old.TsdevKnown = false
	target := device.NewArray(device.DefaultArrayConfig())
	got, rep, err := Reconstruct(old, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model == nil {
		t.Fatal("a trace with its TsdevKnown flag cleared must fit a model")
	}
	for i := range old.Requests {
		old.Requests[i].Latency = 0
	}
	zeroed, _, err := Reconstruct(old, device.NewArray(device.DefaultArrayConfig()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Requests, zeroed.Requests) {
		t.Fatal("the inference path read the recorded latencies")
	}
}

func TestReconstructSparseError(t *testing.T) {
	old := &trace.Trace{Requests: []trace.Request{
		{Arrival: 0, LBA: 0, Sectors: 8},
	}}
	if _, _, err := Reconstruct(old, device.NewSSD(device.DefaultSSDConfig()), Options{}); err == nil {
		t.Fatal("sparse trace must fail reconstruction")
	}
}

func TestPostProcessShrinksAsyncGaps(t *testing.T) {
	old, _ := oldTrace(t, "Exchange", 4000, true)
	target := device.NewArray(device.DefaultArrayConfig())
	full, repFull, err := Reconstruct(old, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dyn, _, err := Reconstruct(old, target, Options{SkipPostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	if repFull.AsyncCount == 0 {
		t.Fatal("Exchange workload should exhibit async instructions")
	}
	// Post-processing only removes time: the full pipeline's trace is
	// strictly no longer than Dynamic's.
	if full.Duration() >= dyn.Duration() {
		t.Fatalf("post-processed duration %v should be below dynamic %v",
			full.Duration(), dyn.Duration())
	}
	// And async flags must be recorded on the output.
	asyncOut := 0
	for _, r := range full.Requests {
		if r.Async {
			asyncOut++
		}
	}
	if asyncOut != repFull.AsyncCount {
		t.Fatalf("output async flags %d != report %d", asyncOut, repFull.AsyncCount)
	}
}

func TestPostProcessKeepsArrivalsMonotone(t *testing.T) {
	old, _ := oldTrace(t, "Exchange", 3000, true)
	target := device.NewArray(device.DefaultArrayConfig())
	got, _, err := Reconstruct(old, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("post-processed trace invalid: %v", err)
	}
}

func TestInterArrivalGap(t *testing.T) {
	a := &trace.Trace{Requests: []trace.Request{
		{Arrival: 0, LBA: 0, Sectors: 8},
		{Arrival: 100 * time.Microsecond, LBA: 8, Sectors: 8},
		{Arrival: 300 * time.Microsecond, LBA: 16, Sectors: 8},
	}}
	b := &trace.Trace{Requests: []trace.Request{
		{Arrival: 0, LBA: 0, Sectors: 8},
		{Arrival: 150 * time.Microsecond, LBA: 8, Sectors: 8},
		{Arrival: 250 * time.Microsecond, LBA: 16, Sectors: 8},
	}}
	avg, max := InterArrivalGap(a.InterArrivals(), b.InterArrivals())
	// Gaps: |100-150|=50, |200-100|=100 -> avg 75, max 100.
	if avg != 75*time.Microsecond || max != 100*time.Microsecond {
		t.Fatalf("gap = %v/%v", avg, max)
	}
	if a2, m2 := InterArrivalGap(a.InterArrivals(), (&trace.Trace{}).InterArrivals()); a2 != 0 || m2 != 0 {
		t.Fatal("empty comparison should be zero")
	}
}

func TestReportIdleStats(t *testing.T) {
	r := &Report{
		Idle:  []time.Duration{0, time.Millisecond, 0, 2 * time.Millisecond},
		Async: []bool{false, true, true, false},
	}
	r.idleStats()
	if r.IdleCount != 2 || r.IdleTotal != 3*time.Millisecond || r.AsyncCount != 2 {
		t.Fatalf("stats: %+v", r)
	}
}

func TestDecomposeAgreesWithReport(t *testing.T) {
	old, _ := oldTrace(t, "homes", 3000, false)
	m, err := infer.Estimate(old, infer.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idle, async := infer.Decompose(m, old)
	_, rep, err := Reconstruct(old, device.NewArray(device.DefaultArrayConfig()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range idle {
		if rep.Idle[i] != idle[i] || rep.Async[i] != async[i] {
			t.Fatalf("report diverges from direct decomposition at %d", i)
		}
	}
}
