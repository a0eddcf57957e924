package baseline

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/trace"
	"repro/internal/workload"
)

func genOld(t *testing.T, name string, ops int) *trace.Trace {
	t.Helper()
	p, ok := workload.Lookup(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	app := workload.Generate(p, workload.GenOptions{Ops: ops, Seed: 99})
	res := app.Execute(device.NewHDD(device.DefaultHDDConfig()))
	res.Trace.TsdevKnown = p.TsdevKnown
	return res.Trace
}

func newTarget() device.Device { return device.NewArray(device.DefaultArrayConfig()) }

func TestAccelerationShortensDuration(t *testing.T) {
	old := genOld(t, "MSNFS", 2000)
	acc := Acceleration(old, DefaultAccelerationFactor)
	want := old.Duration() / DefaultAccelerationFactor
	got := acc.Duration()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > want/100+time.Millisecond {
		t.Fatalf("accelerated duration %v, want ~%v", got, want)
	}
}

func TestRevisionLosesIdle(t *testing.T) {
	old := genOld(t, "MSNFS", 2000)
	rev := Revision(old, newTarget())
	// Closed-loop replay is vastly shorter than the original: all
	// think time disappears.
	if rev.Duration() >= old.Duration()/10 {
		t.Fatalf("revision duration %v not much below old %v", rev.Duration(), old.Duration())
	}
	if rev.Len() != old.Len() {
		t.Fatal("request count changed")
	}
}

func TestFixedThKeepsLongIdles(t *testing.T) {
	old := genOld(t, "MSNFS", 2000)
	fixed := FixedTh(old, newTarget(), DefaultFixedThreshold)
	rev := Revision(old, newTarget())
	// Fixed-th preserves idle beyond the threshold, so its duration
	// must exceed Revision's.
	if fixed.Duration() <= rev.Duration() {
		t.Fatalf("fixed-th %v should exceed revision %v", fixed.Duration(), rev.Duration())
	}
	// But it truncates every gap by up to the threshold, so it cannot
	// exceed the old duration.
	if fixed.Duration() > old.Duration() {
		t.Fatalf("fixed-th %v exceeds old %v", fixed.Duration(), old.Duration())
	}
}

func TestDynamicAndTraceTrackerRun(t *testing.T) {
	old := genOld(t, "homes", 2000)
	dyn, err := Dynamic(old, newTarget())
	if err != nil {
		t.Fatal(err)
	}
	tt, err := TraceTracker(old, newTarget())
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Len() != old.Len() || tt.Len() != old.Len() {
		t.Fatal("request counts changed")
	}
	// Post-processing can only remove time.
	if tt.Duration() > dyn.Duration() {
		t.Fatalf("tracetracker %v should not exceed dynamic %v", tt.Duration(), dyn.Duration())
	}
}

// TestMethodsRun pins the table's order and names, and runs every row
// at its defaults.
func TestMethodsRun(t *testing.T) {
	old := genOld(t, "CFS", 1500)
	want := []string{"Acceleration", "Revision", "Fixed-th", "Dynamic", "TraceTracker"}
	if len(Methods) != len(want) {
		t.Fatalf("%d methods, want %d", len(Methods), len(want))
	}
	for i, m := range Methods {
		if m.Name != want[i] {
			t.Fatalf("Methods[%d] = %q, want %q", i, m.Name, want[i])
		}
		out, err := m.Run(old, newTarget())
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if out.Len() != old.Len() {
			t.Fatalf("%s: request count changed", m.Name)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("%s: invalid output: %v", m.Name, err)
		}
	}
}
