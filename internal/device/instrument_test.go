package device

import (
	"testing"
	"time"

	"repro/internal/trace"
)

func TestInstrumentedCounts(t *testing.T) {
	d := NewInstrumented(&Null{Fixed: 100 * time.Microsecond})
	d.Submit(0, req(0, 8, trace.Read))
	d.Submit(time.Millisecond, req(8, 16, trace.Write))
	d.Submit(2*time.Millisecond, req(24, 8, trace.Read))
	s := d.Snapshot()
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("counts: %+v", s)
	}
	if s.ReadBytes != 16*512 || s.WriteBytes != 16*512 {
		t.Fatalf("bytes: %+v", s)
	}
	if s.MeanLatency != 100*time.Microsecond || s.MaxLatency != 100*time.Microsecond {
		t.Fatalf("latency: %+v", s)
	}
	if s.MeanQueueWait != 0 {
		t.Fatalf("queue wait: %+v", s)
	}
}

func TestInstrumentedReset(t *testing.T) {
	d := NewInstrumented(&Null{})
	d.Submit(0, req(0, 8, trace.Read))
	d.Reset()
	s := d.Snapshot()
	if s.Reads != 0 || s.MeanLatency != 0 {
		t.Fatalf("reset did not clear: %+v", s)
	}
	if d.Name() != "null+stats" {
		t.Fatalf("name: %q", d.Name())
	}
}

func TestInstrumentedUtilization(t *testing.T) {
	// HDD serving back-to-back requests is ~100% utilized.
	d := NewInstrumented(NewHDD(DefaultHDDConfig()))
	at := time.Duration(0)
	for i := 0; i < 50; i++ {
		res := d.Submit(at, req(uint64(i)*1000000, 8, trace.Read))
		at = res.Complete
	}
	s := d.Snapshot()
	if s.Utilization < 0.9 || s.Utilization > 1.1 {
		t.Fatalf("utilization = %v, want ~1", s.Utilization)
	}
}

func TestNullDevice(t *testing.T) {
	n := &Null{}
	r := n.Submit(5*time.Second, req(0, 8, trace.Read))
	if r.Start != 5*time.Second || r.Complete != 5*time.Second {
		t.Fatalf("null result: %+v", r)
	}
	n2 := &Null{Fixed: time.Millisecond}
	if got := n2.Submit(0, req(0, 8, trace.Read)); got.Complete != time.Millisecond {
		t.Fatalf("fixed null: %+v", got)
	}
	n.Reset() // must not panic
	if n.Name() != "null" {
		t.Fatal("name")
	}
}
