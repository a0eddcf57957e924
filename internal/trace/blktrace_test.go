package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestBlktraceRoundTrip(t *testing.T) {
	orig := &Trace{Name: "bt", Requests: []Request{
		{Arrival: 0, Device: 0, LBA: 1000, Sectors: 8, Op: Read, Latency: us(150)},
		{Arrival: us(500), Device: 1, LBA: 2000, Sectors: 64, Op: Write, Latency: us(900)},
		{Arrival: us(800), Device: 0, LBA: 3000, Sectors: 8, Op: Read}, // no completion
	}}
	var buf bytes.Buffer
	if err := WriteBlktrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBlktrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("len = %d", got.Len())
	}
	if !got.TsdevKnown {
		t.Fatal("completions present: TsdevKnown expected")
	}
	for i := range orig.Requests {
		o, g := orig.Requests[i], got.Requests[i]
		if g.Device != o.Device || g.LBA != o.LBA || g.Sectors != o.Sectors || g.Op != o.Op {
			t.Fatalf("request %d identity lost: %+v vs %+v", i, g, o)
		}
		// Timestamps survive at nanosecond resolution.
		if d := g.Arrival - o.Arrival; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("request %d arrival drift %v", i, d)
		}
		if d := g.Latency - o.Latency; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("request %d latency drift %v (%v vs %v)", i, d, g.Latency, o.Latency)
		}
	}
}

func TestBlktraceSkipsNoise(t *testing.T) {
	in := strings.Join([]string{
		"8,0    0        1     0.000000000  0  Q   R 100 + 8 [app]", // queue event: skipped
		"8,0    0        2     0.000000000  0  D   R 100 + 8 [app]",
		"CPU0 (app):",             // summary line: skipped
		" Reads Queued:  1, 4KiB", // summary line: skipped
		"8,0    0        3     0.000100000  0  C   R 100 + 8 [0]",
		"8,0    0        4     0.000200000  0  C   R 999 + 8 [0]", // orphan completion
	}, "\n")
	got, err := ReadBlktrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("len = %d, want 1", got.Len())
	}
	if got.Requests[0].Latency != 100*time.Microsecond {
		t.Fatalf("latency = %v", got.Requests[0].Latency)
	}
}

func TestBlktraceFIFOMatching(t *testing.T) {
	// Two identical outstanding requests: completions must match in
	// FIFO order.
	in := strings.Join([]string{
		"8,0    0 1 0.000000000  0  D   W 100 + 8 [x]",
		"8,0    0 2 0.001000000  0  D   W 100 + 8 [x]",
		"8,0    0 3 0.002000000  0  C   W 100 + 8 [0]",
		"8,0    0 4 0.005000000  0  C   W 100 + 8 [0]",
	}, "\n")
	got, err := ReadBlktrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Requests[0].Latency != 2*time.Millisecond {
		t.Fatalf("first latency = %v", got.Requests[0].Latency)
	}
	if got.Requests[1].Latency != 4*time.Millisecond {
		t.Fatalf("second latency = %v", got.Requests[1].Latency)
	}
}
