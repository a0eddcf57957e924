package trace

import (
	"testing"
	"time"
)

func mkTrace(arrivalsUS ...float64) *Trace {
	t := &Trace{Name: "t", Workload: "w", Set: "s"}
	lba := uint64(0)
	for _, us := range arrivalsUS {
		t.Requests = append(t.Requests, Request{
			Arrival: time.Duration(us * float64(time.Microsecond)),
			LBA:     lba,
			Sectors: 8,
			Op:      Read,
		})
		lba += 1000 // random pattern
	}
	return t
}

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("Op.String broken")
	}
	if Op(9).String() == "" {
		t.Fatal("unknown op should stringify")
	}
}

func TestParseOp(t *testing.T) {
	for _, s := range []string{"R", "r", "Read", "READ", "read", "0"} {
		if op, err := ParseOp(s); err != nil || op != Read {
			t.Fatalf("ParseOp(%q) = %v, %v", s, op, err)
		}
	}
	for _, s := range []string{"W", "w", "Write", "WRITE", "write", "1"} {
		if op, err := ParseOp(s); err != nil || op != Write {
			t.Fatalf("ParseOp(%q) = %v, %v", s, op, err)
		}
	}
	if _, err := ParseOp("X"); err == nil {
		t.Fatal("want error for unknown op")
	}
}

func TestRequestBytesEnd(t *testing.T) {
	r := Request{LBA: 100, Sectors: 8}
	if r.Bytes() != 4096 {
		t.Fatalf("Bytes = %d", r.Bytes())
	}
	if r.End() != 108 {
		t.Fatalf("End = %d", r.End())
	}
}

func TestValidate(t *testing.T) {
	if err := (&Trace{}).Validate(); err != ErrNoRequest {
		t.Fatalf("empty: %v", err)
	}
	tr := mkTrace(0, 10, 20)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	tr.Requests[1].Sectors = 0
	if err := tr.Validate(); err == nil {
		t.Fatal("zero sectors accepted")
	}
	tr = mkTrace(0, 20, 10)
	if err := tr.Validate(); err == nil {
		t.Fatal("unsorted accepted")
	}
}

func TestSortStable(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Arrival: 20, LBA: 1, Sectors: 1},
		{Arrival: 10, LBA: 2, Sectors: 1},
		{Arrival: 10, LBA: 3, Sectors: 1},
	}}
	tr.Sort()
	if tr.Requests[0].LBA != 2 || tr.Requests[1].LBA != 3 || tr.Requests[2].LBA != 1 {
		t.Fatalf("sort order wrong: %+v", tr.Requests)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := mkTrace(0, 10)
	c := tr.Clone()
	c.Requests[0].LBA = 999999
	if tr.Requests[0].LBA == 999999 {
		t.Fatal("Clone shares request slice")
	}
}

func TestDurationAndInterArrivals(t *testing.T) {
	tr := mkTrace(0, 100, 250)
	if tr.Duration() != 250*time.Microsecond {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	ia := tr.InterArrivals()
	if len(ia) != 2 || ia[0] != 100*time.Microsecond || ia[1] != 150*time.Microsecond {
		t.Fatalf("InterArrivals = %v", ia)
	}
	us := tr.InterArrivalMicros()
	if us[0] != 100 || us[1] != 150 {
		t.Fatalf("InterArrivalMicros = %v", us)
	}
	if mkTrace(5).Duration() != 0 || mkTrace(5).InterArrivals() != nil {
		t.Fatal("single-request trace should have zero duration, nil IA")
	}
}

func TestTotalsAndFractions(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Arrival: 0, LBA: 0, Sectors: 8, Op: Read},
		{Arrival: 1, LBA: 8, Sectors: 8, Op: Write},    // sequential
		{Arrival: 2, LBA: 999, Sectors: 16, Op: Read},  // random
		{Arrival: 3, LBA: 1015, Sectors: 16, Op: Read}, // sequential
	}}
	if tr.TotalBytes() != int64(48*512) {
		t.Fatalf("TotalBytes = %d", tr.TotalBytes())
	}
	if got := tr.AvgRequestBytes(); got != float64(48*512)/4 {
		t.Fatalf("AvgRequestBytes = %v", got)
	}
	if got := tr.ReadFraction(); got != 0.75 {
		t.Fatalf("ReadFraction = %v", got)
	}
	flags := tr.SeqFlags()
	want := []bool{false, true, false, true}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("SeqFlags = %v, want %v", flags, want)
		}
	}
	if got := tr.SeqFraction(); got != 0.5 {
		t.Fatalf("SeqFraction = %v", got)
	}
}

func TestSeqFlagsPerDevice(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Arrival: 0, Device: 0, LBA: 0, Sectors: 8},
		{Arrival: 1, Device: 1, LBA: 8, Sectors: 8},  // different device: random
		{Arrival: 2, Device: 0, LBA: 8, Sectors: 8},  // continues dev0: sequential
		{Arrival: 3, Device: 1, LBA: 16, Sectors: 8}, // continues dev1: sequential
	}}
	flags := tr.SeqFlags()
	want := []bool{false, false, true, true}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("SeqFlags = %v, want %v", flags, want)
		}
	}
}

func TestEmptyTraceAccessors(t *testing.T) {
	tr := &Trace{}
	if tr.AvgRequestBytes() != 0 || tr.ReadFraction() != 0 || tr.SeqFraction() != 0 {
		t.Fatal("empty trace accessors should be zero")
	}
}
