package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleTrace() *Trace {
	return &Trace{
		Name:       "sample-01",
		Workload:   "ikki",
		Set:        "FIU",
		TsdevKnown: true,
		Requests: []Request{
			{Arrival: 0, Device: 0, LBA: 100, Sectors: 8, Op: Read, Latency: 150 * time.Microsecond},
			{Arrival: 500 * time.Microsecond, Device: 1, LBA: 2000, Sectors: 64, Op: Write, Latency: 2 * time.Millisecond, Async: true},
			{Arrival: 900 * time.Microsecond, Device: 0, LBA: 108, Sectors: 8, Op: Read},
		},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFormat("csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.Workload != orig.Workload || got.Set != orig.Set || got.TsdevKnown != orig.TsdevKnown {
		t.Fatalf("metadata lost: %+v", got)
	}
	if !reflect.DeepEqual(got.Requests, orig.Requests) {
		t.Fatalf("requests differ:\n got %+v\nwant %+v", got.Requests, orig.Requests)
	}
}

func TestCSVSubMicrosecondPrecision(t *testing.T) {
	orig := &Trace{Requests: []Request{
		{Arrival: 1500 * time.Nanosecond, LBA: 1, Sectors: 1, Op: Read},
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFormat("csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	// CSV stores microseconds with 3 decimals: 1.5us survives exactly.
	if got.Requests[0].Arrival != 1500*time.Nanosecond {
		t.Fatalf("arrival = %v", got.Requests[0].Arrival)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"1,2,3\n",         // too few fields
		"x,0,0,8,R,0,0\n", // bad arrival
		"0,x,0,8,R,0,0\n", // bad device
		"0,0,x,8,R,0,0\n", // bad lba
		"0,0,0,x,R,0,0\n", // bad sectors
		"0,0,0,8,Q,0,0\n", // bad op
		"0,0,0,8,R,x,0\n", // bad latency
		"0,0,0,8,R,0,7\n", // bad async
	}
	for _, c := range cases {
		if _, err := ReadFormat("csv", strings.NewReader(c)); err == nil {
			t.Errorf("ReadFormat(csv, %q) accepted bad input", c)
		}
	}
}

func TestReadCSVSkipsBlanksAndComments(t *testing.T) {
	in := "# comment\n\n0,0,0,8,R,0,0\n"
	tr, err := ReadFormat("csv", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestReadMSRC(t *testing.T) {
	in := strings.Join([]string{
		"128166372003061629,hm,0,Read,383496192,32768,113736",
		"128166372013061629,hm,0,Write,383528960,4096,23736",
	}, "\n")
	tr, err := ReadFormat("msrc", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Set != "MSRC" || !tr.TsdevKnown || tr.Workload != "hm" {
		t.Fatalf("metadata: %+v", tr)
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	r0 := tr.Requests[0]
	if r0.Arrival != 0 {
		t.Fatalf("first arrival not rebased: %v", r0.Arrival)
	}
	if r0.LBA != 383496192/512 || r0.Sectors != 64 || r0.Op != Read {
		t.Fatalf("r0 = %+v", r0)
	}
	if r0.Latency != time.Duration(113736)*100 {
		t.Fatalf("r0 latency = %v", r0.Latency)
	}
	// Second arrives 10^7 ticks = 1s later.
	if tr.Requests[1].Arrival != time.Second {
		t.Fatalf("r1 arrival = %v", tr.Requests[1].Arrival)
	}
}

func TestReadMSRCErrors(t *testing.T) {
	bad := []string{
		"1,2,3",
		"x,hm,0,Read,0,512,0",
		"1,hm,x,Read,0,512,0",
		"1,hm,0,Bad,0,512,0",
		"1,hm,0,Read,x,512,0",
		"1,hm,0,Read,0,x,0",
		"1,hm,0,Read,0,512,x",
	}
	for _, c := range bad {
		if _, err := ReadFormat("msrc", strings.NewReader(c)); err == nil {
			t.Errorf("ReadFormat(msrc, %q) accepted bad input", c)
		}
	}
}

func TestReadSPC(t *testing.T) {
	in := "0,12345,4096,R,0.000000\n1,999,512,W,1.500000\n"
	tr, err := ReadFormat("spc", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.TsdevKnown {
		t.Fatalf("bad trace: %+v", tr)
	}
	if tr.Requests[0].LBA != 12345 || tr.Requests[0].Sectors != 8 {
		t.Fatalf("r0 = %+v", tr.Requests[0])
	}
	if tr.Requests[1].Arrival != 1500*time.Millisecond {
		t.Fatalf("r1 arrival = %v", tr.Requests[1].Arrival)
	}
	if tr.Requests[1].Device != 1 || tr.Requests[1].Op != Write {
		t.Fatalf("r1 = %+v", tr.Requests[1])
	}
}

// TestReadSPCWholeMicros: an spc timestamp of whole microseconds, six
// decimals of a second, decodes to exactly its nanoseconds. The seeds
// are corpus-shaped (0.000511 read 510,999 ns through a float), then
// 20,000 seeded random ones up to a day.
func TestReadSPCWholeMicros(t *testing.T) {
	us := []int64{0, 511, 1020, 3751, 13249, 19344, 21533, 999_999, 1_000_001, 86_399_999_999}
	rng := rand.New(rand.NewSource(511))
	for range 20_000 {
		us = append(us, rng.Int63n(86_400_000_000))
	}
	slices.Sort(us)
	var in strings.Builder
	for _, u := range us {
		fmt.Fprintf(&in, "0,1,512,R,%d.%06d\n", u/1e6, u%1e6)
	}
	tr, err := ReadFormat("spc", strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range us {
		if want := time.Duration(u) * time.Microsecond; tr.Requests[i].Arrival != want {
			t.Fatalf("%d.%06d s decodes to %d ns, want %d", u/1e6, u%1e6, tr.Requests[i].Arrival, want)
		}
	}
}

func TestReadSPCZeroSizeClampsToOneSector(t *testing.T) {
	tr, err := ReadFormat("spc", strings.NewReader("0,1,0,R,0.0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Requests[0].Sectors != 1 {
		t.Fatalf("sectors = %d, want clamp to 1", tr.Requests[0].Sectors)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFormat("bin", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, orig)
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := ReadFormat("bin", bytes.NewReader([]byte("NOPE....."))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadFormat("bin", bytes.NewReader(b[:len(b)-5])); err == nil {
		t.Fatal("truncated input accepted")
	}
}

// Property: binary round-trip is identity for random traces.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "p", Workload: "q", Set: "FIU", TsdevKnown: seed%2 == 0}
		arr := time.Duration(0)
		for i := 0; i < int(n%50)+1; i++ {
			arr += time.Duration(rng.Intn(1e6))
			tr.Requests = append(tr.Requests, Request{
				Arrival: arr,
				Device:  uint32(rng.Intn(4)),
				LBA:     uint64(rng.Int63n(1 << 40)),
				Sectors: uint32(rng.Intn(1024) + 1),
				Op:      Op(rng.Intn(2)),
				Latency: time.Duration(rng.Intn(1e7)),
				Async:   rng.Intn(2) == 0,
			})
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadFormat("bin", &buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSV round-trip preserves all fields, times to the
// nanosecond.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "p", Workload: "q", Set: "MSPS", TsdevKnown: true}
		arr := time.Duration(0)
		for i := 0; i < int(n%40)+1; i++ {
			arr += time.Duration(rng.Intn(1e9))
			tr.Requests = append(tr.Requests, Request{
				Arrival: arr,
				Device:  uint32(rng.Intn(4)),
				LBA:     uint64(rng.Int63n(1 << 40)),
				Sectors: uint32(rng.Intn(1024) + 1),
				Op:      Op(rng.Intn(2)),
				Latency: time.Duration(rng.Intn(1e9)),
				Async:   rng.Intn(2) == 0,
			})
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			return false
		}
		got, err := ReadFormat("csv", &buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
