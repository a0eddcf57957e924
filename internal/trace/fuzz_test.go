package trace

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// FuzzDecodeCSV drives the native CSV decoder over arbitrary bytes: it
// must terminate with a clean EOF or a parse error, never panic, and
// its batch loop — at a dst length taken from the input — must deliver
// the records and the error text its per-record next loop does.
func FuzzDecodeCSV(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteCSV(&buf, streamSample())
	f.Add(buf.Bytes())
	f.Add([]byte("# tracetracker name=a workload=b set=c tsdev_known=true\n"))
	f.Add([]byte("12.500,0,100,8,R,90.000,0\n"))
	f.Add([]byte("0.0004,0,1,1,R,0.0005,0\n9223372036854775.8075,0,1,1,W,-0.0005,1\n"))
	f.Add([]byte("1,2,3\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		newDec := func() seqDecoder { return newSeq(t, "csv", data) }
		if _, err := drainBy(newDec(), 0); err != nil && err.Error() == "" {
			t.Fatal("empty error message")
		}
		compareDrains(t, "fuzz", newDec, []int{1 + len(data)%8})
	})
}

// FuzzDetectFormat checks what a verdict means. bin: the input starts
// with the magic. A text format F decided by a bare data line (no
// "# tracetracker" header came first): F's decoder decodes that line,
// alone, to one record without error, and the decoder of every text
// format before F in table order rejects it.
func FuzzDetectFormat(f *testing.F) {
	var csvBuf, binBuf bytes.Buffer
	_ = WriteCSV(&csvBuf, streamSample())
	_ = WriteBinary(&binBuf, streamSample())
	f.Add(csvBuf.Bytes())
	f.Add(binBuf.Bytes())
	f.Add([]byte(msrcSample))
	f.Add([]byte(spcSample))
	f.Add([]byte("#\n#\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		format, err := DetectFormat(data)
		if err != nil {
			return
		}
		if format == "bin" {
			if !bytes.HasPrefix(data, binaryMagic[:]) {
				t.Fatalf("detected bin without the magic: %q", data)
			}
			return
		}
		line, ok := decidingLine(data)
		if !ok || len(line) > maxLineLen {
			return
		}
		for i := range codecs {
			c := &codecs[i]
			if !c.text {
				continue
			}
			run, err := c.decode(source{br: newReadBuffer(bytes.NewReader(line))}).Read(make([]Request, 1))
			if c.name == format {
				if err != nil || len(run) != 1 {
					t.Fatalf("detected %s, but its decoder reads %q to %d records, %v", format, line, len(run), err)
				}
				return
			}
			if err == nil || err == io.EOF {
				t.Fatalf("detected %s, but %s, earlier in the table, accepts %q", format, c.name, line)
			}
		}
		t.Fatalf("detected %q, which is no text format of the table", format)
	})
}

// decidingLine returns the first line of data that is neither blank nor
// a comment, unless a "# tracetracker" header comes before it.
func decidingLine(data []byte) ([]byte, bool) {
	for rest := data; len(rest) > 0; {
		line, tail, _ := bytes.Cut(rest, []byte("\n"))
		rest = tail
		s := bytes.TrimSpace(line)
		if bytes.HasPrefix(s, csvHeaderPrefix) {
			return nil, false
		}
		if len(s) > 0 && s[0] != '#' {
			return line, true
		}
	}
	return nil, false
}

// fuzzCollect drains dec one record per Read, up to 1<<20 records, and
// returns them with the metadata and the terminal error (nil for a
// clean EOF).
func fuzzCollect(dec Decoder) ([]Request, Meta, error) {
	var out []Request
	dst := make([]Request, 1)
	for {
		run, err := dec.Read(dst)
		out = append(out, run...)
		if err == io.EOF {
			return out, dec.Meta(), nil
		}
		if err != nil {
			return out, dec.Meta(), err
		}
		if len(out) > 1<<20 {
			return out, dec.Meta(), nil
		}
	}
}

// FuzzAppendUint is the differential lock on the integer writer every
// text encoder renders its counts and addresses with: over all of
// uint64, appendUint must append exactly strconv.AppendUint's bytes.
func FuzzAppendUint(f *testing.F) {
	for _, p := range pow10u64 {
		f.Add(p - 1)
		f.Add(p)
	}
	f.Add(uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, v uint64) {
		prefix := []byte("x,")
		got, want := appendUint(prefix, v), strconv.AppendUint(prefix, v, 10)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendUint(%d) = %q, strconv gives %q", v, got, want)
		}
	})
}

// fixedSeeds are the durations every fixed-point formatter test starts
// from: zero, the digit-boundary neighbours, both sides of each proven
// bound, and the int64 extremes (the AppendFloat fallback).
var fixedSeeds = []int64{
	0, 1, 999, 1000, 999_999_999, 1_000_000_000,
	1<<52 - 1, 1 << 52,
	int64(maxFixedSeconds) - 1, int64(maxFixedSeconds),
	math.MaxInt64, -1, math.MinInt64,
}

// diffMicros and diffSeconds are the two differentials: the integer
// formatter against strconv.AppendFloat of the same float the encoder
// used to print.
func diffMicros(t *testing.T, ns int64) {
	d := time.Duration(ns)
	var buf [maxFixedLen]byte
	got, want := buf[:putMicros(buf[:], d)], strconv.AppendFloat(nil, micros(d), 'f', 3, 64)
	if !bytes.Equal(got, want) {
		t.Fatalf("putMicros(%d) = %q, AppendFloat gives %q", ns, got, want)
	}
}

func diffSeconds(t *testing.T, ns int64) {
	d := time.Duration(ns)
	got, want := appendSeconds(nil, d), strconv.AppendFloat(nil, d.Seconds(), 'f', 9, 64)
	if !bytes.Equal(got, want) {
		t.Fatalf("appendSeconds(%d) = %q, AppendFloat gives %q", ns, got, want)
	}
}

// FuzzAppendMicros is the differential lock on the csv timestamp
// formatter over the whole int64 range.
func FuzzAppendMicros(f *testing.F) {
	for _, d := range fixedSeeds {
		f.Add(d)
	}
	f.Fuzz(diffMicros)
}

// FuzzAppendSeconds is the blktrace twin: decimal seconds against
// Duration.Seconds()'s two-rounding value, over all of int64.
func FuzzAppendSeconds(f *testing.F) {
	for _, d := range fixedSeeds {
		f.Add(d)
	}
	f.Fuzz(diffSeconds)
}

// TestAppendFixedSweep runs both differentials over a seeded random
// sweep on every `go test`: uniformly random bit lengths, so every
// magnitude up to and past both bounds is sampled, plus the values just
// under each bound, where the float error is largest.
func TestAppendFixedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200_000; i++ {
		v := rng.Int63() >> uint(rng.Intn(63))
		for _, ns := range []int64{v, -v, int64(maxFixedMicros) - 1 - v%(1<<40), int64(maxFixedSeconds) - 1 - v%(1<<40)} {
			diffMicros(t, ns)
			diffSeconds(t, ns)
		}
	}
}

// csvRoundTrip writes reqs with WriteCSV and fails t unless the csv
// decoder reads back exactly reqs.
func csvRoundTrip(t *testing.T, reqs []Request) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, &Trace{Name: "rt", Requests: reqs}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFormat("csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Requests) != len(reqs) {
		t.Fatalf("decoded %d requests, wrote %d", len(got.Requests), len(reqs))
	}
	for i, r := range reqs {
		if got.Requests[i] != r {
			t.Fatalf("request %d: wrote %+v, read %+v", i, r, got.Requests[i])
		}
	}
}

// csvTime maps any int64 into [0, 2^52) ns, the times WriteCSV prints
// as exact nanoseconds.
func csvTime(v int64) time.Duration { return time.Duration(uint64(v) % (1 << 52)) }

// FuzzCSVRoundTrip: for every request whose arrival and latency lie in
// [0, 2^52) ns, WriteCSV → csv decode is the identity.
func FuzzCSVRoundTrip(f *testing.F) {
	for _, d := range fixedSeeds {
		f.Add(d, d+1, uint64(d), uint32(8), true)
	}
	f.Add(int64(4_260_020_594), int64(511_000), uint64(1), uint32(1), false)
	f.Fuzz(func(t *testing.T, arr, lat int64, lba uint64, sectors uint32, write bool) {
		op := Read
		if write {
			op = Write
		}
		csvRoundTrip(t, []Request{{Arrival: csvTime(arr), Device: uint32(lba >> 40), LBA: lba, Sectors: sectors, Op: op, Latency: csvTime(lat), Async: write}})
	})
}

// TestCSVRoundTripSweep runs FuzzCSVRoundTrip's property over 200,000
// seeded random requests on every `go test`, times of every bit length
// up to 2^52 ns.
func TestCSVRoundTripSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	reqs := make([]Request, 200_000)
	for i := range reqs {
		reqs[i] = Request{
			Arrival: csvTime(rng.Int63() >> uint(rng.Intn(63))),
			LBA:     uint64(rng.Int63()),
			Sectors: uint32(1 + rng.Intn(256)),
			Op:      Op(rng.Intn(2)),
			Latency: csvTime(rng.Int63() >> uint(rng.Intn(63))),
			Async:   rng.Intn(2) == 1,
		}
	}
	csvRoundTrip(t, reqs)
}
