package trace

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
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
		line, tail, _ := cutLine(rest)
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

// FuzzSplitSegments is the differential lock on the parallel decode
// pipeline: for arbitrary bytes, every format, and 1-4 workers, the
// parallel decoder must deliver exactly the records the sequential
// decoder delivers, agree on success vs failure, and agree on the
// metadata of clean streams, and fail with the same message after the
// same records (the ParallelDecoder's contract). The seeds cover the
// boundary hazards: CRLF endings, comment runs, late metadata headers,
// truncated binary records, a bin file longer than the decoder's 128 KB
// read buffer, so its batch loop meets a refill mid-stream, and msrc
// and spc files behind a CRLF comment prelude longer than one prelude
// read (probeLen).
func FuzzSplitSegments(f *testing.F) {
	var csvBuf, binBuf, bigBin bytes.Buffer
	_ = WriteCSV(&csvBuf, streamSample())
	_ = WriteBinary(&binBuf, streamSample())
	_ = WriteBinary(&bigBin, benchTrace(4000))
	f.Add(csvBuf.Bytes(), uint8(4))
	f.Add(binBuf.Bytes(), uint8(3))
	f.Add(binBuf.Bytes()[:binBuf.Len()-5], uint8(2)) // truncated bin record
	f.Add(bigBin.Bytes()[:bigBin.Len()-5], uint8(1)) // ≈ 136 KB, truncated
	f.Add([]byte("12.5,0,100,8,R,90.0,0\r\n13.5,0,108,8,W,80.0,1\r\n"), uint8(2))
	f.Add([]byte("# c1\n# c2\n\n# tracetracker name=a workload=b set=c tsdev_known=true\n1,0,1,1,R,1,0\n"), uint8(3))
	f.Add([]byte("1,0,1,1,R,1,0\n# tracetracker name=late workload=b set=c tsdev_known=true\n2,0,2,1,W,1,0\n"), uint8(2))
	f.Add([]byte(msrcSample), uint8(4))
	f.Add([]byte(spcSample), uint8(2))
	f.Add([]byte("128166372003061629,hm,1,Read,2096128,512,80\n# run\n128166372013061629,hm,1,Write,2096640,512,81\n"), uint8(3))
	crlfPrelude := strings.Repeat("# a comment line of a CRLF prelude\r\n", probeLen/36+8)
	f.Add([]byte(crlfPrelude+strings.ReplaceAll(msrcSample, "\n", "\r\n")), uint8(2))
	f.Add([]byte(crlfPrelude+"\r\n"+strings.ReplaceAll(spcSample, "\n", "\r\n")), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		if len(data) > 1<<20 {
			return
		}
		w := 1 + int(workers%4)
		for _, format := range []string{"csv", "bin", "msrc", "spc"} {
			seq, err := NewDecoder(format, bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: sequential constructor: %v", format, err)
			}
			wantReqs, wantMeta, wantErr := fuzzCollect(seq)

			pd := NewParallelDecoder(bytes.NewReader(data), int64(len(data)), format, w)
			gotReqs, gotMeta, gotErr := fuzzCollect(pd)
			pd.Close()
			fuzzCompare(t, format, wantReqs, wantMeta, wantErr, gotReqs, gotMeta, gotErr)
		}
	})
}

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

func fuzzCompare(t *testing.T, path string, wantReqs []Request, wantMeta Meta, wantErr error, gotReqs []Request, gotMeta Meta, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s: sequential err %v, parallel err %v", path, wantErr, gotErr)
	}
	if len(gotReqs) != len(wantReqs) {
		t.Fatalf("%s: sequential delivered %d records, parallel %d (seq err %v, par err %v)",
			path, len(wantReqs), len(gotReqs), wantErr, gotErr)
	}
	for i := range wantReqs {
		if wantReqs[i] != gotReqs[i] {
			t.Fatalf("%s: record %d differs: seq %+v par %+v", path, i, wantReqs[i], gotReqs[i])
		}
	}
	if wantErr == nil && gotMeta != wantMeta {
		t.Fatalf("%s: meta differs: seq %+v par %+v", path, wantMeta, gotMeta)
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
