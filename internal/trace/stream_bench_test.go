package trace

// Codec micro-benchmarks: per-format decode and encode throughput on
// a synthetic in-memory trace, close to the codec for profiling; the
// trace.* layer rows of `go run ./benchmark` time the same paths on the
// benchmark's own inputs.

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"
)

// benchTrace synthesizes a deterministic n-request trace exercising
// varied field widths.
func benchTrace(n int) *Trace {
	t := &Trace{Name: "bench", Workload: "w", Set: "FIU", TsdevKnown: true}
	t.Requests = make([]Request, n)
	for i := range t.Requests {
		t.Requests[i] = Request{
			Arrival: time.Duration(i) * 37 * time.Microsecond,
			Device:  uint32(i % 4),
			LBA:     uint64(i*8) % (1 << 30),
			Sectors: uint32(8 + (i%4)*8),
			Op:      Op(i % 2),
			Latency: time.Duration(90+i%50) * time.Microsecond,
			Async:   i%5 == 0,
		}
	}
	return t
}

func benchDecode(b *testing.B, format string, encode func(io.Writer, *Trace) error) {
	tr := benchTrace(200_000)
	var buf bytes.Buffer
	if err := encode(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(format, bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		var batch [512]Request
		for {
			k, err := DecodeBatch(dec, batch[:])
			n += k
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if n != tr.Len() {
			b.Fatalf("decoded %d of %d records", n, tr.Len())
		}
	}
	reportPerRecord(b, tr.Len())
}

func BenchmarkDecodeCSV(b *testing.B) { benchDecode(b, "csv", WriteCSV) }
func BenchmarkDecodeBin(b *testing.B) { benchDecode(b, "bin", WriteBinary) }

func BenchmarkDecodeMSRC(b *testing.B) {
	benchDecode(b, "msrc", writeMSRCStyle)
}

func BenchmarkDecodeSPC(b *testing.B) {
	benchDecode(b, "spc", writeSPCStyle)
}

// BenchmarkDecodeParallel times the read-ahead decoder an ingest or a
// job opens on a large text file, drained by ForEachBatch as they drain
// it: csv and bin, 100k requests. The drain does nothing with the
// records, so this is the decode plus the hand-over, with nothing for
// the decode to overlap; BenchmarkDecodeCSV and BenchmarkDecodeBin are
// the sequential decode alone.
func BenchmarkDecodeParallel(b *testing.B) {
	tr := benchTrace(100_000)
	for _, c := range []struct {
		format string
		encode func(io.Writer, *Trace) error
	}{{"csv", WriteCSV}, {"bin", WriteBinary}} {
		var buf bytes.Buffer
		if err := c.encode(&buf, tr); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run(c.format, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec := NewParallelDecoder(bytes.NewReader(data), int64(len(data)), c.format, 1)
				n := 0
				if err := ForEachBatch(dec, func(run []Request) error {
					n += len(run)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				dec.Close()
				if n != tr.Len() {
					b.Fatalf("decoded %d of %d records", n, tr.Len())
				}
			}
			reportPerRecord(b, tr.Len())
		})
	}
}

// writeMSRCStyle renders t as an MSRC-format file
// (Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime; 100ns
// ticks and byte offsets).
func writeMSRCStyle(w io.Writer, t *Trace) error {
	var buf bytes.Buffer
	for _, r := range t.Requests {
		op := "Read"
		if r.Op == Write {
			op = "Write"
		}
		fmt.Fprintf(&buf, "%d,bench,%d,%s,%d,%d,%d\n",
			r.Arrival.Nanoseconds()/100, r.Device, op,
			r.LBA*SectorSize, uint64(r.Sectors)*SectorSize,
			r.Latency.Nanoseconds()/100)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// writeSPCStyle renders t as an SPC-1 ASCII file
// (ASU,LBA,Size,Opcode,Timestamp; byte sizes, fractional seconds).
func writeSPCStyle(w io.Writer, t *Trace) error {
	var buf bytes.Buffer
	for _, r := range t.Requests {
		fmt.Fprintf(&buf, "%d,%d,%d,%s,%.6f\n",
			r.Device, r.LBA, uint64(r.Sectors)*SectorSize, r.Op, r.Arrival.Seconds())
	}
	_, err := w.Write(buf.Bytes())
	return err
}

func benchEncode(b *testing.B, format string) {
	tr := benchTrace(200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := NewEncoder(format, io.Discard, "/dev/bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := EncodeTrace(enc, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeCSV(b *testing.B)      { benchEncode(b, "csv") }
func BenchmarkEncodeBin(b *testing.B)      { benchEncode(b, "bin") }
func BenchmarkEncodeBlktrace(b *testing.B) { benchEncode(b, "blktrace") }
func BenchmarkEncodeFIO(b *testing.B)      { benchEncode(b, "fio") }

// benchAppendRecord times the render form the engine's workers use
// (exec.go's finish): one AppendRecords call through the ShardEncoder
// interface into one reused buffer, where benchEncode times Write.
func benchAppendRecord(b *testing.B, format string) {
	tr := benchTrace(200_000)
	enc, err := NewEncoder(format, io.Discard, "")
	if err != nil {
		b.Fatal(err)
	}
	se := enc.(ShardEncoder)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = se.AppendRecords(buf[:0], tr.Requests)
	}
	b.SetBytes(int64(len(buf)))
	reportPerRecord(b, tr.Len())
}

// reportPerRecord adds the ns/record metric the kernel tables cite.
func reportPerRecord(b *testing.B, records int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
}

func BenchmarkAppendRecordCSV(b *testing.B) { benchAppendRecord(b, "csv") }
func BenchmarkAppendRecordBin(b *testing.B) { benchAppendRecord(b, "bin") }
