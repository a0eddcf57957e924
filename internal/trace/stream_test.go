package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

func streamSample() *Trace {
	return &Trace{
		Name: "s", Workload: "w", Set: "FIU", TsdevKnown: true,
		Requests: []Request{
			{Arrival: 0, Device: 0, LBA: 100, Sectors: 8, Op: Read, Latency: 90 * time.Microsecond},
			{Arrival: time.Millisecond, Device: 1, LBA: 108, Sectors: 16, Op: Write, Latency: 250 * time.Microsecond, Async: true},
			{Arrival: 3 * time.Millisecond, Device: 0, LBA: 4096, Sectors: 64, Op: Read},
		},
	}
}

// TestStreamMatchesWholeTrace checks that encoding via the streaming
// encoders produces the same bytes as the whole-trace writers, and
// that decoding via the streaming decoders recovers the same trace as
// the whole-trace readers.
func TestStreamMatchesWholeTrace(t *testing.T) {
	orig := streamSample()
	var whole, streamed bytes.Buffer
	if err := WriteCSV(&whole, orig); err != nil {
		t.Fatal(err)
	}
	if err := EncodeTrace(NewCSVEncoder(&streamed), orig); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Bytes(), streamed.Bytes()) {
		t.Fatal("csv: streaming encoder diverges from WriteCSV")
	}
	got, err := drain(newSeq(t, "csv", streamed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta() != orig.Meta() {
		t.Fatalf("csv meta: got %+v want %+v", got.Meta(), orig.Meta())
	}
	if !reflect.DeepEqual(got.Requests, orig.Requests) {
		t.Fatal("csv: streaming round trip lost data")
	}
}

// TestBinaryStreamingSentinel checks that a BinaryEncoder stream (no
// up-front count) is readable by ReadFormat.
func TestBinaryStreamingSentinel(t *testing.T) {
	orig := streamSample()
	var buf bytes.Buffer
	if err := EncodeTrace(NewBinaryEncoder(&buf), orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFormat("bin", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta() != orig.Meta() || !reflect.DeepEqual(got.Requests, orig.Requests) {
		t.Fatal("binary streaming round trip lost data")
	}
	// Counted files written by WriteBinary must stream-decode too.
	var counted bytes.Buffer
	if err := WriteBinary(&counted, orig); err != nil {
		t.Fatal(err)
	}
	got2, err := drain(newSeq(t, "bin", counted.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2.Requests, orig.Requests) {
		t.Fatal("counted binary stream decode lost data")
	}
}

// TestBinaryTruncatedHeader checks an empty or header-truncated
// binary stream is an error, not a silently empty trace.
func TestBinaryTruncatedHeader(t *testing.T) {
	for _, in := range []string{"", "TTR1", "TTR1\x02\x00a"} {
		if _, err := ReadFormat("bin", strings.NewReader(in)); err == nil {
			t.Fatalf("truncated header %q accepted as empty trace", in)
		}
		if _, err := newSeq(t, "bin", []byte(in)).Read(make([]Request, 1)); err == nil || err == io.EOF {
			t.Fatalf("decoder on %q: got %v, want a truncation error", in, err)
		}
	}
}

// seqDecoder is a codec as NewDecoder builds it, with the per-record
// next its batch loop is held to.
type seqDecoder interface {
	Decoder
	next() (Request, error)
}

// next is the text decoders' one-record reference: their read loop
// into a fresh request.
func (t *text) next() (Request, error) {
	var r Request
	err := t.read(&r)
	return r, err
}

// newSeq is NewDecoder over data.
func newSeq(t testing.TB, format string, data []byte) seqDecoder {
	t.Helper()
	dec, err := NewDecoder(format, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return dec.(seqDecoder)
}

// drainBy decodes dec to its terminal condition, one next at a time
// when size is 0 and through Read with a size-long dst otherwise,
// returning what it delivered and the terminal error (nil for a clean
// EOF).
func drainBy(dec seqDecoder, size int) ([]Request, error) {
	var out []Request
	if size == 0 {
		for {
			r, err := dec.next()
			if err != nil {
				return out, noEOF(err)
			}
			out = append(out, r)
		}
	}
	dst := make([]Request, size)
	for {
		run, err := dec.Read(dst)
		out = append(out, run...)
		if err != nil {
			return out, noEOF(err)
		}
	}
}

func noEOF(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}

// TestBinaryDecodeBatchMatchesNext holds the binary decoder's batch
// loop, which decodes whole runs out of the read buffer, to its Next
// loop: the same requests, and the same error text after the same
// number of records. The inputs span several 128 KB buffer refills
// and end every way a bin stream can; each is read with dst lengths
// that divide a buffer's records unevenly.
func TestBinaryDecodeBatchMatchesNext(t *testing.T) {
	const n = 10_000 // ≈ 340 KB of records
	tr := benchTrace(n)
	var counted, streamed, empty bytes.Buffer
	if err := WriteBinary(&counted, tr); err != nil {
		t.Fatal(err)
	}
	if err := EncodeTrace(NewBinaryEncoder(&streamed), tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&empty, &Trace{Name: tr.Name, Workload: tr.Workload, Set: tr.Set, TsdevKnown: tr.TsdevKnown}); err != nil {
		t.Fatal(err)
	}
	hdr := empty.Len()
	withCount := func(b []byte, count uint64) []byte {
		b = bytes.Clone(b)
		binary.LittleEndian.PutUint64(b[hdr-8:], count)
		return b
	}
	rec := func(i int) int { return hdr + i*binRecordLen }
	inputs := map[string][]byte{
		"counted":               counted.Bytes(),
		"streamed":              streamed.Bytes(),
		"counted-short":         counted.Bytes()[:rec(n-500)],
		"counted-partial":       counted.Bytes()[:rec(n-500)+5],
		"streamed-partial":      streamed.Bytes()[:rec(n-1)+20],
		"bytes-past-count":      withCount(append(counted.Bytes(), counted.Bytes()[hdr:rec(7)+3]...), n),
		"count-inside-records":  withCount(counted.Bytes(), n-4321),
		"truncated-header":      counted.Bytes()[:hdr-3],
		"bad-magic-then-record": append([]byte("XXXX"), counted.Bytes()[4:]...),
	}
	sizes := []int{1, 3, 1024, 5000}
	for name, data := range inputs {
		newDec := func() seqDecoder { return newSeq(t, "bin", data) }
		compareDrains(t, name, newDec, sizes)
	}
}

// compareDrains reads fresh decoders from newDec with next and with
// Read at each size, and requires identical outcomes.
func compareDrains(t *testing.T, name string, newDec func() seqDecoder, sizes []int) {
	t.Helper()
	want, wantErr := drainBy(newDec(), 0)
	for _, size := range sizes {
		got, gotErr := drainBy(newDec(), size)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, dst %d: Read delivered %d records, next %d (or they differ)", name, size, len(got), len(want))
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s, dst %d: Read ends with %v, next with %v", name, size, gotErr, wantErr)
		}
	}
}

// TestCSVDecodeBatchMatchesNext holds the csv decoder's batch loop,
// which decodes the whole lines already in the read buffer, to its Next
// loop: the same requests, and the same error text (line number
// included) after the same number of records. Each input spans several
// 128 KB buffer refills and carries one hazard of the batch loop: lines
// it must hand to the shared per-line body (CRLF, comments, blank
// lines, slow-path records, a late header), bad records on and off a
// dst boundary, a line longer than the buffer, and an unterminated or
// over-long last line.
func TestCSVDecodeBatchMatchesNext(t *testing.T) {
	const n = 10_000 // ≈ 400 KB of records
	tr := benchTrace(n)
	var plain bytes.Buffer
	if err := WriteCSV(&plain, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(plain.String(), "\n")
	lines = lines[:len(lines)-1] // the empty tail after the last '\n'
	const hdr = 2                // the metadata header and the column comment
	// edit returns the input with fn applied to every record line (its
	// index among the records, and its text with the '\n').
	edit := func(fn func(i int, line string) string) []byte {
		var b strings.Builder
		b.WriteString(strings.Join(lines[:hdr], ""))
		for i, l := range lines[hdr:] {
			b.WriteString(fn(i, l))
		}
		return []byte(b.String())
	}
	replaceAt := func(at int, with string) func(int, string) string {
		return func(i int, l string) string {
			if i == at {
				return with
			}
			return l
		}
	}
	long := strings.Repeat(" ", 150<<10)
	late := "# tracetracker name=late workload=w set=FIU tsdev_known=false\n"
	inputs := map[string][]byte{
		"plain": plain.Bytes(),
		"crlf-comments": edit(func(i int, l string) string {
			l = strings.TrimSuffix(l, "\n") + "\r\n"
			if i%97 == 0 {
				l = "# note\n#\n\n  \t\n" + l
			}
			return l
		}),
		"late-header": edit(replaceAt(5000, late)),
		"slow-path": edit(func(i int, l string) string {
			switch i % 13 {
			case 1:
				return "1.25e3" + l[strings.IndexByte(l, ','):] // exponent float
			case 2:
				return strings.Replace(l, ",R,", ",Read,", 1) // word op
			case 3:
				return strings.Replace(strings.Replace(l, ",R,", ",0,", 1), ",W,", ",1,", 1)
			}
			return l
		}),
		"bad-at-boundary":      edit(replaceAt(3072, "1,2,3\n")),
		"bad-mid-batch":        edit(replaceAt(1500, "12.5,0,x,8,R,90.0,0\n")),
		"long-lines":           edit(replaceAt(100, "# "+long+"\n")),
		"long-record":          edit(replaceAt(4000, long+lines[hdr+4000])),
		"unterminated":         plain.Bytes()[:plain.Len()-1],
		"unterminated-partial": plain.Bytes()[:plain.Len()-9],
		"line-too-long":        append(bytes.Clone(plain.Bytes()), bytes.Repeat([]byte("7"), maxLineLen+10)...),
	}
	// The inputs whose decode must end in an error; the rest decode.
	fails := map[string]bool{
		"late-header": true, "bad-at-boundary": true, "bad-mid-batch": true,
		"unterminated-partial": true, "line-too-long": true,
	}
	sizes := []int{1, 3, 1024, 5000}
	for name, data := range inputs {
		newDec := func() seqDecoder { return newSeq(t, "csv", data) }
		if _, err := drainBy(newDec(), 0); (err != nil) != fails[name] {
			t.Fatalf("%s: next loop ends with %v", name, err)
		}
		compareDrains(t, name, newDec, sizes)
	}
}

// TestAppendRecordsMatchesWrite holds the shard render form to the
// serial one: for csv and bin, AppendRecords over runs of 1, of 7 and
// of the whole input must equal, byte for byte, what Write emits for
// the same records — including the records that take the AppendFloat
// fallback (a negative latency, an arrival of 2^52 ns and more), an op
// outside Read/Write, and every integer field at its maximum.
func TestAppendRecordsMatchesWrite(t *testing.T) {
	reqs := benchTrace(1000).Requests
	reqs = append(reqs,
		Request{Arrival: 5 * time.Second, LBA: 8, Sectors: 8, Op: Read, Latency: -3 * time.Microsecond},
		Request{Arrival: 1 << 52, Device: 1, LBA: 16, Sectors: 8, Op: Write},
		Request{Arrival: math.MaxInt64, Latency: math.MinInt64, Op: Op(7), Async: true},
		Request{Arrival: 7, Device: math.MaxUint32, LBA: math.MaxUint64, Sectors: math.MaxUint32, Op: Op(255)},
		Request{Device: math.MaxUint32, LBA: math.MaxUint32, Sectors: 1, Op: Write, Latency: 1},
	)
	for _, format := range []string{"csv", "bin"} {
		var want bytes.Buffer
		enc, err := NewEncoder(format, &want, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			if err := enc.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		se := enc.(ShardEncoder)
		for _, run := range []int{1, 7, len(reqs)} {
			var got []byte
			for i := 0; i < len(reqs); i += run {
				got = se.AppendRecords(got, reqs[i:min(i+run, len(reqs))])
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s, runs of %d: AppendRecords renders %d bytes that differ from Write's %d", format, run, len(got), want.Len())
			}
		}
	}
}

// TestReorderDecoder checks the bounded window recovers the stable
// arrival sort of a near-sorted stream.
func TestReorderDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reqs []Request
	for i := 0; i < 500; i++ {
		reqs = append(reqs, Request{
			Arrival: time.Duration(i) * time.Millisecond,
			LBA:     uint64(i), Sectors: 8, Op: Read,
		})
	}
	// Displace locally within a window of 8.
	shuffled := append([]Request(nil), reqs...)
	for i := 0; i+8 <= len(shuffled); i += 8 {
		rng.Shuffle(8, func(a, b int) {
			shuffled[i+a], shuffled[i+b] = shuffled[i+b], shuffled[i+a]
		})
	}
	var buf bytes.Buffer
	if err := EncodeTrace(NewBinaryEncoder(&buf), &Trace{Requests: shuffled}); err != nil {
		t.Fatal(err)
	}
	dec := newReorderDecoder(newSeq(t, "bin", buf.Bytes()), 16)
	got, err := drain(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Requests, reqs) {
		t.Fatal("reorder decoder did not restore sorted order")
	}
	if run, err := dec.Read(make([]Request, 1)); len(run) != 0 || err != io.EOF {
		t.Fatalf("want io.EOF and no data after drain, got %d records and %v", len(run), err)
	}
}

// TestReorderDecoderExactWindow checks the documented bound is
// inclusive: a request displaced by exactly `window` positions is
// still sorted into place.
func TestReorderDecoderExactWindow(t *testing.T) {
	// Arrivals [2ms, 3ms, 1ms]: the 1ms record sits 2 positions past
	// its sorted slot, so window=2 must recover [1,2,3].
	reqs := []Request{
		{Arrival: 2 * time.Millisecond, LBA: 2, Sectors: 8, Op: Read},
		{Arrival: 3 * time.Millisecond, LBA: 3, Sectors: 8, Op: Read},
		{Arrival: 1 * time.Millisecond, LBA: 1, Sectors: 8, Op: Read},
	}
	var buf bytes.Buffer
	if err := EncodeTrace(NewBinaryEncoder(&buf), &Trace{Requests: reqs}); err != nil {
		t.Fatal(err)
	}
	got, err := drain(newReorderDecoder(newSeq(t, "bin", buf.Bytes()), 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got.Requests); i++ {
		if got.Requests[i].Arrival < got.Requests[i-1].Arrival {
			t.Fatalf("window-sized displacement not sorted: %v", got.Requests)
		}
	}
}

// TestMSRCDecoderMatchesReader checks the streaming MSRC decoder plus
// a reorder window reproduces ReadFormat("msrc") on near-sorted input.
func TestMSRCDecoderMatchesReader(t *testing.T) {
	const msrc = `128166372003061629,web,0,Write,8192,4096,501
128166372002869395,web,0,Read,0,4096,1003
128166372013321843,web,1,Write,12288,8192,702
`
	want, err := ReadFormat("msrc", strings.NewReader(msrc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := drain(newReorderDecoder(newSeq(t, "msrc", []byte(msrc)), 64))
	if err != nil {
		t.Fatal(err)
	}
	got.applyMeta(got.Meta())
	if !reflect.DeepEqual(got.Requests, want.Requests) {
		t.Fatalf("msrc stream mismatch:\n got %+v\nwant %+v", got.Requests, want.Requests)
	}
	if got.Set != "MSRC" || !got.TsdevKnown || got.Workload != "web" {
		t.Fatalf("msrc meta: %+v", got.Meta())
	}
}

// TestSPCDecoderMatchesReader checks the SPC streaming decoder against
// ReadFormat("spc").
func TestSPCDecoderMatchesReader(t *testing.T) {
	const spc = `0,20941264,8192,W,0.000000
0,20939840,8192,W,0.001020
1,3072,1024,R,0.000511
`
	want, err := ReadFormat("spc", strings.NewReader(spc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := drain(newReorderDecoder(newSeq(t, "spc", []byte(spc)), 64))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Requests, want.Requests) {
		t.Fatalf("spc stream mismatch:\n got %+v\nwant %+v", got.Requests, want.Requests)
	}
}

// TestPadded holds the spc grammar's guard to what it skips: a slice
// padded calls unpadded is one bytes.TrimSpace returns unchanged, for
// every first and last byte, every Unicode space at either end, and
// the empty slice.
func TestPadded(t *testing.T) {
	check := func(b []byte) {
		t.Helper()
		if !padded(b) && !bytes.Equal(bytes.TrimSpace(b), b) {
			t.Fatalf("padded(%q) = false, but bytes.TrimSpace trims it to %q", b, bytes.TrimSpace(b))
		}
	}
	check(nil)
	check([]byte{})
	for first := range 256 {
		for last := range 256 {
			check([]byte{byte(first), 'x', byte(last)})
		}
		check([]byte{byte(first)})
	}
	for _, sp := range []string{"\u0085", "\u00a0", "\u2000", "\u3000", "\t", "\v", "\f", "\r", "\n", " "} {
		check([]byte(sp + "7"))
		check([]byte("7" + sp))
	}
	if padded([]byte("20941264")) || !padded([]byte(" 8192")) || !padded([]byte("W\r")) {
		t.Fatal("padded misreads a plain or a padded field")
	}
}

// TestBinSize: BinSize is the length of what BinaryEncoder writes.
func TestBinSize(t *testing.T) {
	tr := streamSample()
	tr.Name = strings.Repeat("n", 300)
	var buf bytes.Buffer
	if err := EncodeTrace(NewBinaryEncoder(&buf), tr); err != nil {
		t.Fatal(err)
	}
	if got := BinSize(tr.Meta(), int64(tr.Len())); got != int64(buf.Len()) {
		t.Fatalf("BinSize = %d, the encoder wrote %d bytes", got, buf.Len())
	}
}

// TestCSVLateHeaderRejected checks a metadata header behind data rows
// (concatenated files) is an error on both the streaming and the
// whole-trace path, so they cannot silently diverge.
func TestCSVLateHeaderRejected(t *testing.T) {
	const in = "1.000,0,100,8,R,5.000,0\n" +
		"# tracetracker name=x workload=w set=S tsdev_known=true\n" +
		"2.000,0,200,8,R,5.000,0\n"
	if _, err := ReadFormat("csv", strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "metadata header after data") {
		t.Fatalf("ReadFormat late header: got %v", err)
	}
	dec, one := newSeq(t, "csv", []byte(in)), make([]Request, 1)
	if _, err := dec.Read(one); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Read(one); err == nil || !strings.Contains(err.Error(), "metadata header after data") {
		t.Fatalf("decoder late header: got %v", err)
	}
	// A plain comment between rows stays legal.
	const ok = "# tracetracker name=x workload=w set=S tsdev_known=true\n" +
		"1.000,0,100,8,R,5.000,0\n" +
		"# just a note\n" +
		"2.000,0,200,8,R,5.000,0\n"
	tr, err := ReadFormat("csv", strings.NewReader(ok))
	if err != nil || tr.Len() != 2 {
		t.Fatalf("plain comment: %v, %d requests", err, tr.Len())
	}
}

// TestSeqState checks the incremental sequentiality tracker — one
// request at a time and in runs of any length — against a direct
// per-device map over devices on both sides of the array fast path.
func TestSeqState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	devices := []uint32{0, 1, 15, 16, 40, 1 << 31}
	reqs := make([]Request, 5000)
	ends := map[uint32]uint64{}
	want := make([]bool, len(reqs))
	for i := range reqs {
		d := devices[rng.Intn(len(devices))]
		lba := uint64(rng.Intn(64))
		if end, ok := ends[d]; ok && rng.Intn(3) > 0 {
			lba = end
		}
		reqs[i] = Request{Device: d, LBA: lba, Sectors: uint32(1 + rng.Intn(8))}
		end, seen := ends[d]
		want[i] = seen && lba == end
		ends[d] = reqs[i].End()
	}
	st := NewSeqState()
	for i, r := range reqs {
		if got := st.Flag(r); got != want[i] {
			t.Fatalf("Flag %d: got %v want %v", i, got, want[i])
		}
	}
	for _, size := range []int{1, 7, 1024, len(reqs)} {
		st, got := NewSeqState(), []bool{}
		for i := 0; i < len(reqs); i += size {
			got = st.AppendFlags(got, reqs[i:min(i+size, len(reqs))])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendFlags in runs of %d differs from the per-device rule", size)
		}
	}
	if !reflect.DeepEqual((&Trace{Requests: reqs}).SeqFlags(), want) {
		t.Fatal("SeqFlags differs from the per-device rule")
	}
}

// countingDecoder wraps a decoder and counts how many requests the
// consumer has pulled out of it.
type countingDecoder struct {
	Decoder
	n int
}

func (c *countingDecoder) Read(dst []Request) ([]Request, error) {
	run, err := c.Decoder.Read(dst)
	c.n += len(run)
	return run, err
}

// batchSizeRecorder wraps a decoder recording how many records each
// inner Read delivered, and the running total.
type batchSizeRecorder struct {
	Decoder
	n     int
	sizes []int
}

func (c *batchSizeRecorder) Read(dst []Request) ([]Request, error) {
	run, err := c.Decoder.Read(dst)
	if len(run) > 0 {
		c.n += len(run)
		c.sizes = append(c.sizes, len(run))
	}
	return run, err
}

// TestReorderDecoderBatchedRefill is the regression test for the PR 4
// known delta (steady-state refill dropped to one record per emit):
// the batch path must refill from the inner decoder in multi-record
// reads while the hard window+1 read-ahead bound still holds at every
// point the consumer can observe, and the output must stay the stable
// arrival sort.
func TestReorderDecoderBatchedRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 4_000
	const window = 16
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Arrival: time.Duration(i) * time.Millisecond,
			LBA:     uint64(i * 8),
			Sectors: 8,
			Op:      Read,
		}
	}
	shuffled := append([]Request(nil), reqs...)
	for i := 0; i+window < len(shuffled); i += window {
		rng.Shuffle(window, func(a, b int) {
			shuffled[i+a], shuffled[i+b] = shuffled[i+b], shuffled[i+a]
		})
	}
	var buf bytes.Buffer
	if err := EncodeTrace(NewBinaryEncoder(&buf), &Trace{Requests: shuffled}); err != nil {
		t.Fatal(err)
	}

	rec := &batchSizeRecorder{Decoder: newSeq(t, "bin", buf.Bytes())}
	dec := newReorderDecoder(rec, window)
	var got []Request
	tmp := make([]Request, 64)
	for {
		run, err := dec.Read(tmp)
		got = append(got, run...)
		// The hard bound, observed at every consumer-visible point: the
		// decoder has read at most window+1 records past its output.
		if ahead := rec.n - len(got); ahead > window+1 {
			t.Fatalf("reorder decoder read %d records past its output; window is %d", ahead, window)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatal("batched reorder output is not the stable arrival sort")
	}
	max := 0
	for _, s := range rec.sizes {
		if s > max {
			max = s
		}
	}
	if max <= 1 {
		t.Fatalf("refill never batched: max inner read %d records (%d calls for %d records)",
			max, len(rec.sizes), rec.n)
	}
}

// TestReorderDecoderWindowBound is the regression test for the PR 3
// caveat: a ReorderDecoder must never read more than window+1 records
// past what it has emitted — the declared window is a hard buffering
// bound, not a refill hint that batching may overshoot by hundreds of
// records.
func TestReorderDecoderWindowBound(t *testing.T) {
	tr := benchTrace(4_000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	const window = 7
	cd := &countingDecoder{Decoder: newSeq(t, "bin", buf.Bytes())}
	dec := newReorderDecoder(cd, window)
	emitted := 0
	one := make([]Request, 1)
	for {
		_, err := dec.Read(one)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		emitted++
		if ahead := cd.n - emitted; ahead > window+1 {
			t.Fatalf("reorder decoder read %d records past its output; window is %d", ahead, window)
		}
	}
	if emitted != tr.Len() {
		t.Fatalf("emitted %d of %d", emitted, tr.Len())
	}
}
