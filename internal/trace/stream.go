package trace

// Streaming layer: a Decoder yields requests in runs and an Encoder
// consumes them one at a time, so pipelines can process traces far
// larger than memory. Every on-disk format's codec lives here; the
// codec table (format.go) says which formats exist, and the whole-trace
// readers and writers drain or feed these same codecs, so the two paths
// cannot drift apart.
//
// The codecs are allocation-free in steady state: text decoders scan
// lines as byte slices (scan.go) with no per-record string or field
// allocations, encoders render into a reusable buffer, and Read hands
// over a run per call, so consumers pay one interface call per run,
// not per record. trace/zeroalloc_test.go locks the zero-allocs property
// for all four input formats and all four output formats.
//
// NewDecoder and NewParallelDecoder yield requests in file order. The
// MSRC and SPC corpora are only nearly sorted (event tracing reorders
// completions), so how far a record can sit from its arrival slot is a
// property of the format, a row of the codec table (ReorderWindow):
// ReadFormat sorts the drained trace, and OpenFileDecoder — the decoder
// every streaming consumer of a file reads — yields arrival order
// through a bounded reorder window of that size.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// Meta is the trace-level metadata that travels alongside a request
// stream: everything a Trace carries except the requests themselves.
type Meta struct {
	Name       string
	Workload   string
	Set        string
	TsdevKnown bool
}

// Meta extracts the stream metadata of a trace.
func (t *Trace) Meta() Meta {
	return Meta{Name: t.Name, Workload: t.Workload, Set: t.Set, TsdevKnown: t.TsdevKnown}
}

// applyMeta copies m into the trace's metadata fields.
func (t *Trace) applyMeta(m Meta) {
	t.Name, t.Workload, t.Set, t.TsdevKnown = m.Name, m.Workload, m.Set, m.TsdevKnown
}

// Decoder yields the requests of a trace in runs. It is the one
// contract every decoder in the tree implements: the four codecs
// (NewDecoder, OpenFileDecoder), ReadAhead, the reorder window and
// the engine's view of a materialised trace.
type Decoder interface {
	// Read returns the next run of 1..len(dst) requests (len(dst) > 0).
	// The run is either written into dst or is a view the decoder owns,
	// valid until the next call. At the end of the stream it returns an
	// empty run and io.EOF. Records decoded before a parse error arrive
	// before the error or together with it.
	Read(dst []Request) ([]Request, error)
	// Meta returns the metadata seen so far. Formats carry metadata in
	// a header, so Meta is complete after the first Read (and for
	// headered formats after construction); callers that emit metadata
	// should read a first run before.
	Meta() Meta
	// Close releases what the decoder holds: its decode goroutine, its
	// read buffers and the file it opened. A consumer that abandons the
	// stream before EOF or an error must call it, or a ReadAhead leaks
	// its goroutine. It is idempotent; after it, Read returns an
	// error (errClosed, in this package) and no data, and nothing Read
	// returned may be used.
	Close()
}

// errClosed is what Read returns once Close has run.
var errClosed = errors.New("trace: read after Close")

// endRun is how a codec's batch loop ends: the n records it decoded into
// dst, with err unless that is the end of the stream behind them,
// which the next Read reports.
func endRun(dst []Request, n int, err error) ([]Request, error) {
	if err == io.EOF && n > 0 {
		err = nil
	}
	return dst[:n], err
}

// DecodeBatch fills dst from dec: it returns len(dst) with a nil
// error, or fewer with what ended the stream (io.EOF or the parse
// error). It is a loop over Read, kept for the benchmark's
// trace.decode row; everything else reads runs with Read.
func DecodeBatch(dec Decoder, dst []Request) (int, error) {
	n := 0
	for n < len(dst) {
		run, err := dec.Read(dst[n:])
		n += copy(dst[n:], run)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ForEachBatch drains dec to EOF, invoking fn on each run Read
// returns. It returns fn's first error, or the decode error; the slice
// handed to fn is only valid for that call. This is the one drain loop
// shared by every whole-stream consumer (Summarize, the engine's model
// fit and produce loop), so decoder-facing changes land in one place.
// Its scratch is a kept request batch: a decoder that returns views
// never touches it, and a sequential one decodes straight into it.
func ForEachBatch(dec Decoder, fn func([]Request) error) error {
	buf := borrowBatch()
	defer returnBatch(buf)
	for {
		run, err := dec.Read(buf)
		if len(run) > 0 {
			if ferr := fn(run); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Encoder consumes a request stream and renders one on-disk format.
type Encoder interface {
	// Begin emits the format's header. It must be called exactly once,
	// before the first Write.
	Begin(Meta) error
	// Write appends one request.
	Write(Request) error
	// Close terminates the stream and flushes buffered output. It does
	// not close the underlying writer.
	Close() error
}

// ShardEncoder is implemented by encoders whose record rendering is a
// pure function of the request — no cross-record state — so parallel
// shard workers can render runs of records into private buffers
// concurrently and an ordered merger can splice them into the output
// verbatim. The engine's workers render a whole epoch per call, one
// AppendRecords over its records into one pooled buffer. csv and bin
// qualify; blktrace (event sequence numbers) and fio (inter-arrival
// waits, open/close bracketing) do not and take the serial Write path.
type ShardEncoder interface {
	Encoder
	// AppendRecords appends to dst exactly the bytes Write would emit
	// for each of rs in turn. It must be safe for concurrent use.
	AppendRecords(dst []byte, rs []Request) []byte
	// WriteRaw splices pre-rendered record bytes into the stream, as
	// if each rendered record had been passed to Write in order.
	WriteRaw(p []byte) error
}

// EncodeTrace streams a whole trace through enc.
func EncodeTrace(enc Encoder, t *Trace) error {
	if err := enc.Begin(t.Meta()); err != nil {
		return err
	}
	for _, r := range t.Requests {
		if err := enc.Write(r); err != nil {
			return err
		}
	}
	return enc.Close()
}

// SeqState tracks per-device end positions so sequentiality flags can
// be computed incrementally. Flag returns the classification of each
// request presented in trace order, and AppendFlags the flags of a
// whole run; trace.SeqFlags delegates here. One SeqState runs over a
// whole stream, so flags computed run by run are the whole-trace
// flags: the engine's planner flags every run on one, and a shard
// carries only its boundary request and that request's flag.
//
// The public corpora use a handful of small device numbers, so the
// first smallDevices devices live in a flat array — a flag on them
// costs two array accesses instead of two map operations, which
// matters in the per-batch runs of the planner and the ingest fold.
// Larger device IDs fall back to a lazily-built map.
type SeqState struct {
	smallEnd  [smallDevices]uint64
	smallSeen uint32 // bitmask over smallEnd
	lastEnd   map[uint32]uint64
}

// smallDevices is the device-number range SeqState tracks in its
// array fast path.
const smallDevices = 16

// NewSeqState returns an empty sequentiality tracker.
func NewSeqState() *SeqState {
	return &SeqState{}
}

// Flag classifies r (true = sequential) and advances the state.
func (s *SeqState) Flag(r Request) bool {
	if r.Device < smallDevices {
		return s.flagSmall(&r)
	}
	return s.flagMapped(&r)
}

// AppendFlags is the run form of Flag: it classifies rs in order,
// appends their flags to dst and returns the extended slice.
//
//tracelint:hotpath
func (s *SeqState) AppendFlags(dst []bool, rs []Request) []bool {
	n := len(dst)
	dst = slices.Grow(dst, len(rs))[:n+len(rs)]
	out := dst[n:]
	for i := range rs {
		if r := &rs[i]; r.Device < smallDevices {
			out[i] = s.flagSmall(r)
		} else {
			out[i] = s.flagMapped(r)
		}
	}
	return dst
}

// flagSmall is the sequentiality rule for a device in the array fast
// path, small enough to inline into Flag and AppendFlags: r is
// sequential when it starts where the previous request on its device
// ended.
func (s *SeqState) flagSmall(r *Request) bool {
	d := r.Device & (smallDevices - 1)
	end, seen := s.smallEnd[d], s.smallSeen>>d&1 != 0
	s.smallEnd[d] = r.End()
	s.smallSeen |= 1 << d
	return seen && r.LBA == end
}

// flagMapped is flagSmall for a device number outside the array fast
// path.
func (s *SeqState) flagMapped(r *Request) bool {
	if s.lastEnd == nil {
		s.lastEnd = make(map[uint32]uint64, 4)
	}
	end, seen := s.lastEnd[r.Device]
	s.lastEnd[r.Device] = r.End()
	return seen && r.LBA == end
}

// --- text formats ---

// text is what the three text decoders (csv, msrc, spc) share: the
// lines of their source, counted, and the loops that hand them to the
// format's grammar — the decoder's line function, the only code that
// parses or skips a text record. DetectFormat asks that function
// whether a line is a record of the format.
type text struct {
	source
	lineno  int
	grammar lineParser // the decoder this text is part of
}

// lineParser is a text format's grammar: line parses input line lineno,
// without its '\n', into *r. ok reports a record; a blank line or a
// comment yields neither a record nor an error. *r holds a record only
// when ok.
type lineParser interface {
	line(line []byte, r *Request) (ok bool, err error)
}

// textDecoder is a text format's decoder, as the codec table builds it.
type textDecoder interface {
	Decoder
	lineParser
	init(s source, g lineParser)
}

// newText returns d reading the lines of s.
func newText[D textDecoder](d D, s source) D {
	d.init(s, d)
	return d
}

// init sets the source t reads and the grammar of the decoder t is part
// of.
func (t *text) init(s source, g lineParser) { t.source, t.grammar = s, g }

// read hands lines to the grammar until one holds a record, into *r:
// the one loop over nextLine, which the batch loop (Read) falls back on
// when no whole line is buffered.
//
//tracelint:hotpath
func (t *text) read(r *Request) error {
	for {
		line, err := t.nextLine()
		if err != nil {
			return err
		}
		t.lineno++
		if ok, err := t.grammar.line(line, r); ok || err != nil {
			return err
		}
	}
}

// Read implements Decoder. It hands the whole lines already in the
// read buffer to the grammar in one loop, with one Discard per run, and
// falls back on read for one record only when no whole line is buffered
// (a refill, a line longer than the buffer, an unterminated last line,
// EOF), so every error keeps read's text and line number. A csv record
// of the fast shape (parseNativeFast) is parsed up to its '\n' with no
// separate search for the line end.
//
//tracelint:hotpath
func (t *text) Read(dst []Request) ([]Request, error) {
	if t.closed {
		return nil, errClosed
	}
	csv, _ := t.grammar.(*csvDecoder)
	br := t.br
	n := 0
	for n < len(dst) {
		buf, _ := br.Peek(br.Buffered())
		used := 0
		for n < len(dst) {
			rest := buf[used:]
			if csv != nil {
				if k := parseNativeFast(rest, &dst[n]); k > 0 && k < len(rest) && rest[k] == '\n' {
					used += k + 1
					t.lineno++
					csv.sawData = true
					n++
					continue
				}
			}
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			used += i + 1
			t.lineno++
			ok, err := t.grammar.line(rest[:i], &dst[n])
			if err != nil {
				br.Discard(used)
				return dst[:n], err
			}
			if ok {
				n++
			}
		}
		br.Discard(used)
		if n == len(dst) || used > 0 {
			continue
		}
		if err := t.read(&dst[n]); err != nil {
			return endRun(dst, n, err)
		}
		n++
	}
	return dst, nil
}

// --- native CSV ---

// csvHeaderPrefix marks the native metadata header comment.
var csvHeaderPrefix = []byte("# tracetracker ")

// csvDecoder streams the native CSV format.
type csvDecoder struct {
	text
	meta    Meta
	t       Trace // scratch for header parsing
	sawData bool
}

// Meta implements Decoder.
func (d *csvDecoder) Meta() Meta { return d.meta }

// line is the csv grammar (lineParser): a metadata header comment
// sets the stream metadata, any other comment is skipped, and a record
// is parsed by the fast path or, failing that, field by field.
//
//tracelint:hotpath
func (d *csvDecoder) line(line []byte, r *Request) (bool, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return false, nil
	}
	if line[0] == '#' {
		if bytes.HasPrefix(line, csvHeaderPrefix) && d.sawData {
			// A metadata header behind data rows (concatenated files)
			// cannot be honoured by a streaming consumer that already
			// acted on the old metadata — reject it rather than let
			// streaming and whole-trace paths silently diverge.
			return false, fmt.Errorf("trace: line %d: metadata header after data rows", d.lineno)
		}
		d.t.applyMeta(d.meta)
		//tracelint:ignore hotpath header-comment path: runs once per header line, not per record
		parseHeaderComment(&d.t, string(line))
		d.meta = d.t.Meta()
		return false, nil
	}
	// line is not empty, so a whole-line fast parse is a non-zero length.
	if parseNativeFast(line, r) != len(line) {
		var f [8][]byte
		if n := splitComma(f[:], line); n != 7 {
			return false, fmt.Errorf("trace: line %d: want 7 fields, got %d", d.lineno, n)
		}
		req, err := parseNativeLine(f[:7])
		if err != nil {
			return false, fmt.Errorf("trace: line %d: %w", d.lineno, err)
		}
		*r = req
	}
	d.sawData = true
	return true, nil
}

// CSVEncoder streams the native CSV format.
type CSVEncoder struct {
	bw  *bufio.Writer
	buf []byte // reusable line scratch
}

// NewCSVEncoder wraps w in a native-CSV request sink.
func NewCSVEncoder(w io.Writer) *CSVEncoder {
	return &CSVEncoder{bw: bufio.NewWriter(w)}
}

// Begin implements Encoder.
func (e *CSVEncoder) Begin(m Meta) error {
	fmt.Fprintf(e.bw, "# tracetracker name=%s workload=%s set=%s tsdev_known=%v\n",
		m.Name, m.Workload, m.Set, m.TsdevKnown)
	_, err := fmt.Fprintln(e.bw, "# arrival_us,device,lba,sectors,op,latency_us,async")
	return err
}

// maxCSVRecordLen bounds one rendered native-CSV record: two
// timestamps of at most maxFixedLen bytes, a 10-digit device and sector
// count, a 20-digit LBA, an op of at most 7 ("Op(255)"), five commas
// and ",1\n".
const maxCSVRecordLen = 2*maxFixedLen + 10 + 10 + 20 + 7 + 5 + 3

// appendCSVRecord renders one native-CSV record line, the pure
// function behind both Write and AppendRecords. It reserves room for
// the worst case once and writes the fields at running offsets, so no
// field writer checks capacity.
//
//tracelint:hotpath
func appendCSVRecord(b []byte, r *Request) []byte {
	n := len(b)
	b = slices.Grow(b, maxCSVRecordLen)
	w := b[n : n+maxCSVRecordLen]
	i := putMicros(w, r.Arrival)
	w[i] = ','
	i++
	i += putUint(w[i:], uint64(r.Device))
	w[i] = ','
	i++
	i += putUint(w[i:], r.LBA)
	w[i] = ','
	i++
	i += putUint(w[i:], uint64(r.Sectors))
	w[i] = ','
	i++
	i += len(appendOp(w[i:i], r.Op))
	w[i] = ','
	i++
	i += putMicros(w[i:], r.Latency)
	w[i], w[i+1], w[i+2] = ',', '0', '\n'
	if r.Async {
		w[i+1] = '1'
	}
	return b[:n+i+3]
}

// Write implements Encoder.
//
//tracelint:hotpath
func (e *CSVEncoder) Write(r Request) error {
	b := appendCSVRecord(e.buf[:0], &r)
	e.buf = b
	_, err := e.bw.Write(b)
	return err
}

// AppendRecords implements ShardEncoder. Each record is rendered after
// one capacity check against maxCSVRecordLen, so the field writers
// never grow dst; when the room runs out it is grown once for all the
// records still to come (growCSV).
//
//tracelint:hotpath
func (e *CSVEncoder) AppendRecords(dst []byte, rs []Request) []byte {
	start := len(dst)
	for i := range rs {
		if cap(dst)-len(dst) < maxCSVRecordLen {
			dst = growCSV(dst, len(dst)-start, i, len(rs)-i)
		}
		dst = appendCSVRecord(dst, &rs[i])
	}
	return dst
}

// growCSV makes room in b for the rest records still to render, after
// done records took rendered bytes: at their mean length plus an eighth
// of slack — the records so far predict the rest, within the slack for
// text — and never less than one worst-case record. Sized on the
// records actually seen, a rendered epoch stays close to its true size
// where a worst-case reservation would be about 2.5 times it.
func growCSV(b []byte, rendered, done, rest int) []byte {
	need := maxCSVRecordLen
	if done > 0 {
		mean := rendered / done
		need = max(need, rest*(mean+mean/8))
	}
	return slices.Grow(b, need)
}

// WriteRaw implements ShardEncoder.
func (e *CSVEncoder) WriteRaw(p []byte) error {
	_, err := e.bw.Write(p)
	return err
}

// Close implements Encoder.
func (e *CSVEncoder) Close() error { return e.bw.Flush() }

// --- compact binary ---

// streamingCount is the request-count sentinel a BinaryEncoder writes:
// it cannot know the count up front, so records simply run to EOF.
// The binary decoder (and therefore ReadFormat) accepts both forms.
const streamingCount = ^uint64(0)

// binRecordLen is the fixed width of one binary request record.
const binRecordLen = 34

// binaryDecoder streams the compact binary format.
type binaryDecoder struct {
	source
	meta      Meta
	headerErr error
	remaining uint64
	counted   bool
	idx       uint64
}

// newBinaryDecoder reads the header; its parse errors surface on the
// first Read.
func newBinaryDecoder(s source) *binaryDecoder {
	d := &binaryDecoder{source: s}
	var count uint64
	d.meta, d.counted, count, d.headerErr = parseBinHeader(d.br)
	if d.counted {
		d.remaining = count
	}
	if d.headerErr == io.EOF {
		// A stream ending inside the header (including a 0-byte file)
		// is a truncated trace, not a clean end-of-stream — Read must
		// not let it masquerade as an empty trace.
		d.headerErr = fmt.Errorf("trace: truncated binary header: %w", io.ErrUnexpectedEOF)
	}
	return d
}

// parseBinHeader reads the binary header (magic, metadata strings,
// flags, request count) from r.
func parseBinHeader(r io.Reader) (m Meta, counted bool, count uint64, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return m, false, 0, err
	}
	if magic != binaryMagic {
		return m, false, 0, fmt.Errorf("trace: bad magic %q", magic)
	}
	readString := func() (string, error) {
		var lenbuf [2]byte
		if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
			return "", err
		}
		buf := make([]byte, binary.LittleEndian.Uint16(lenbuf[:]))
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	if m.Name, err = readString(); err != nil {
		return m, false, 0, err
	}
	if m.Workload, err = readString(); err != nil {
		return m, false, 0, err
	}
	if m.Set, err = readString(); err != nil {
		return m, false, 0, err
	}
	var flags [1]byte
	if _, err := io.ReadFull(r, flags[:]); err != nil {
		return m, false, 0, err
	}
	m.TsdevKnown = flags[0]&1 != 0
	var cnt [8]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return m, false, 0, err
	}
	n := binary.LittleEndian.Uint64(cnt[:])
	if n != streamingCount {
		const maxRequests = 1 << 31
		if n > maxRequests {
			return m, false, 0, fmt.Errorf("trace: implausible request count %d", n)
		}
		return m, true, n, nil
	}
	return m, false, 0, nil
}

// Meta implements Decoder.
func (d *binaryDecoder) Meta() Meta { return d.meta }

// next decodes one record out of the read buffer (Peek/Discard): the
// slow path of Read, and the reference its batch loop is tested
// against.
//
//tracelint:hotpath
func (d *binaryDecoder) next() (Request, error) {
	if d.headerErr != nil {
		return Request{}, d.headerErr
	}
	if d.counted && d.remaining == 0 {
		return Request{}, io.EOF
	}
	rec, err := d.br.Peek(binRecordLen)
	if err != nil {
		if len(rec) == 0 && !d.counted && err == io.EOF {
			return Request{}, io.EOF
		}
		if err == io.EOF && len(rec) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Request{}, fmt.Errorf("trace: truncated at record %d: %w", d.idx, err)
	}
	var r Request
	decodeBinRecord(&r, rec)
	d.br.Discard(binRecordLen)
	if d.counted {
		d.remaining--
	}
	d.idx++
	return r, nil
}

// Read implements Decoder. Every whole record already in the read
// buffer (up to the declared count, for a counted file) is decoded in
// one loop, with one Peek and one Discard per run: bufio copies the file
// through that buffer once, and nothing past it is copied or allocated
// per record. Only when no whole record is buffered — a refill, EOF, a
// truncated record, the counted end, or a header error — does it fall
// back to next for one record, so every error keeps next's text and
// record index.
//
//tracelint:hotpath
func (d *binaryDecoder) Read(dst []Request) ([]Request, error) {
	if d.closed {
		return nil, errClosed
	}
	n := 0
	for n < len(dst) {
		k := min(len(dst)-n, d.br.Buffered()/binRecordLen)
		if d.counted && uint64(k) > d.remaining {
			k = int(d.remaining)
		}
		if k == 0 || d.headerErr != nil {
			r, err := d.next()
			if err != nil {
				return endRun(dst, n, err)
			}
			dst[n] = r
			n++
			continue
		}
		buf, _ := d.br.Peek(k * binRecordLen)
		out := dst[n : n+k]
		for i := range out {
			decodeBinRecord(&out[i], buf[i*binRecordLen:(i+1)*binRecordLen])
		}
		d.br.Discard(k * binRecordLen)
		if d.counted {
			d.remaining -= uint64(k)
		}
		d.idx += uint64(k)
		n += k
	}
	return dst, nil
}

// decodeBinRecord unpacks one fixed-width record into *r, field by
// field, with no temporary.
//
//tracelint:hotpath
func decodeBinRecord(r *Request, rec []byte) {
	_ = rec[binRecordLen-1]
	r.Arrival = time.Duration(binary.LittleEndian.Uint64(rec[0:]))
	r.Device = binary.LittleEndian.Uint32(rec[8:])
	r.LBA = binary.LittleEndian.Uint64(rec[12:])
	r.Sectors = binary.LittleEndian.Uint32(rec[20:])
	r.Op = Op(rec[24])
	r.Latency = time.Duration(binary.LittleEndian.Uint64(rec[25:]))
	r.Async = rec[33] == 1
}

// BinaryEncoder streams the compact binary format. Because the count
// is unknown up front it writes the streamingCount sentinel; files it
// produces are readable by the binary decoder but differ in that one header
// field from WriteBinary output.
type BinaryEncoder struct {
	bw  *bufio.Writer
	rec [binRecordLen]byte
}

// NewBinaryEncoder wraps w in a binary request sink.
func NewBinaryEncoder(w io.Writer) *BinaryEncoder {
	return &BinaryEncoder{bw: bufio.NewWriter(w)}
}

// Begin implements Encoder.
func (e *BinaryEncoder) Begin(m Meta) error {
	return writeBinaryHeader(e.bw, m, streamingCount)
}

// Write implements Encoder.
//
//tracelint:hotpath
func (e *BinaryEncoder) Write(r Request) error {
	return writeBinaryRecord(e.bw, &e.rec, r)
}

// AppendRecords implements ShardEncoder: it grows dst once by
// len(rs) records and packs them straight into it.
//
//tracelint:hotpath
func (e *BinaryEncoder) AppendRecords(dst []byte, rs []Request) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(rs)*binRecordLen)[:n+len(rs)*binRecordLen]
	for i := range rs {
		packBinRecord((*[binRecordLen]byte)(dst[n+i*binRecordLen:]), &rs[i])
	}
	return dst
}

// packBinRecord stores one fixed-width request record, the layout
// decodeBinRecord reads.
func packBinRecord(rec *[binRecordLen]byte, r *Request) {
	binary.LittleEndian.PutUint64(rec[0:], uint64(r.Arrival))
	binary.LittleEndian.PutUint32(rec[8:], r.Device)
	binary.LittleEndian.PutUint64(rec[12:], r.LBA)
	binary.LittleEndian.PutUint32(rec[20:], r.Sectors)
	rec[24] = byte(r.Op)
	binary.LittleEndian.PutUint64(rec[25:], uint64(r.Latency))
	rec[33] = 0
	if r.Async {
		rec[33] = 1
	}
}

// WriteRaw implements ShardEncoder.
func (e *BinaryEncoder) WriteRaw(p []byte) error {
	_, err := e.bw.Write(p)
	return err
}

// Close implements Encoder.
func (e *BinaryEncoder) Close() error { return e.bw.Flush() }

// errLongMeta refuses a metadata string the binary header's 16-bit
// length prefix cannot hold: writing it truncated would make the whole
// file unreadable.
var errLongMeta = errors.New("trace: metadata string too long for the binary header")

// writeBinaryHeader emits the magic, metadata strings, flags and the
// request count (or streamingCount). It writes nothing when a metadata
// string is over math.MaxUint16 bytes.
func writeBinaryHeader(bw *bufio.Writer, m Meta, count uint64) error {
	for _, f := range [...]struct{ field, s string }{{"name", m.Name}, {"workload", m.Workload}, {"set", m.Set}} {
		if len(f.s) > math.MaxUint16 {
			return fmt.Errorf("%w: %s is %d bytes, at most %d fit", errLongMeta, f.field, len(f.s), math.MaxUint16)
		}
	}
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	writeString := func(s string) {
		var lenbuf [2]byte
		binary.LittleEndian.PutUint16(lenbuf[:], uint16(len(s)))
		bw.Write(lenbuf[:])
		bw.WriteString(s)
	}
	writeString(m.Name)
	writeString(m.Workload)
	writeString(m.Set)
	flags := byte(0)
	if m.TsdevKnown {
		flags |= 1
	}
	bw.WriteByte(flags)
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], count)
	_, err := bw.Write(cnt[:])
	return err
}

// BinSize is the length of a binary stream holding n records under the
// metadata m: the header writeBinaryHeader emits (magic, three
// length-prefixed strings, flags, count) plus n fixed-width records.
func BinSize(m Meta, n int64) int64 {
	header := len(binaryMagic) + 3*2 + len(m.Name) + len(m.Workload) + len(m.Set) + 1 + 8
	return int64(header) + n*binRecordLen
}

// writeBinaryRecord emits one fixed-width request record through rec
// (caller-owned scratch, so nothing escapes per record).
func writeBinaryRecord(bw *bufio.Writer, rec *[binRecordLen]byte, r Request) error {
	packBinRecord(rec, &r)
	_, err := bw.Write(rec[:])
	return err
}

// --- MSRC CSV ---

// msrcDecoder streams the Microsoft Research Cambridge CSV format in
// file order:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp and ResponseTime are Windows filetime ticks (100 ns units);
// Offset and Size are bytes. Arrivals are rebased so the first record
// is at zero; response times populate Latency, so the stream is Tsdev
// known. MSRC files are only nearly sorted; OpenFileDecoder reads them
// through the format's reorder window.
type msrcDecoder struct {
	text
	meta  Meta
	base  int64 // the first record's timestamp, once based
	based bool
}

// msrcMeta is the metadata of every MSRC stream before its first
// record names the workload: event-traced, so Tsdev is known.
var msrcMeta = Meta{Set: "MSRC", TsdevKnown: true}

// Meta implements Decoder.
func (d *msrcDecoder) Meta() Meta { return d.meta }

// line is the msrc grammar (lineParser). The first record fixes the
// arrival base and names the workload.
//
//tracelint:hotpath
func (d *msrcDecoder) line(line []byte, r *Request) (bool, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return false, nil
	}
	var f [8][]byte
	if n := splitComma(f[:], line); n != 7 {
		return false, fmt.Errorf("trace: msrc line %d: want 7 fields, got %d", d.lineno, n)
	}
	ts, err := parseIntBytes(f[0], 64)
	if err != nil {
		return false, fmt.Errorf("trace: msrc line %d timestamp: %w", d.lineno, err)
	}
	if !d.based {
		d.base, d.based = ts, true
		//tracelint:ignore hotpath first-record path: the workload name is captured once per stream
		d.meta.Workload = string(f[1])
		d.meta.Name = d.meta.Workload
	}
	disk, err := parseUintBytes(f[2], 32)
	if err != nil {
		return false, fmt.Errorf("trace: msrc line %d disk: %w", d.lineno, err)
	}
	op, err := parseOpBytes(f[3])
	if err != nil {
		return false, fmt.Errorf("trace: msrc line %d: %w", d.lineno, err)
	}
	off, err := parseUintBytes(f[4], 64)
	if err != nil {
		return false, fmt.Errorf("trace: msrc line %d offset: %w", d.lineno, err)
	}
	size, err := parseUintBytes(f[5], 64)
	if err != nil {
		return false, fmt.Errorf("trace: msrc line %d size: %w", d.lineno, err)
	}
	resp, err := parseIntBytes(f[6], 64)
	if err != nil {
		return false, fmt.Errorf("trace: msrc line %d response: %w", d.lineno, err)
	}
	*r = Request{
		Arrival: time.Duration(ts-d.base) * 100, // 100ns ticks
		Device:  uint32(disk),
		LBA:     off / SectorSize,
		Sectors: sectorsOf(size),
		Op:      op,
		Latency: time.Duration(resp) * 100,
	}
	return true, nil
}

// sectorsOf is the sector count of a request of size bytes, at least
// one.
func sectorsOf(size uint64) uint32 {
	return max(uint32((size+SectorSize-1)/SectorSize), 1)
}

// --- SPC-1 ASCII ---

// spcDecoder streams the SPC-1 ASCII format used by several public
// repositories (including parts of the UMass corpus) in file order:
//
//	ASU,LBA,Size,Opcode,Timestamp
//
// LBA is in sectors, Size in bytes, Opcode R/W, Timestamp fractional
// seconds, read as csv times are (parseFixed: 0.000511 is 511,000 ns).
// No completion information is available (TsdevKnown=false).
type spcDecoder struct {
	text
}

// Meta implements Decoder.
func (d *spcDecoder) Meta() Meta { return Meta{TsdevKnown: false} }

// line is the spc grammar (lineParser): five or more fields, each
// trimmed.
//
//tracelint:hotpath
func (d *spcDecoder) line(line []byte, r *Request) (bool, error) {
	if padded(line) {
		line = bytes.TrimSpace(line)
	}
	if len(line) == 0 || line[0] == '#' {
		return false, nil
	}
	var f [8][]byte
	if n := splitComma(f[:], line); n < 5 {
		return false, fmt.Errorf("trace: spc line %d: want 5 fields, got %d", d.lineno, n)
	}
	for i := range f[:5] {
		if padded(f[i]) {
			f[i] = bytes.TrimSpace(f[i])
		}
	}
	asu, err := parseUintBytes(f[0], 32)
	if err != nil {
		return false, fmt.Errorf("trace: spc line %d asu: %w", d.lineno, err)
	}
	lba, err := parseUintBytes(f[1], 64)
	if err != nil {
		return false, fmt.Errorf("trace: spc line %d lba: %w", d.lineno, err)
	}
	size, err := parseUintBytes(f[2], 64)
	if err != nil {
		return false, fmt.Errorf("trace: spc line %d size: %w", d.lineno, err)
	}
	op, err := parseOpBytes(f[3])
	if err != nil {
		return false, fmt.Errorf("trace: spc line %d: %w", d.lineno, err)
	}
	arr, err := parseFixed(f[4], secondPlaces)
	if err != nil {
		return false, fmt.Errorf("trace: spc line %d timestamp: %w", d.lineno, err)
	}
	*r = Request{
		Arrival: arr,
		Device:  uint32(asu),
		LBA:     lba,
		Sectors: sectorsOf(size),
		Op:      op,
	}
	return true, nil
}

// padded reports whether b may have space at either end for
// bytes.TrimSpace to trim: it is empty, or its first or last byte is
// not ASCII above ' ' (a space, or part of a multi-byte rune, which may
// be Unicode space). The spc fields almost never are, and padded
// inlines where bytes.TrimSpace does not, so the spc grammar calls
// bytes.TrimSpace only on a field that needs it.
func padded(b []byte) bool {
	return len(b) == 0 || !unpadded[b[0]] || !unpadded[b[len(b)-1]]
}

// unpadded marks the bytes a field may start or end with and have no
// space to trim: the ASCII ones above ' '.
var unpadded = func() (t [256]bool) {
	for c := '!'; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	return t
}()

// --- blktrace text (encoder) ---

// BlktraceEncoder streams the blktrace text format (the output of
// `blkparse`), which the paper's hardware emulation collects on the
// target node: a D (dispatch) event per request and a C
// (completion) event per request with a recorded Latency, exactly like
// a capture that missed no completions. Each line follows blkparse's
// default layout,
//
//	major,minor cpu seq timestamp pid action rwbs sector + count [info]
//
// e.g.
//
//	8,0    0        1     0.000000000  1234  D   R 383496192 + 64 [fio]
//	8,0    0        2     0.000150000  1234  C   R 383496192 + 64 [0]
//
// with timestamps in seconds at nanosecond resolution.
type BlktraceEncoder struct {
	bw   *bufio.Writer
	name string
	seq  int
	buf  []byte // reusable line scratch
	num  []byte // reusable number scratch for padded fields
}

// NewBlktraceEncoder wraps w in a blktrace event sink.
func NewBlktraceEncoder(w io.Writer) *BlktraceEncoder {
	return &BlktraceEncoder{bw: bufio.NewWriter(w)}
}

// Begin implements Encoder.
func (e *BlktraceEncoder) Begin(m Meta) error {
	e.name = m.Name
	return nil
}

// appendEvent renders one blkparse-style event line, matching the
// previous fmt template "8,%d    0 %8d %14.9f  0  %c   %c %d + %d [%s]\n"
// byte for byte.
func (e *BlktraceEncoder) appendEvent(b []byte, dev uint32, seq int, at time.Duration, ev, rwbs byte, lba uint64, sectors uint32, tag string) []byte {
	b = append(b, "8,"...)
	b = appendUint(b, uint64(dev))
	b = append(b, "    0 "...)
	e.num = appendUint(e.num[:0], uint64(seq))
	b = appendPadded(b, e.num, 8)
	b = append(b, ' ')
	e.num = appendSeconds(e.num[:0], at)
	b = appendPadded(b, e.num, 14)
	b = append(b, "  0  "...)
	b = append(b, ev)
	b = append(b, "   "...)
	b = append(b, rwbs, ' ')
	b = appendUint(b, lba)
	b = append(b, " + "...)
	b = appendUint(b, uint64(sectors))
	b = append(b, " ["...)
	b = append(b, tag...)
	b = append(b, "]\n"...)
	return b
}

// Write implements Encoder.
//
//tracelint:hotpath
func (e *BlktraceEncoder) Write(r Request) error {
	rwbs := byte('R')
	if r.Op == Write {
		rwbs = 'W'
	}
	e.seq++
	b := e.appendEvent(e.buf[:0], r.Device, e.seq, r.Arrival, 'D', rwbs, r.LBA, r.Sectors, e.name)
	if r.Latency > 0 {
		e.seq++
		b = e.appendEvent(b, r.Device, e.seq, r.Arrival+r.Latency, 'C', rwbs, r.LBA, r.Sectors, "0")
	}
	e.buf = b
	_, err := e.bw.Write(b)
	return err
}

// Close implements Encoder.
func (e *BlktraceEncoder) Close() error { return e.bw.Flush() }

// --- fio iolog v2 (encoder) ---

// FIOEncoder streams the fio iolog v2 replay format, so a
// reconstructed trace can drive a real device through
// `fio --read_iolog=...` (WriteFIOJob writes the matching job file):
//
//	fio version 2 iolog
//	<filename> add
//	<filename> open
//	<filename> <action> <offset> <length>
//	<filename> close
//
// fio replays entries back to back; inter-arrival gaps are emitted as
// "wait" lines in microseconds, so idle periods survive the export.
type FIOEncoder struct {
	bw     *bufio.Writer
	device string
	prev   time.Duration
	first  bool
	buf    []byte // reusable line scratch
}

// NewFIOEncoder wraps w in an iolog sink replaying against device.
func NewFIOEncoder(w io.Writer, device string) *FIOEncoder {
	return &FIOEncoder{bw: bufio.NewWriter(w), device: device, first: true}
}

// Begin implements Encoder.
func (e *FIOEncoder) Begin(Meta) error {
	fmt.Fprintln(e.bw, "fio version 2 iolog")
	fmt.Fprintf(e.bw, "%s add\n", e.device)
	_, err := fmt.Fprintf(e.bw, "%s open\n", e.device)
	return err
}

// Write implements Encoder.
//
//tracelint:hotpath
func (e *FIOEncoder) Write(r Request) error {
	b := e.buf[:0]
	if !e.first {
		if gap := r.Arrival - e.prev; gap > 0 {
			b = append(b, e.device...)
			b = append(b, " wait "...)
			b = strconv.AppendInt(b, gap.Microseconds(), 10)
			b = append(b, '\n')
		}
	}
	e.first = false
	e.prev = r.Arrival
	b = append(b, e.device...)
	if r.Op == Write {
		b = append(b, " write "...)
	} else {
		b = append(b, " read "...)
	}
	b = strconv.AppendInt(b, int64(r.LBA)*SectorSize, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, r.Bytes(), 10)
	b = append(b, '\n')
	e.buf = b
	_, err := e.bw.Write(b)
	return err
}

// Close implements Encoder.
func (e *FIOEncoder) Close() error {
	fmt.Fprintf(e.bw, "%s close\n", e.device)
	return e.bw.Flush()
}

// --- bounded reordering ---

// reorderItem pairs a request with its input position for stable
// ordering of equal arrivals.
type reorderItem struct {
	req Request
	seq uint64
}

// reorderHeap is a binary min-heap of the window's records ordered by
// (arrival, input position). That is a strict total order, so the heap
// yields the stable arrival sort whatever its internal layout.
type reorderHeap []reorderItem

func (h reorderHeap) less(i, j int) bool {
	if h[i].req.Arrival != h[j].req.Arrival {
		return h[i].req.Arrival < h[j].req.Arrival
	}
	return h[i].seq < h[j].seq
}

// push adds it and sifts it up.
//
//tracelint:hotpath
func (h *reorderHeap) push(it reorderItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the least request; the heap is non-empty.
//
//tracelint:hotpath
func (h *reorderHeap) pop() Request {
	s := *h
	top, n := s[0].req, len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && s.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// reorderBatch is the refill read size of a reorderDecoder.
const reorderBatch = 256

// reorderDecoder wraps a decoder with a bounded min-heap window: as
// long as no request is displaced by more than window positions from
// its sorted slot, the output order equals the stable arrival sort the
// whole-trace readers produce — with O(window) memory instead of the
// whole trace. The heap never holds more than window+1 requests — the
// declared window is a hard buffering and read-ahead bound, not a hint
// batching may overshoot: whenever a Read returns, the decoder has read
// at most window+1 records past what it has emitted. (Mid-call, a
// refill may transiently stage up to another window+1 records in its
// read scratch before draining them into the same call's output.)
// That bound is why Decoder.Read takes a cap: in steady state a Read
// reads at most as many records as the caller's dst still has room
// for, so it emits every one of them in the same call.
//
// Refills are still batched. Emitting safely needs window+1 buffered
// candidates, so the steady state interleaves one read with one emit —
// but Read takes each run of records from the inner decoder in a single
// call (up to the window deficit, capped at reorderBatch) and then
// drains it through the heap in push/pop lockstep, so the per-record
// inner cost is a batch slot, not an interface call. Records decoded
// before a mid-stream inner error are emitted before the error
// surfaces, the Decoder contract. OpenFileDecoder builds it, with the
// window of the format's codec row; nothing outside the package wraps.
type reorderDecoder struct {
	inner  Decoder
	window int
	h      reorderHeap
	seq    uint64
	done   bool
	primed bool // heap has reached window+1 once; steady state holds window
	err    error
	batch  []Request
}

// newReorderDecoder wraps dec with a reorder window of the given size
// (at least 1).
func newReorderDecoder(dec Decoder, window int) *reorderDecoder {
	return &reorderDecoder{inner: dec, window: window}
}

// Meta implements Decoder.
func (d *reorderDecoder) Meta() Meta { return d.inner.Meta() }

// Close implements Decoder: it closes the inner decoder and drops the
// window.
func (d *reorderDecoder) Close() {
	d.inner.Close()
	d.h, d.err = nil, errClosed
}

// readInner reads a run of up to want records from the inner decoder,
// latching EOF or its error.
func (d *reorderDecoder) readInner(want int) []Request {
	if d.batch == nil {
		d.batch = make([]Request, reorderBatch)
	}
	run, err := d.inner.Read(d.batch[:min(want, reorderBatch)])
	if err == io.EOF {
		d.done = true
	} else if err != nil {
		d.err = err
	}
	return run
}

// push adds r to the window, stamped with its input position.
func (d *reorderDecoder) push(r Request) {
	d.h.push(reorderItem{req: r, seq: d.seq})
	d.seq++
}

// Read implements Decoder.
//
//tracelint:hotpath
func (d *reorderDecoder) Read(dst []Request) ([]Request, error) {
	n := 0
	for n < len(dst) {
		switch {
		case !d.done && d.err == nil && !d.primed:
			// Initial fill to window+1 candidates, batched.
			for _, r := range d.readInner(d.window + 1 - len(d.h)) {
				d.push(r)
			}
			if len(d.h) > d.window {
				d.primed = true
			}
		case len(d.h) == 0:
			// Terminal: the records emitted this call go first, and the
			// latched error (or EOF) on the next call.
			if n > 0 {
				return dst[:n], nil
			}
			if d.err == nil {
				d.err = io.EOF
			}
			return nil, d.err
		case d.done || d.err != nil || len(d.h) > d.window:
			// Drain (stream over), or the first pop after priming.
			dst[n] = d.h.pop()
			n++
		default:
			// Steady state: the heap holds exactly window requests. Read
			// the next run in one call, then emit in push/pop lockstep —
			// the heap peaks at window+1, never beyond.
			for _, r := range d.readInner(min(len(dst)-n, d.window+1)) {
				d.push(r)
				dst[n] = d.h.pop()
				n++
			}
		}
	}
	return dst, nil
}
