package trace

// Segment planning for the parallel decode pipeline: splitSegments
// partitions an input (anything addressable by io.ReaderAt) into byte
// ranges aligned to record boundaries, so independent workers can
// decode the ranges concurrently and a merger can concatenate the
// results back in input order with output identical to the sequential
// Decoder.
//
// The header/prelude region is parsed here, once, on the caller's
// goroutine: the native CSV metadata comments, the MSRC arrival base
// and workload (captured from the first data record), and the binary
// header (magic, metadata strings, record count). Every segment then
// carries the context (segCtx) that makes its decode independent of
// the bytes before it, mirroring how the reconstruction engine carries
// sequentiality state across shards.

import (
	"bytes"
	"fmt"
	"io"
)

// segCtx is the carry state that makes one segment decodable
// independently of the bytes before it.
type segCtx struct {
	// meta is the stream metadata established by the prelude (or, for
	// mid-stream text segments, the final prelude metadata: headers
	// after data rows are errors, so it can no longer change).
	meta Meta
	// sawData marks csv segments that start inside the data region, so
	// a metadata header inside them is rejected exactly like the
	// sequential decoder rejects headers after data rows.
	sawData bool
	// msrcBase is the arrival rebase timestamp captured from the first
	// MSRC data record.
	msrcBase int64
	// binCounted/binRemaining/binStart describe a binary segment: how
	// many fixed-stride records it holds and the global index of its
	// first record (for error messages identical to the sequential
	// decoder's).
	binCounted   bool
	binRemaining uint64
	binStart     uint64
}

// segmentRange is one plannable byte range of the input.
type segmentRange struct {
	start, end int64
	ctx        segCtx
}

// segmentPlan is the result of splitting one input.
type segmentPlan struct {
	codec    *codec
	meta     Meta
	segs     []segmentRange
	sizeHint int
	// preludeLines is the number of input lines before the data region
	// of a text input — the line base of segment 0, so parse errors can
	// report absolute line numbers.
	preludeLines int
}

// raLineScanner yields lines (without terminators) from an io.ReaderAt
// while tracking byte offsets, for prelude scanning. It applies the
// same maxLineLen bound as lineScanner so a pathological prelude fails
// with the same error the sequential path produces.
type raLineScanner struct {
	ra   io.ReaderAt
	size int64
	off  int64 // file offset of buf[pos]
	buf  []byte
	pos  int
}

// next returns the next line and the file offset of its first byte.
func (s *raLineScanner) next() (line []byte, start int64, err error) {
	for {
		if i := bytes.IndexByte(s.buf[s.pos:], '\n'); i >= 0 {
			line = s.buf[s.pos : s.pos+i]
			start = s.off
			s.pos += i + 1
			s.off += int64(i + 1)
			return line, start, nil
		}
		rem := len(s.buf) - s.pos
		if rem > maxLineLen {
			return nil, 0, fmt.Errorf("trace: line longer than %d bytes", maxLineLen)
		}
		if s.off+int64(rem) >= s.size {
			// Final unterminated line (or clean EOF).
			if rem == 0 {
				return nil, 0, io.EOF
			}
			line = s.buf[s.pos:]
			start = s.off
			s.pos = len(s.buf)
			s.off += int64(rem)
			return line, start, nil
		}
		// Compact and refill.
		s.buf = append(s.buf[:0], s.buf[s.pos:]...)
		s.pos = 0
		const chunk = probeLen
		n := len(s.buf)
		s.buf = append(s.buf, make([]byte, chunk)...)
		k, err := s.ra.ReadAt(s.buf[n:], s.off+int64(n))
		s.buf = s.buf[:n+k]
		if err != nil && err != io.EOF {
			return nil, 0, err
		}
		if k == 0 && err == io.EOF && n == len(s.buf) {
			// No progress possible; treated by the size check above on
			// the next loop, but guard against a lying Size.
			s.size = s.off + int64(n)
		}
	}
}

// probeLen is how much of the input a prelude scan or a segment
// boundary probe reads at a time: many records, where a record is one
// short line.
const probeLen = 4 << 10

// alignAfter returns the offset of the first byte after the next '\n'
// at or after off, or end when no newline remains before end, reading
// through buf (len probeLen, the caller's across its probes). A
// missing newline within maxLineLen bytes returns ok=false: the
// would-be boundary sits inside a line longer than the sequential
// scanner accepts, so the caller merges the range into the previous
// segment and lets its decoder surface the canonical error.
func alignAfter(ra io.ReaderAt, off, end int64, buf []byte) (int64, bool, error) {
	chunk := len(buf)
	for pos := off; pos < end && pos-off <= maxLineLen; pos += int64(chunk) {
		n := chunk
		if int64(n) > end-pos {
			n = int(end - pos)
		}
		k, err := ra.ReadAt(buf[:n], pos)
		if i := bytes.IndexByte(buf[:k], '\n'); i >= 0 {
			return pos + int64(i) + 1, true, nil
		}
		if err != nil && err != io.EOF {
			return 0, false, err
		}
		if k < n || err == io.EOF {
			return end, true, nil
		}
	}
	if off >= end {
		return end, true, nil
	}
	return 0, false, nil
}

// targetSegmentCount sizes the split: enough segments to keep workers
// busy with some oversubscription for balance, but no segment smaller
// than minSegmentBytes (tiny segments pay constructor overhead for no
// win).
func targetSegmentCount(dataLen int64, workers int) int {
	if dataLen <= 0 {
		return 0
	}
	want := workers * 3
	if max := int(dataLen / minSegmentBytes); want > max {
		want = max
	}
	if want < 1 {
		want = 1
	}
	if want > maxSegments {
		want = maxSegments
	}
	return want
}

// splitSegments plans the parallel decode of input[0:size).
func splitSegments(ra io.ReaderAt, size int64, format string, workers int) (*segmentPlan, error) {
	c, err := input(format)
	if err != nil {
		return nil, err
	}
	if c.text {
		return splitText(ra, size, c, workers)
	}
	return splitBin(ra, size, c, workers)
}

// splitText plans a line-oriented input: the prelude scan establishes
// the metadata context and the start of the data region, then the data
// region is cut at line boundaries.
func splitText(ra io.ReaderAt, size int64, c *codec, workers int) (*segmentPlan, error) {
	ctx, dataStart, preludeLines, err := scanPrelude(ra, size, c)
	if err != nil {
		return nil, err
	}
	plan := &segmentPlan{codec: c, meta: ctx.meta, preludeLines: preludeLines}
	dataLen := size - dataStart
	n := targetSegmentCount(dataLen, workers)
	if n == 0 {
		return plan, nil
	}
	segSize := dataLen / int64(n)
	lo := dataStart
	probe := make([]byte, probeLen)
	for i := 1; i <= n && lo < size; i++ {
		hi := size
		if i < n {
			nominal := dataStart + int64(i)*segSize
			if nominal <= lo {
				continue
			}
			aligned, ok, err := alignAfter(ra, nominal, size, probe)
			if err != nil {
				return nil, err
			}
			if !ok {
				// Monster line across the boundary: merge forward.
				continue
			}
			hi = aligned
		}
		if hi > lo {
			plan.segs = append(plan.segs, segmentRange{start: lo, end: hi, ctx: ctx})
			lo = hi
		}
	}
	if lo < size {
		plan.segs = append(plan.segs, segmentRange{start: lo, end: size, ctx: ctx})
	}
	return plan, nil
}

// preludeState walks the leading comment/blank region of a text
// input, accumulating metadata exactly like the sequential decoders
// do, and captures the per-stream state (MSRC arrival base, workload)
// from the first data line.
type preludeState struct {
	codec   *codec
	ctx     segCtx
	lineno  int
	scratch Trace
}

// feed consumes one prelude line (without its terminator) and reports
// whether it is the first data line — which still belongs to the data
// region: segment 0 re-parses and emits it. Every non-blank line goes
// through the codec's prelude hook.
func (p *preludeState) feed(raw []byte) (bool, error) {
	p.lineno++
	line := bytes.TrimSpace(raw)
	if len(line) == 0 {
		return false, nil
	}
	data := line[0] != '#'
	if p.codec.prelude != nil {
		if err := p.codec.prelude(p, line, data); err != nil {
			return false, err
		}
	}
	return data, nil
}

// csvPrelude is the csv row's prelude hook: a metadata header comment
// sets the stream metadata, as it does in the sequential decoder.
func (p *preludeState) csvPrelude(line []byte, data bool) error {
	if !data && bytes.HasPrefix(line, csvHeaderPrefix) {
		p.scratch.applyMeta(p.ctx.meta)
		parseHeaderComment(&p.scratch, string(line))
		p.ctx.meta = p.scratch.Meta()
	}
	return nil
}

// msrcPrelude is the msrc row's prelude hook: the first data record
// fixes the arrival base and names the workload.
func (p *preludeState) msrcPrelude(line []byte, data bool) error {
	if !data {
		return nil
	}
	var f [8][]byte
	if n := splitComma(f[:], line); n != 7 {
		return fmt.Errorf("trace: msrc line %d: want 7 fields, got %d", p.lineno, n)
	}
	ts, err := parseIntBytes(f[0], 64)
	if err != nil {
		return fmt.Errorf("trace: msrc line %d timestamp: %w", p.lineno, err)
	}
	p.ctx.msrcBase = ts
	p.ctx.meta.Workload = string(f[1])
	p.ctx.meta.Name = p.ctx.meta.Workload
	return nil
}

// scanPrelude runs the prelude over an io.ReaderAt and returns the
// final segment context, the offset of the first data line, and the
// number of lines before it (segment 0's line base). dataStart == size
// means the input holds no data records.
func scanPrelude(ra io.ReaderAt, size int64, c *codec) (segCtx, int64, int, error) {
	p := preludeState{codec: c, ctx: segCtx{meta: c.meta, sawData: true}}
	ls := &raLineScanner{ra: ra, size: size}
	for {
		raw, start, err := ls.next()
		if err == io.EOF {
			return p.ctx, size, p.lineno, nil
		}
		if err != nil {
			return p.ctx, 0, 0, err
		}
		isData, err := p.feed(raw)
		if err != nil {
			return p.ctx, 0, 0, err
		}
		if isData {
			// The first data line belongs to segment 0 (feed counted it).
			return p.ctx, start, p.lineno - 1, nil
		}
	}
}

// splitBin plans the fixed-stride binary format: the header is parsed
// once, then the record region is cut at multiples of binRecordLen.
func splitBin(ra io.ReaderAt, size int64, c *codec, workers int) (*segmentPlan, error) {
	meta, counted, count, hdrLen, err := readBinHeader(io.NewSectionReader(ra, 0, size))
	if err != nil {
		if err == io.EOF {
			// Same wrap the sequential constructor applies to a stream
			// that ends inside the header.
			err = fmt.Errorf("trace: truncated binary header: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	plan := &segmentPlan{codec: c, meta: meta}
	avail := size - hdrLen
	if avail < 0 {
		avail = 0
	}
	records := uint64(avail / binRecordLen) // full records on disk
	trailing := avail%binRecordLen != 0     // partial record at EOF
	if counted {
		plan.sizeHint = int(count)
		if count == 0 {
			return plan, nil
		}
		if count <= records {
			// Whole region present; bytes beyond the count are ignored,
			// exactly like the sequential decoder.
			records = count
			trailing = false
		}
	} else if records == 0 && !trailing {
		return plan, nil
	}
	// truncated: the last segment must run into the same truncation
	// error, at the same record index, as the sequential decoder — a
	// counted file shorter than its count, or an uncounted file ending
	// inside a record.
	truncated := (counted && count > records) || (!counted && trailing)

	n := targetSegmentCount(int64(records)*binRecordLen, workers)
	if n == 0 {
		n = 1 // truncation-only inputs still need one segment to error
	}
	per := records / uint64(n)
	lo := hdrLen
	var idx uint64
	for i := 1; i <= n; i++ {
		segRecs := per
		if i == n {
			segRecs = records - idx
		}
		hi := lo + int64(segRecs)*binRecordLen
		ctx := segCtx{meta: meta, binStart: idx, binCounted: true, binRemaining: segRecs}
		if i == n && truncated {
			hi = size
			if counted {
				ctx.binRemaining = count - idx
			} else {
				// Uncounted: leave the segment uncounted so its decoder
				// hits the partial trailing record naturally.
				ctx.binCounted = false
				ctx.binRemaining = 0
			}
		}
		if hi > lo || (ctx.binCounted && ctx.binRemaining > 0) {
			plan.segs = append(plan.segs, segmentRange{start: lo, end: hi, ctx: ctx})
		}
		lo = hi
		idx += segRecs
	}
	return plan, nil
}

// readBinHeader parses the compact binary header from r and reports
// how many bytes it occupied. The error messages are byte-for-byte the
// sequential BinaryDecoder's, so the parallel path cannot drift.
func readBinHeader(r io.Reader) (m Meta, counted bool, count uint64, hdrLen int64, err error) {
	cr := &countingReadWrapper{r: r}
	m, counted, count, err = parseBinHeader(cr)
	return m, counted, count, cr.n, err
}

type countingReadWrapper struct {
	r io.Reader
	n int64
}

func (c *countingReadWrapper) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
