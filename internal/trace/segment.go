package trace

// Segment planning for the parallel decode pipeline: splitSegments
// partitions an input (anything addressable by io.ReaderAt) into byte
// ranges aligned to record boundaries, so independent workers can
// decode the ranges concurrently and a merger can concatenate the
// results back in input order with output identical to the sequential
// Decoder.
//
// The header/prelude region is parsed here, once, on the caller's
// goroutine: a text input's lines up to its first record by a fresh
// sequential decoder of the format — the native CSV metadata comments,
// the MSRC arrival base and workload of the first record — and the
// binary header (magic, metadata strings, record count). Every segment
// then carries the context (segCtx) that makes its decode independent
// of the bytes before it, mirroring how the reconstruction engine
// carries sequentiality state across shards.

import (
	"bufio"
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
	codec *codec
	meta  Meta
	segs  []segmentRange
	// preludeLines is the number of input lines before the data region
	// of a text input — the line base of segment 0, so parse errors can
	// report absolute line numbers.
	preludeLines int
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

// scanPrelude feeds the leading lines of a text input to a fresh
// sequential decoder of c, up to its first record, and returns the
// segment context that decoder's state then gives, the offset of the
// line holding the first record, and the number of lines before it
// (segment 0's line base). dataStart == size means the input holds no
// record. A line the decoder rejects fails the plan with the
// sequential decoder's error, at the same line.
func scanPrelude(ra io.ReaderAt, size int64, c *codec) (segCtx, int64, int, error) {
	sr := io.NewSectionReader(ra, 0, size)
	br := bufio.NewReaderSize(sr, probeLen)
	d := c.decode(source{br: br}).(textDecoder)
	var r Request
	for {
		at, _ := sr.Seek(0, io.SeekCurrent)
		start := at - int64(br.Buffered())
		ok, err := d.scan(&r)
		if err != nil && err != io.EOF {
			return segCtx{}, 0, 0, err
		}
		if !ok && err == nil {
			continue
		}
		ctx := segCtx{meta: d.Meta()}
		if m, isMSRC := d.(*msrcDecoder); isMSRC {
			ctx.msrcBase = m.base
		}
		if !ok {
			return ctx, size, d.lines(), nil
		}
		// Segment 0 starts at the first record and parses it again.
		return ctx, start, d.lines() - 1, nil
	}
}

// splitBin plans the fixed-stride binary format: the header is parsed
// once, then the record region is cut at multiples of binRecordLen.
func splitBin(ra io.ReaderAt, size int64, c *codec, workers int) (*segmentPlan, error) {
	sr := io.NewSectionReader(ra, 0, size)
	meta, counted, count, err := parseBinHeader(sr)
	if err != nil {
		if err == io.EOF {
			// Same wrap the sequential constructor applies to a stream
			// that ends inside the header.
			err = fmt.Errorf("trace: truncated binary header: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	plan := &segmentPlan{codec: c, meta: meta}
	hdrLen, _ := sr.Seek(0, io.SeekCurrent)
	avail := size - hdrLen
	if avail < 0 {
		avail = 0
	}
	records := uint64(avail / binRecordLen) // full records on disk
	trailing := avail%binRecordLen != 0     // partial record at EOF
	if counted {
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
