package trace

// Multi-core decode: ParallelDecoder fans the record-aligned segments
// of a file (segment.go) out to worker goroutines and merges their
// decoded batches back in input order, so the request sequence (and
// any parse error position) is exactly the sequential Decoder's. It is
// the only parallel decoder: a non-seekable input (stdin, an upload)
// is staged to a file first and decoded from there. OpenFileDecoder
// builds it for text input only.
//
// Workers borrow their request batches from the process's kept list
// (kept.go) and the merger hands each one back once it has been read,
// so steady-state parallel decoding stays at ~0 allocations per record;
// each worker reads every segment it claims out of one borrowed read
// buffer. Segments in flight ahead of the merge point are bounded by a
// token pool, so memory stays O(workers), not O(input).
//
// Consumers must call Close when abandoning a decoder before EOF or a
// terminal error; after either, the goroutines have already drained.
// After Close every Read fails at once.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

const (
	// ParallelMinBytes is the text input size below which parallel
	// decoding is not worth the goroutine fan-out; OpenFileDecoder
	// falls back to the sequential decoder under it, and for bin input
	// at any size.
	ParallelMinBytes = 1 << 20
	// parBatchLen is the request-batch unit workers hand to the merger.
	parBatchLen = 1024
	// segRingDepth is how many decoded batches one segment may buffer
	// ahead of the merge point.
	segRingDepth = 4
	// minSegmentBytes bounds how small a planned segment may be: tiny
	// segments pay decoder-construction overhead for no parallelism
	// win.
	minSegmentBytes = 256 << 10
	// maxSegments caps a split so a pathological request cannot plan
	// unbounded bookkeeping.
	maxSegments = 1024
)

// parBatch is one message in flight from a worker to the merger: a
// decoded batch (reqs non-nil), a terminal parse error, or — with both
// nil — a line-count marker: the segment finished cleanly after
// consuming that many input lines. The merger accumulates markers in
// segment order into its line base, which is how a parse error in a
// later segment reports the same absolute line number the sequential
// decoder would.
type parBatch struct {
	reqs  []Request
	err   error
	lines int
}

// ParallelDecoder decodes an io.ReaderAt-addressable input on worker
// goroutines, one record-aligned segment at a time, merging batches
// back in input order. Read hands out views of the workers' batches;
// output is identical to the sequential decoder for every input, and
// parse errors surface at the same record position with the same
// message — text line numbers included, via the merger's per-segment
// line accounting.
type ParallelDecoder struct {
	ra      io.ReaderAt
	file    io.Closer // the input OpenFileDecoder opened, closed by Close
	plan    *segmentPlan
	planErr error

	chans    []chan parBatch
	tokens   chan struct{}
	claim    atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// The merge cursor (single consumer): seg is its next segment and
	// lineBase the input lines consumed before it — prelude plus the
	// drained segments' line-count markers; cur[pos:] is what remains of
	// the batch being handed out, and err the latched terminal condition.
	seg      int
	lineBase int
	cur      []Request
	pos      int
	err      error
}

// NewParallelDecoder plans and starts a parallel decode of
// input[0:size) in the named format on the given number of workers
// (minimum 1). Planning errors (unknown format, broken header)
// surface on the first Read, matching the sequential constructors.
func NewParallelDecoder(ra io.ReaderAt, size int64, format string, workers int) *ParallelDecoder {
	if workers < 1 {
		workers = 1
	}
	d := &ParallelDecoder{ra: ra, stop: make(chan struct{})}
	d.plan, d.planErr = splitSegments(ra, size, format, workers)
	if d.planErr != nil || len(d.plan.segs) == 0 {
		return d
	}
	d.lineBase = d.plan.preludeLines
	nseg := len(d.plan.segs)
	// In-flight segments are bounded by tokens: a worker takes one per
	// segment claim, the merger returns one per segment drained, so
	// workers can run at most inflight segments past the merge point.
	inflight := workers + 2
	if inflight > nseg {
		inflight = nseg
	}
	d.chans = make([]chan parBatch, nseg)
	for i := range d.chans {
		d.chans[i] = make(chan parBatch, segRingDepth)
	}
	d.tokens = make(chan struct{}, inflight+workers)
	for i := 0; i < inflight; i++ {
		d.tokens <- struct{}{}
	}
	n := workers
	if n > nseg {
		n = nseg
	}
	d.wg.Add(n)
	for i := 0; i < n; i++ {
		go d.worker()
	}
	return d
}

// worker decodes the segments it claims, one after another, out of one
// read buffer.
func (d *ParallelDecoder) worker() {
	defer d.wg.Done()
	var br *bufio.Reader
	defer func() {
		if br != nil {
			returnReader(br)
		}
	}()
	for {
		select {
		case <-d.stop:
			return
		case <-d.tokens:
		}
		i := int(d.claim.Add(1)) - 1
		if i >= len(d.plan.segs) {
			return
		}
		s := d.plan.segs[i]
		sr := io.NewSectionReader(d.ra, s.start, s.end-s.start)
		if br == nil {
			br = borrowReader(sr)
		} else {
			br.Reset(sr)
		}
		if !d.runSegment(i, br) {
			return
		}
	}
}

// runSegment decodes segment i out of br to exhaustion, streaming its non-empty
// batches (and the terminal parse error, if any) into the segment's
// ring, which it always closes. Text segments additionally send a final
// line-count marker so the merger can keep absolute line positions. It
// reports false when the run was cut short (stop, or a parse error
// that ends the whole stream anyway).
func (d *ParallelDecoder) runSegment(i int, br *bufio.Reader) bool {
	ch := d.chans[i]
	defer close(ch)
	dec := d.plan.codec.segment(br, d.plan.segs[i].ctx)
	for {
		buf := borrowBatch()
		run, err := dec.Read(buf)
		if len(run) > 0 {
			select {
			case ch <- parBatch{reqs: run}:
			case <-d.stop:
				return false
			}
		} else {
			returnBatch(buf)
		}
		if err == io.EOF {
			if lc, ok := dec.(lineCounter); ok {
				select {
				case ch <- parBatch{lines: lc.lines()}:
				case <-d.stop:
					return false
				}
			}
			return true
		}
		if err != nil {
			select {
			case ch <- parBatch{err: err}:
			case <-d.stop:
			}
			return false
		}
	}
}

// fetchBatch returns the next in-order batch across the segment
// rings, releasing a claim token per drained segment and folding
// line-count markers into the running base so errors surface with
// absolute line positions.
func (d *ParallelDecoder) fetchBatch() ([]Request, error) {
	if d.planErr != nil {
		return nil, d.planErr
	}
	for d.seg < len(d.chans) {
		b, ok := <-d.chans[d.seg]
		if !ok {
			d.seg++
			select {
			case d.tokens <- struct{}{}:
			default:
			}
			continue
		}
		if b.err != nil {
			return nil, shiftLine(b.err, d.lineBase)
		}
		if b.reqs == nil {
			d.lineBase += b.lines
			continue
		}
		return b.reqs, nil
	}
	return nil, io.EOF
}

// advance recycles the spent batch and pulls the next one, latching
// EOF or the first in-order error as terminal.
func (d *ParallelDecoder) advance() error {
	if d.err != nil {
		return d.err
	}
	if d.cur != nil {
		returnBatch(d.cur)
		d.cur = nil
	}
	b, err := d.fetchBatch()
	if err != nil {
		d.err = err
		d.shutdown()
		return err
	}
	d.cur, d.pos = b, 0
	return nil
}

// Read implements Decoder: the next run of the batch in hand, or of
// the next batch, as a view valid until the next call.
func (d *ParallelDecoder) Read(dst []Request) ([]Request, error) {
	return d.read(len(dst))
}

// ReadBatch is Read without a cap on the run: the rest of the batch in
// hand, or the whole next one. The benchmark's trace.decode_par row
// drains with it.
func (d *ParallelDecoder) ReadBatch() ([]Request, error) {
	return d.read(parBatchLen)
}

// read returns the next run of at most limit requests.
func (d *ParallelDecoder) read(limit int) ([]Request, error) {
	for d.pos >= len(d.cur) {
		if err := d.advance(); err != nil {
			return nil, err
		}
	}
	run := d.cur[d.pos:min(len(d.cur), d.pos+limit)]
	d.pos += len(run)
	return run, nil
}

// Meta implements Decoder. The split parses headers up front, so Meta
// is complete from construction.
func (d *ParallelDecoder) Meta() Meta {
	if d.plan == nil {
		return Meta{}
	}
	return d.plan.meta
}

func (d *ParallelDecoder) shutdown() {
	d.stopOnce.Do(func() { close(d.stop) })
}

// Close implements Decoder. It stops the decode workers and waits for
// them to exit; it is required when the consumer abandons the stream
// before EOF or a terminal error, and afterwards a cheap join. It
// latches errClosed, so a later Read neither hands out a batch still
// queued in a segment ring nor waits on a ring no stopped worker will
// close. It hands back the batch the consumer was reading and closes
// the file OpenFileDecoder opened.
func (d *ParallelDecoder) Close() {
	d.shutdown()
	d.wg.Wait()
	d.err = errClosed
	if d.file != nil {
		d.file.Close()
		d.file = nil
	}
	if d.cur != nil {
		returnBatch(d.cur)
		d.cur, d.pos = nil, 0
	}
}

// OpenFileDecoder opens path and builds the decoder every streaming
// consumer of a file reads: records in arrival order. It decodes with
// the segmented parallel decoder when workers > 1 and a text file is
// large enough to split profitably (ParallelMinBytes), the sequential
// decoder otherwise. A bin file always decodes on one goroutine, which
// holds no ring of batches per segment: on 2 CPUs its end-to-end speed
// measured within noise of two workers', leaning slower (the
// cold-array-bin pair files under pairs/). A larger box is unmeasured
// (ROADMAP item 1(f)).
// It reads a near-sorted format through a reorder window of the
// format's size (ReorderWindow). format "auto" (or "") is resolved by
// content sniffing (ResolveFile); the concrete format is returned.
// Closing the decoder stops any decode workers, closes the file and
// hands the decoder's buffers back to be kept.
func OpenFileDecoder(path, format string, workers int) (Decoder, string, error) {
	f, c, format, err := openInput(path, format)
	if err != nil {
		return nil, "", err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, "", err
	}
	var dec Decoder
	if workers > 1 && format != "bin" && st.Mode().IsRegular() && st.Size() >= ParallelMinBytes {
		pd := NewParallelDecoder(f, st.Size(), format, workers)
		pd.file = f
		dec = pd
	} else {
		dec = c.decode(source{br: borrowReader(f), file: f})
	}
	if c.window > 0 {
		dec = newReorderDecoder(dec, c.window)
	}
	return dec, format, nil
}

// FileMeta returns the named input's metadata as its first record
// leaves it, or io.EOF when the input holds no record: the one-record
// question a job asks before it decides to fit a model. It reads in file
// order — no reorder window, no decode workers — through a kept read
// buffer, which it hands back before returning.
func FileMeta(path, format string) (Meta, error) {
	f, c, _, err := openInput(path, format)
	if err != nil {
		return Meta{}, err
	}
	dec := c.decode(source{br: borrowReader(f), file: f})
	defer dec.Close()
	_, err = dec.Read(make([]Request, 1))
	return dec.Meta(), err
}

// openInput opens path and resolves its input codec (format "auto" or
// "" by content sniffing); the file is closed on error.
func openInput(path, format string) (*os.File, *codec, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, "", err
	}
	if format, err = ResolveFile(path, format); err != nil {
		f.Close()
		return nil, nil, "", err
	}
	c, err := input(format)
	if err != nil {
		f.Close()
		return nil, nil, "", err
	}
	return f, c, format, nil
}

// SpoolTemp copies r into a new temporary file named after pattern (as
// os.CreateTemp takes it) and returns its path; the caller removes it.
// It is how a command reads stdin as a file: OpenFileDecoder splits
// only a file, and a two-pass consumer reads its input twice.
func SpoolTemp(r io.Reader, pattern string) (string, error) {
	f, err := os.CreateTemp("", pattern)
	if err != nil {
		return "", err
	}
	_, err = io.Copy(f, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("spooling stdin: %w", err)
	}
	return f.Name(), nil
}
