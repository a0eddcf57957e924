package trace

// Multi-core decode: ParallelDecoder fans the record-aligned segments
// of a file (segment.go) out to worker goroutines and merges their
// decoded batches back in input order, so the request sequence (and
// any parse error position) is exactly the sequential Decoder's. It is
// the only parallel decoder: a non-seekable input (stdin, an upload)
// is staged to a file first and decoded from there.
//
// Workers recycle their request batches through a bounded free list
// (the engine bufPool discipline), so steady-state parallel decoding
// stays at ~0 allocations per record, and each worker reads every
// segment it claims out of one read buffer. Segments in flight ahead of
// the merge point are bounded by a token pool, so memory stays
// O(workers), not O(input). keptReaders and keptBatches carry the read
// buffers and batches from one decode to the next.
//
// Consumers must call Close when abandoning a decoder before EOF or a
// terminal error; after either, the goroutines have already drained.
// Close is also where a decode hands its buffers back, and after it
// every Read fails at once.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/spare"
)

const (
	// ParallelMinBytes is the input size below which parallel decoding
	// is not worth the goroutine fan-out; helpers fall back to the
	// sequential decoder under it.
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

// reqFreeList recycles request batches between the merger (which
// finishes with them) and the decode workers (which fill new ones). A
// miss takes a kept batch (keptBatches) before it allocates.
type reqFreeList chan []Request

func (f reqFreeList) get() []Request {
	select {
	case b := <-f:
		return b
	default:
	}
	if b, ok := keptBatches.Get(); ok {
		return b
	}
	return make([]Request, parBatchLen)
}

func (f reqFreeList) put(b []Request) {
	if cap(b) < parBatchLen {
		return
	}
	select {
	case f <- b[:parBatchLen]:
	default:
	}
}

// What a decode leaves behind — its workers' read buffers and its
// request batches — is kept for the decodes after it, so a process that
// decodes trace after trace stops allocating them once warm. Every
// decoder OpenFileDecoder and NewParallelDecoder build borrows from
// keptReaders and keptBatches and hands back when it is closed, and
// ForEachBatch borrows its scratch batch for the length of a drain. They
// hold the buffers of keptDecodes concurrent decodes on GOMAXPROCS
// workers each — keptBound bytes, 3.4 MiB at GOMAXPROCS=2 — and drop
// them all once no decode has used them for spare.IdleAfter. Nothing a
// decode writes to a buffer is read by the next: a decoder overwrites
// what it borrows.
var (
	keptReaders = spare.New(keptDecodes*keptWorkers, func(br *bufio.Reader) int64 { return int64(br.Size()) })
	keptBatches = spare.New(keptDecodes*batchesPerDecode(keptWorkers), func(b []Request) int64 { return int64(cap(b)) * requestSize })
)

// keptDecodes is how many concurrent decodes keptReaders and
// keptBatches keep the buffers of: a daemon's default two jobs and one
// ingest.
const keptDecodes = 3

var (
	keptWorkers = runtime.GOMAXPROCS(0)
	keptBound   = int64(keptDecodes) * (int64(keptWorkers)*readBufLen +
		int64(batchesPerDecode(keptWorkers))*parBatchLen*requestSize)
)

// batchesPerDecode is how many request batches a decode on workers
// workers has in use at most: its own free list, which
// NewParallelDecoder sizes to inflight·segRingDepth + workers with
// inflight ≤ workers+2, and the scratch of the ForEachBatch draining it.
func batchesPerDecode(workers int) int {
	return (workers+2)*segRingDepth + workers + 1
}

const requestSize = int64(unsafe.Sizeof(Request{}))

// borrowReader returns a read buffer over r, a kept one when there is
// one.
func borrowReader(r io.Reader) *bufio.Reader {
	if br, ok := keptReaders.Get(); ok {
		br.Reset(r)
		return br
	}
	return newReadBuffer(r)
}

// returnReader offers a read buffer no decoder reads any more. It drops
// its input first, so a kept buffer pins no file.
func returnReader(br *bufio.Reader) {
	br.Reset(nil)
	keptReaders.Put(br)
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
	// the batch being handed out, err the latched terminal condition,
	// and spent batches go back to the workers through free.
	seg      int
	lineBase int
	free     reqFreeList
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
	d.free = make(reqFreeList, inflight*segRingDepth+workers)
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
		buf := d.free.get()
		run, err := dec.Read(buf)
		if len(run) > 0 {
			select {
			case ch <- parBatch{reqs: run}:
			case <-d.stop:
				return false
			}
		} else {
			d.free.put(buf)
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
		d.free.put(d.cur)
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
// close. It hands the spare batches, and the one the consumer was
// reading, back to keptBatches, and closes the file OpenFileDecoder
// opened.
func (d *ParallelDecoder) Close() {
	d.shutdown()
	d.wg.Wait()
	d.err = errClosed
	if d.file != nil {
		d.file.Close()
		d.file = nil
	}
	if d.cur != nil {
		d.free.put(d.cur)
		d.cur, d.pos = nil, 0
	}
	for {
		select {
		case b := <-d.free:
			keptBatches.Put(b)
		default:
			return
		}
	}
}

// OpenFileDecoder opens path and builds the fastest decoder for it:
// the segmented parallel decoder when workers > 1 and the file is
// large enough to split profitably, the sequential decoder otherwise.
// format "auto" (or "") is resolved by content sniffing (ResolveFile);
// the concrete format is returned. Closing the decoder stops any decode
// workers, closes the file and hands the decoder's buffers back to be
// kept.
func OpenFileDecoder(path, format string, workers int) (Decoder, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	if format, err = ResolveFile(path, format); err != nil {
		f.Close()
		return nil, "", err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, "", err
	}
	if workers > 1 && st.Mode().IsRegular() && st.Size() >= ParallelMinBytes {
		pd := NewParallelDecoder(f, st.Size(), format, workers)
		pd.file = f
		return pd, format, nil
	}
	c, err := input(format)
	if err != nil {
		f.Close()
		return nil, "", err
	}
	return c.decode(source{br: borrowReader(f), file: f}), format, nil
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
