package trace

// Multi-core decode: ParallelDecoder fans the record-aligned segments
// of a file (segment.go) out to worker goroutines and merges their
// decoded batches back in input order, so the request sequence (and
// any parse error position) is exactly the sequential Decoder's.
// StreamParallelDecoder does the same for non-seekable inputs by
// double-buffering large blocks: a coordinator goroutine reads block
// k+1 while workers decode the record-aligned sub-segments of block k.
//
// Both decoders recycle their request batches through a bounded free
// list (the engine bufPool discipline), so steady-state parallel
// decoding stays at ~0 allocations per record. In-flight work is
// bounded — segments ahead of the merge point by a token pool, blocks
// by the double buffer — so memory stays O(workers), not O(input).
//
// Consumers must call Close when abandoning a decoder before EOF or a
// terminal error; after either, the goroutines have already drained.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
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
	// subSegmentMinBytes is the in-memory sub-segment floor of the
	// stream path (cheaper constructors than file segments, so finer
	// grain pays off).
	subSegmentMinBytes = 128 << 10
	// maxSegments caps a split so a pathological request cannot plan
	// unbounded bookkeeping.
	maxSegments = 1024
	// streamBlockLen is the block size of the double-buffered stream
	// path. It must exceed maxLineLen so a carried partial line always
	// leaves read room in the next block.
	streamBlockLen = 4 << 20
	// streamReadChunk bounds one source read of the stream coordinator:
	// between chunks it checks for shutdown, so Close never waits for a
	// stalled source to produce a whole block — at most one chunk.
	streamReadChunk = 256 << 10
)

// errParallelStopped is the coordinator's internal signal that
// shutdown interrupted a block read; it never reaches consumers.
var errParallelStopped = errors.New("trace: parallel decode stopped")

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

// parMerge is the consumer-side cursor both parallel decoders share:
// it owns the current batch, the read position within it, and the
// terminal error, recycles spent batches into the free list, and
// provides the whole Next/DecodeBatch/ReadBatch surface on top of one
// decoder-specific fetch.
type parMerge struct {
	free  reqFreeList
	fetch func() ([]Request, error) // next in-order batch, or terminal error
	abort func()                    // stop the producers after a terminal condition

	cur []Request
	pos int
	err error
}

// advance recycles the spent batch and pulls the next one, latching
// EOF or the first in-order error as terminal.
func (m *parMerge) advance() ([]Request, error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.cur != nil {
		m.free.put(m.cur)
		m.cur = nil
	}
	b, err := m.fetch()
	if err != nil {
		m.err = err
		m.abort()
		return nil, err
	}
	m.cur, m.pos = b, 0
	return b, nil
}

// Next implements Decoder.
func (m *parMerge) Next() (Request, error) {
	for m.pos >= len(m.cur) {
		if _, err := m.advance(); err != nil {
			return Request{}, err
		}
	}
	r := m.cur[m.pos]
	m.pos++
	return r, nil
}

// DecodeBatch implements BatchDecoder.
func (m *parMerge) DecodeBatch(dst []Request) (int, error) {
	n := 0
	for n < len(dst) {
		if m.pos < len(m.cur) {
			k := copy(dst[n:], m.cur[m.pos:])
			m.pos += k
			n += k
			continue
		}
		if _, err := m.advance(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadBatch implements BatchReader.
func (m *parMerge) ReadBatch() ([]Request, error) {
	if m.pos < len(m.cur) {
		b := m.cur[m.pos:]
		m.pos = len(m.cur)
		return b, nil
	}
	b, err := m.advance()
	if err != nil {
		return nil, err
	}
	m.pos = len(b)
	return b, nil
}

// pumpBatches decodes dec to exhaustion, streaming non-empty batches
// (and the terminal parse error, if any) into ch, which it always
// closes. Text decoders additionally get a final line-count marker so
// the merger can keep absolute line positions. It reports false when
// cut short by stop or by an error.
func pumpBatches(dec Decoder, ch chan<- parBatch, free reqFreeList, stop <-chan struct{}) bool {
	defer close(ch)
	for {
		buf := free.get()
		n, err := DecodeBatch(dec, buf)
		if n > 0 {
			select {
			case ch <- parBatch{reqs: buf[:n]}:
			case <-stop:
				return false
			}
		} else {
			free.put(buf)
		}
		if err == io.EOF {
			if lc, ok := dec.(lineCounter); ok {
				select {
				case ch <- parBatch{lines: lc.lines()}:
				case <-stop:
					return false
				}
			}
			return true
		}
		if err != nil {
			select {
			case ch <- parBatch{err: err}:
			case <-stop:
			}
			return false
		}
	}
}

// reqFreeList recycles request batches between the merger (which
// finishes with them) and the decode workers (which fill new ones).
type reqFreeList chan []Request

func (f reqFreeList) get() []Request {
	select {
	case b := <-f:
		return b
	default:
		return make([]Request, parBatchLen)
	}
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

// --- file-backed parallel decoding ---

// ParallelDecoder decodes an io.ReaderAt-addressable input on worker
// goroutines, one record-aligned segment at a time, merging batches
// back in input order. It implements Decoder, BatchDecoder,
// BatchReader and SizeHinter; output is identical to the sequential
// decoder for every input, and parse errors surface at the same
// record position with the same message — text line numbers included,
// via the merger's per-segment line accounting.
type ParallelDecoder struct {
	parMerge

	ra      io.ReaderAt
	plan    *segmentPlan
	planErr error

	chans    []chan parBatch
	tokens   chan struct{}
	claim    atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// seg is the merge cursor's next segment, and lineBase the input
	// lines consumed before it — prelude plus the drained segments'
	// line-count markers (single consumer).
	seg      int
	lineBase int
}

// NewParallelDecoder plans and starts a parallel decode of
// input[0:size) in the named format on the given number of workers
// (minimum 1). Planning errors (unknown format, broken header)
// surface on the first Next/ReadBatch call, matching the sequential
// constructors.
func NewParallelDecoder(ra io.ReaderAt, size int64, format string, workers int) *ParallelDecoder {
	if workers < 1 {
		workers = 1
	}
	d := &ParallelDecoder{ra: ra, stop: make(chan struct{})}
	d.parMerge = parMerge{fetch: d.fetchBatch, abort: d.shutdown}
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

func (d *ParallelDecoder) worker() {
	defer d.wg.Done()
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
		if !d.runSegment(i) {
			return
		}
	}
}

// runSegment decodes segment i and streams its batches to the merger.
// It reports false when the run was cut short (stop, or a parse error
// that ends the whole stream anyway).
func (d *ParallelDecoder) runSegment(i int) bool {
	s := d.plan.segs[i]
	dec := newSegmentDecoder(io.NewSectionReader(d.ra, s.start, s.end-s.start), d.plan.format, s.ctx)
	return pumpBatches(dec, d.chans[i], d.free, d.stop)
}

// fetchBatch is the merge cursor's fetch: the next in-order batch
// across the segment rings, releasing a claim token per drained
// segment and folding line-count markers into the running base so
// errors surface with absolute line positions.
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

// Meta implements Decoder. The split parses headers up front, so Meta
// is complete from construction.
func (d *ParallelDecoder) Meta() Meta {
	if d.plan == nil {
		return Meta{}
	}
	return d.plan.meta
}

// SizeHint implements SizeHinter (counted binary inputs).
func (d *ParallelDecoder) SizeHint() int {
	if d.plan == nil {
		return 0
	}
	return d.plan.sizeHint
}

func (d *ParallelDecoder) shutdown() {
	d.stopOnce.Do(func() { close(d.stop) })
}

// Close stops the decode workers and waits for them to exit. It is
// idempotent and required when the consumer abandons the stream before
// EOF or a terminal error; afterwards it is a cheap no-op join.
func (d *ParallelDecoder) Close() {
	d.shutdown()
	d.wg.Wait()
}

// --- streamed parallel decoding ---

// streamTask is one in-memory sub-segment of a block, handed to a
// decode worker.
type streamTask struct {
	data []byte
	ctx  segCtx
	ch   chan parBatch
	done *sync.WaitGroup
}

// StreamParallelDecoder decodes a non-seekable stream on worker
// goroutines: a coordinator reads large blocks, cuts them at record
// boundaries, and hands record-aligned sub-segments to the workers
// while the next block is read into the other half of a double buffer.
// Output order and content are identical to the sequential decoder.
//
// Because the coordinator owns every read of the underlying reader,
// side effects attached to it (an ingest tee that hashes and spools
// the bytes) are pipelined with the parallel parse. Once the consumer
// has seen EOF, or Close has returned, no further reads of the
// underlying reader happen, so the caller may resume using it (e.g.
// to drain trailing bytes). After a mid-stream decode error the
// coordinator may still be inside one bounded chunk read — call Close
// (it waits that read out, and at most that read) before touching the
// reader again.
type StreamParallelDecoder struct {
	parMerge

	r       io.Reader
	format  string
	workers int

	tasks    chan streamTask
	order    chan chan parBatch
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	// blocks is the coordinator's double buffer; Close recycles it once
	// the goroutines that read it are gone.
	blocks blockBuffers

	metaMu sync.Mutex
	meta   Meta
	hint   int

	// curCh is the merge cursor's current sub-segment ring, and
	// lineBase the input lines consumed before it — the coordinator's
	// prelude marker plus the drained sub-segments' markers (single
	// consumer).
	curCh    chan parBatch
	lineBase int
}

// NewStreamParallelDecoder starts a parallel decode of r in the named
// format on the given number of workers (minimum 1).
func NewStreamParallelDecoder(r io.Reader, format string, workers int) (*StreamParallelDecoder, error) {
	switch format {
	case "csv", "bin", "msrc", "spc":
	default:
		return nil, fmt.Errorf("trace: unknown input format %q", format)
	}
	if workers < 1 {
		workers = 1
	}
	d := &StreamParallelDecoder{
		r:       r,
		format:  format,
		workers: workers,
		tasks:   make(chan streamTask, workers*2),
		order:   make(chan chan parBatch, workers*4+4),
		stop:    make(chan struct{}),
		meta:    initialMeta(format),
	}
	d.parMerge = parMerge{
		free:  make(reqFreeList, workers*segRingDepth*2+4),
		fetch: d.fetchBatch,
		abort: d.shutdown,
	}
	d.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go d.worker()
	}
	go d.coordinate()
	return d, nil
}

func (d *StreamParallelDecoder) worker() {
	defer d.wg.Done()
	for t := range d.tasks {
		d.runTask(t)
	}
}

func (d *StreamParallelDecoder) runTask(t streamTask) {
	defer t.done.Done()
	select {
	case <-d.stop:
		close(t.ch)
		return
	default:
	}
	pumpBatches(newSegmentDecoder(bytes.NewReader(t.data), d.format, t.ctx), t.ch, d.free, d.stop)
}

// setMeta publishes stream metadata established by the coordinator.
func (d *StreamParallelDecoder) setMeta(m Meta, hint int) {
	d.metaMu.Lock()
	d.meta, d.hint = m, hint
	d.metaMu.Unlock()
}

// emitError appends a terminal error to the ordered output, after all
// previously dispatched sub-segments.
func (d *StreamParallelDecoder) emitError(err error) {
	ch := make(chan parBatch, 1)
	ch <- parBatch{err: err}
	close(ch)
	select {
	case d.order <- ch:
	case <-d.stop:
	}
}

// emitLines threads a line-count marker into the ordered output — the
// coordinator's accounting for prelude lines it consumed itself.
// Returns false when the decoder is stopping.
func (d *StreamParallelDecoder) emitLines(n int) bool {
	if n == 0 {
		return true
	}
	ch := make(chan parBatch, 1)
	ch <- parBatch{lines: n}
	close(ch)
	select {
	case d.order <- ch:
		return true
	case <-d.stop:
		return false
	}
}

// dispatch hands one record-aligned sub-segment to the worker pool and
// threads its channel into the ordered output. Returns false when the
// decoder is stopping.
func (d *StreamParallelDecoder) dispatch(data []byte, ctx segCtx, done *sync.WaitGroup) bool {
	ch := make(chan parBatch, segRingDepth)
	done.Add(1)
	select {
	case d.tasks <- streamTask{data: data, ctx: ctx, ch: ch, done: done}:
	case <-d.stop:
		done.Done()
		return false
	}
	select {
	case d.order <- ch:
		return true
	case <-d.stop:
		return false
	}
}

// dispatchText fans the line-aligned region recs out as up to workers
// sub-segments cut at line boundaries.
func (d *StreamParallelDecoder) dispatchText(recs []byte, ctx segCtx, wg *sync.WaitGroup) bool {
	if len(recs) == 0 {
		return true
	}
	k := len(recs) / subSegmentMinBytes
	if k < 1 {
		k = 1
	}
	if k > d.workers {
		k = d.workers
	}
	per := len(recs) / k
	lo := 0
	for i := 1; i <= k && lo < len(recs); i++ {
		hi := len(recs)
		if i < k {
			nominal := i * per
			if nominal <= lo {
				continue
			}
			j := bytes.IndexByte(recs[nominal:], '\n')
			if j >= 0 {
				hi = nominal + j + 1
			}
		}
		if !d.dispatch(recs[lo:hi], ctx, wg) {
			return false
		}
		lo = hi
	}
	return true
}

// dispatchBin fans a stride-aligned record region out as up to workers
// sub-segments, each carrying its global start index and record count.
func (d *StreamParallelDecoder) dispatchBin(recData []byte, meta Meta, startIdx uint64, wg *sync.WaitGroup) bool {
	recs := uint64(len(recData) / binRecordLen)
	if recs == 0 {
		return true
	}
	k := len(recData) / subSegmentMinBytes
	if k < 1 {
		k = 1
	}
	if k > d.workers {
		k = d.workers
	}
	if uint64(k) > recs {
		k = int(recs)
	}
	per := recs / uint64(k)
	var assigned uint64
	for i := 1; i <= k; i++ {
		cnt := per
		if i == k {
			cnt = recs - assigned
		}
		if cnt == 0 {
			continue
		}
		lo := assigned * binRecordLen
		hi := (assigned + cnt) * binRecordLen
		ctx := segCtx{meta: meta, binCounted: true, binRemaining: cnt, binStart: startIdx + assigned}
		if !d.dispatch(recData[lo:hi], ctx, wg) {
			return false
		}
		assigned += cnt
	}
	return true
}

// coordinate is the reader goroutine: it owns every read of d.r,
// handles the header/prelude, cuts blocks at record boundaries, and
// fans sub-segments out to the workers.
func (d *StreamParallelDecoder) coordinate() {
	defer d.wg.Done()
	defer close(d.tasks)
	defer close(d.order)
	if d.format == "bin" {
		d.coordinateBin()
	} else {
		d.coordinateText()
	}
}

// blockBuffers is the double buffer of the stream coordinator: a block
// half may be refilled only once the sub-segments previously carved
// from it are fully decoded, while the other half's tasks keep
// running.
type blockBuffers struct {
	bufs  [2]*[]byte
	wgs   [2]sync.WaitGroup
	which int
}

// streamBlockPool recycles block halves between decoders: a server
// ingesting upload after upload would otherwise allocate (and the
// collector sweep) two fresh streamBlockLen buffers per upload.
var streamBlockPool = sync.Pool{New: func() any {
	b := make([]byte, streamBlockLen)
	return &b
}}

// next returns the buffer half to fill and its task group, waiting out
// the half's previous tasks.
func (b *blockBuffers) next() ([]byte, *sync.WaitGroup) {
	b.which ^= 1
	b.wgs[b.which].Wait()
	if b.bufs[b.which] == nil {
		b.bufs[b.which] = streamBlockPool.Get().(*[]byte)
	}
	return *b.bufs[b.which], &b.wgs[b.which]
}

// release returns the halves to the pool. Only safe once nothing reads
// them any more: after the coordinator and every worker have exited.
func (b *blockBuffers) release() {
	for i, buf := range b.bufs {
		if buf != nil {
			streamBlockPool.Put(buf)
			b.bufs[i] = nil
		}
	}
}

// readBlock fills buf after the carried prefix, reading in bounded
// chunks with a shutdown check between them — so Close waits for at
// most one chunk-sized read on a stalled source, not a whole block.
// eof reports that the stream ended inside (or exactly at) this
// block; errParallelStopped reports shutdown.
func (d *StreamParallelDecoder) readBlock(buf, carry []byte) (data []byte, eof bool, err error) {
	filled := copy(buf, carry)
	for filled < len(buf) {
		select {
		case <-d.stop:
			return nil, false, errParallelStopped
		default:
		}
		limit := filled + streamReadChunk
		if limit > len(buf) {
			limit = len(buf)
		}
		n, rerr := d.r.Read(buf[filled:limit])
		filled += n
		if rerr == io.EOF {
			return buf[:filled], true, nil
		}
		if rerr != nil {
			return nil, false, rerr
		}
	}
	return buf, false, nil
}

func (d *StreamParallelDecoder) coordinateText() {
	var carry []byte
	blocks := &d.blocks
	pre := preludeState{format: d.format, ctx: segCtx{meta: initialMeta(d.format), sawData: true}}
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		buf, wg := blocks.next()
		data, eof, err := d.readBlock(buf, carry)
		carry = nil
		if err != nil {
			if err != errParallelStopped {
				d.emitError(err)
			}
			return
		}
		if !pre.done {
			rest, perr := pre.advance(data, eof)
			if perr != nil {
				d.emitError(perr)
				return
			}
			d.setMeta(pre.ctx.meta, 0)
			data = rest
			if !pre.done {
				// Still inside the prelude: rest is at most one
				// incomplete comment line.
				if len(data) > maxLineLen {
					d.emitError(fmt.Errorf("trace: line longer than %d bytes", maxLineLen))
					return
				}
				if eof {
					return
				}
				carry = data
				continue
			}
			// Prelude complete: account its lines (the first data line
			// belongs to the dispatched region) before any sub-segment
			// enters the order.
			if !d.emitLines(pre.lineno - 1) {
				return
			}
		}
		recs := data
		if !eof {
			cut := bytes.LastIndexByte(data, '\n')
			if cut < 0 {
				if len(data) > maxLineLen {
					d.emitError(fmt.Errorf("trace: line longer than %d bytes", maxLineLen))
					return
				}
				carry = data
				continue
			}
			recs, carry = data[:cut+1], data[cut+1:]
			if len(carry) > maxLineLen {
				d.emitError(fmt.Errorf("trace: line longer than %d bytes", maxLineLen))
				return
			}
		}
		if !d.dispatchText(recs, pre.ctx, wg) {
			return
		}
		if eof {
			return
		}
	}
}

func (d *StreamParallelDecoder) coordinateBin() {
	meta, counted, count, err := parseBinHeader(d.r)
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("trace: truncated binary header: %w", io.ErrUnexpectedEOF)
		}
		d.emitError(err)
		return
	}
	hint := 0
	if counted {
		hint = int(count)
	}
	d.setMeta(meta, hint)
	if counted && count == 0 {
		return
	}
	var (
		blocks    = &d.blocks
		carry     []byte
		idx       uint64
		remaining = count
	)
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		buf, wg := blocks.next()
		data, eof, err := d.readBlock(buf, carry)
		carry = nil
		if err != nil {
			if err != errParallelStopped {
				d.emitError(err)
			}
			return
		}
		usable := len(data)
		if counted {
			if max := remaining * binRecordLen; uint64(usable) > max {
				usable = int(max)
			}
		}
		full := usable - usable%binRecordLen
		recs := uint64(full / binRecordLen)
		if !d.dispatchBin(data[:full], meta, idx, wg) {
			return
		}
		idx += recs
		if counted {
			remaining -= recs
			if remaining == 0 {
				// Count satisfied: trailing bytes are ignored, exactly
				// like the sequential decoder, and reading stops here.
				return
			}
		}
		if eof {
			// The stream ended short of the count, or an uncounted
			// stream ended inside a record: hand the partial tail to a
			// decoder whose preset state reproduces the sequential
			// truncation error at the same record index. A clean
			// uncounted end (no tail) just finishes.
			tail := data[full:]
			if counted {
				ctx := segCtx{meta: meta, binCounted: true, binRemaining: remaining, binStart: idx}
				d.dispatch(tail, ctx, wg)
			} else if len(tail) > 0 {
				ctx := segCtx{meta: meta, binStart: idx}
				d.dispatch(tail, ctx, wg)
			}
			return
		}
		carry = data[full:]
	}
}

// fetchBatch is the merge cursor's fetch: the next in-order batch
// across the coordinator-ordered sub-segment rings, folding line-count
// markers into the running base so errors surface with absolute line
// positions.
func (d *StreamParallelDecoder) fetchBatch() ([]Request, error) {
	for {
		if d.curCh == nil {
			ch, ok := <-d.order
			if !ok {
				return nil, io.EOF
			}
			d.curCh = ch
		}
		b, ok := <-d.curCh
		if !ok {
			d.curCh = nil
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
}

// Meta implements Decoder: complete after the prelude/header has been
// coordinated, which is guaranteed once the consumer has observed a
// request or EOF.
func (d *StreamParallelDecoder) Meta() Meta {
	d.metaMu.Lock()
	defer d.metaMu.Unlock()
	return d.meta
}

// SizeHint implements SizeHinter (counted binary inputs; 0 until the
// header has been read).
func (d *StreamParallelDecoder) SizeHint() int {
	d.metaMu.Lock()
	defer d.metaMu.Unlock()
	return d.hint
}

func (d *StreamParallelDecoder) shutdown() {
	d.stopOnce.Do(func() { close(d.stop) })
}

// Close stops the coordinator and workers and waits for them to exit.
// Idempotent; required when abandoning the stream early. After Close
// returns, the underlying reader is no longer touched.
func (d *StreamParallelDecoder) Close() {
	d.shutdown()
	d.wg.Wait()
	d.blocks.release()
}

// --- construction helpers ---

// OpenFileDecoder opens path and builds the fastest decoder for it:
// the segmented parallel decoder when workers > 1 and the file is
// large enough to split profitably, the sequential decoder otherwise.
// format "auto" (or "") is resolved by content sniffing; the concrete
// format is returned. The returned close function stops any decode
// workers and closes the file.
func OpenFileDecoder(path, format string, workers int) (Decoder, string, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", nil, err
	}
	if format == "auto" || format == "" {
		if format, err = DetectFile(path); err != nil {
			f.Close()
			return nil, "", nil, err
		}
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, "", nil, err
	}
	if workers > 1 && st.Mode().IsRegular() && st.Size() >= ParallelMinBytes {
		pd := NewParallelDecoder(f, st.Size(), format, workers)
		return pd, format, func() { pd.Close(); f.Close() }, nil
	}
	dec, err := NewDecoder(format, f)
	if err != nil {
		f.Close()
		return nil, "", nil, err
	}
	return dec, format, func() { f.Close() }, nil
}
