package trace

// Read-ahead decode: ReadAhead runs a format's sequential decoder
// on one goroutine of its own, ahead of the consumer, and hands its
// batches over a bounded channel, so decoding overlaps whatever the
// consumer does with the records before it. The records, the error
// that ends them (its text and line number included) and the metadata
// are the sequential decoder's by construction: they are its output.
// A non-seekable input (stdin, an upload) is staged to a file first.
// OpenFileDecoder builds it for a large regular text file in a process
// that may run more than one goroutine at once.
//
// The decode goroutine borrows its request batches from the process's
// kept list (kept.go) and the consumer hands each one back once it has
// been read, so steady-state decoding stays at ~0 allocations per
// record. At most aheadBatches decoded batches wait for the consumer,
// so memory stays bounded whatever the input's length.
//
// Consumers must call Close when abandoning a decoder before EOF or a
// terminal error; after either, the goroutine has already exited.
// After Close every Read fails at once.

import (
	"io"
	"os"
	"runtime"
)

const (
	// ReadAheadMinBytes is the text input size below which decoding
	// ahead is not worth a goroutine; OpenFileDecoder falls back to the
	// sequential decoder under it, and for bin input at any size.
	ReadAheadMinBytes = 1 << 20
	// parBatchLen is the request-batch unit the decode goroutine hands
	// to the consumer.
	parBatchLen = 1024
	// aheadBatches is how many decoded batches may wait for the
	// consumer, 192 KiB of them. On cold-infer-csv, 2 CPUs, 16 held
	// 1.1 MB more peak RSS in 10 of 10 pairs and moved throughput
	// within noise (pairs/pr64-screen-ahead16-trace0.json).
	aheadBatches = 4
)

// aheadBatch is one Read of the sequential decoder: its run (nil when
// empty), the error it returned and the metadata after it.
type aheadBatch struct {
	reqs []Request
	meta Meta
	err  error
}

// ReadAhead reads a sequential decoder on a goroutine of its own,
// aheadBatches batches ahead of the consumer. Read hands out views of
// those batches.
type ReadAhead struct {
	ahead chan aheadBatch // closed when the decode goroutine exits
	stop  chan struct{}   // closed by Close; nil once closed or when no goroutine runs

	// The consumer's side: cur[pos:] is what remains of the batch
	// being handed out, meta the metadata after the Read that decoded
	// it, and err the terminal condition, returned once cur runs out.
	cur  []Request
	pos  int
	meta Meta
	err  error
}

// NewParallelDecoder decodes input[0:size) in the named format on a
// goroutine ahead of its consumer, as OpenFileDecoder does for a large
// text file, for any input format. workers is ignored: one goroutine
// decodes. An unknown format surfaces on the first Read, as the other
// constructors' errors do.
func NewParallelDecoder(ra io.ReaderAt, size int64, format string, workers int) *ReadAhead {
	c, err := input(format)
	if err != nil {
		return &ReadAhead{err: err}
	}
	sr := io.NewSectionReader(ra, 0, size)
	// A source with a file hands its borrowed read buffer back at
	// Close; a section reader has nothing else to close.
	return newReadAhead(c.decode(source{br: borrowReader(sr), file: io.NopCloser(sr)}))
}

// newReadAhead starts decoding dec on a goroutine of its own, which
// closes dec when it is done. Meta starts as dec's before any Read:
// complete for a headered format.
func newReadAhead(dec Decoder) *ReadAhead {
	d := &ReadAhead{
		ahead: make(chan aheadBatch, aheadBatches),
		stop:  make(chan struct{}),
		meta:  dec.Meta(),
	}
	go decodeAhead(dec, d.ahead, d.stop)
	return d
}

// decodeAhead reads dec into kept batches until its stream ends or stop
// closes, sending each Read's outcome to ahead, which it closes on
// exit.
func decodeAhead(dec Decoder, ahead chan<- aheadBatch, stop <-chan struct{}) {
	defer close(ahead)
	defer dec.Close()
	for {
		buf := borrowBatch()
		run, err := dec.Read(buf)
		if len(run) == 0 {
			returnBatch(buf)
			run = nil
		}
		select {
		case ahead <- aheadBatch{reqs: run, meta: dec.Meta(), err: err}:
		case <-stop:
			returnBatch(run)
			return
		}
		if err != nil {
			return
		}
	}
}

// Read implements Decoder: the next run of the batch in hand, or of
// the next batch, as a view valid until the next call.
func (d *ReadAhead) Read(dst []Request) ([]Request, error) {
	return d.read(len(dst))
}

// ReadBatch is Read without a cap on the run: the rest of the batch in
// hand, or the whole next one. The benchmark's trace.decode_par row
// drains with it.
func (d *ReadAhead) ReadBatch() ([]Request, error) {
	return d.read(parBatchLen)
}

// read returns the next run of at most limit requests. It hands back
// each batch once its last run has been read.
func (d *ReadAhead) read(limit int) ([]Request, error) {
	for d.pos >= len(d.cur) {
		returnBatch(d.cur)
		d.cur = nil
		if d.err != nil {
			return nil, d.err
		}
		b := <-d.ahead
		d.cur, d.pos, d.meta, d.err = b.reqs, 0, b.meta, b.err
	}
	run := d.cur[d.pos:min(len(d.cur), d.pos+limit)]
	d.pos += len(run)
	return run, nil
}

// Meta implements Decoder: the sequential decoder's metadata after the
// Read that decoded the records handed out last.
func (d *ReadAhead) Meta() Meta { return d.meta }

// Close implements Decoder. It stops the decode goroutine and waits for
// it to exit, handing back every batch still on its way; it is required
// when the consumer abandons the stream before EOF or a terminal error,
// and afterwards a cheap join. The goroutine closes the sequential
// decoder, and with it the file OpenFileDecoder opened. Close latches
// errClosed, so a later Read hands out nothing.
func (d *ReadAhead) Close() {
	if d.stop != nil {
		close(d.stop)
		d.stop = nil
		for b := range d.ahead {
			returnBatch(b.reqs)
		}
	}
	returnBatch(d.cur)
	d.cur, d.pos, d.err = nil, 0, errClosed
}

// OpenFileDecoder opens path and builds the decoder every streaming
// consumer of a file reads: records in arrival order. When a regular
// text file holds ReadAheadMinBytes or more and the process runs with
// GOMAXPROCS > 1, the format's sequential decoder runs ahead of the
// consumer on a goroutine of its own (ReadAhead); otherwise it runs on
// the consumer's, so a 1-CPU process never reads ahead. A bin file
// always decodes on the consumer's goroutine: its decode is a small
// share of a job, and on 2 CPUs its end-to-end speed measured within
// noise of a read-ahead decode's (the cold-array-bin pair files under
// pairs/). A larger box is unmeasured (ROADMAP item 1(f)).
// It reads a near-sorted format through a reorder window of the
// format's size (ReorderWindow). format "auto" (or "") is resolved by
// content sniffing over the decoder's own read buffer, so a pipe loses
// no byte to it; the concrete format is returned.
// Closing the decoder stops any decode goroutine, closes the file and
// hands the decoder's buffers back to be kept. The decoded records are
// the same either way.
func OpenFileDecoder(path, format string) (Decoder, string, error) {
	return openFileDecoder(path, format, runtime.GOMAXPROCS(0) > 1)
}

// openFileDecoder is OpenFileDecoder with the process's part of the
// decision given: ahead permits reading a large regular text file
// ahead of the consumer.
func openFileDecoder(path, format string, ahead bool) (Decoder, string, error) {
	dec, f, c, format, err := openInput(path, format)
	if err != nil {
		return nil, "", err
	}
	st, err := f.Stat()
	if err != nil {
		dec.Close()
		return nil, "", err
	}
	if ahead && c.text && st.Mode().IsRegular() && st.Size() >= ReadAheadMinBytes {
		dec = newReadAhead(dec)
	}
	if c.window > 0 {
		dec = newReorderDecoder(dec, c.window)
	}
	return dec, format, nil
}

// FileMeta returns the named input's metadata as its first record
// leaves it, or io.EOF when the input holds no record: the one-record
// question a job asks before it decides to fit a model. It reads in file
// order — no reorder window, no decode goroutine — through a kept read
// buffer, which it hands back before returning.
func FileMeta(path, format string) (Meta, error) {
	dec, _, _, _, err := openInput(path, format)
	if err != nil {
		return Meta{}, err
	}
	defer dec.Close()
	_, err = dec.Read(make([]Request, 1))
	return dec.Meta(), err
}

// openInput opens path once and resolves its input codec over the
// head of the kept read buffer its sequential decoder borrows, so the
// decoder reads every byte. Nothing is held on error.
func openInput(path, format string) (Decoder, *os.File, *codec, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, "", err
	}
	src := source{br: borrowReader(f), file: f}
	format, err = resolveHead(format, src.br)
	var c *codec
	if err == nil {
		c, err = input(format)
	}
	if err != nil {
		src.Close()
		return nil, nil, nil, "", err
	}
	return c.decode(src), f, c, format, nil
}
