package trace

// Decode scratch kept between decodes. What a decode uses — its read
// buffer and its request batches — is kept for the decodes after it, so
// a process that decodes trace after trace stops allocating them once
// warm. Every decoder OpenFileDecoder and NewParallelDecoder build
// borrows from keptReaders and keptBatches as it goes and hands each
// value back as soon as nothing reads it, and ForEachBatch borrows its
// scratch batch for the length of a drain. Every decode takes one read
// buffer; a sequential decode (every bin input, text under
// ReadAheadMinBytes, and any input in a process with GOMAXPROCS 1)
// takes no batch beyond its drain's one, and a read-ahead decode up to
// batchesPerDecode. The lists hold the scratch
// of keptDecodes concurrent read-ahead decodes, 1.4 MiB, and drop all
// of it once no decode has used it for kept.Idle. Nothing a decode
// writes to a buffer is read by the next: a decoder overwrites what it
// borrows.

import (
	"bufio"
	"io"

	"repro/internal/kept"
)

// keptDecodes is how many concurrent decodes the kept lists hold the
// scratch of: a daemon's default two jobs and one ingest, all reading
// text ahead. Ingest reads text ahead, and so does a job on a text
// blob stored before ingest wrote bin renderings (Rebuild writes none);
// a job on a rendering or a bin blob decodes sequentially and takes
// far less than its share.
const keptDecodes = 3

// batchesPerDecode is how many request batches one read-ahead decode
// holds at most: aheadBatches waiting for its consumer, one its
// goroutine decodes into, one its consumer reads and its drain's
// scratch batch.
const batchesPerDecode = aheadBatches + 3

var (
	keptReaders = kept.New[struct{}, *bufio.Reader](keptDecodes)
	keptBatches = kept.New[struct{}, []Request](keptDecodes * batchesPerDecode)
)

// borrowReader returns a read buffer over r, a kept one when there is
// one.
func borrowReader(r io.Reader) *bufio.Reader {
	if br, ok := keptReaders.Get(struct{}{}); ok {
		br.Reset(r)
		return br
	}
	return newReadBuffer(r)
}

// returnReader hands back a read buffer no decoder reads any more. It
// drops its input first, so a kept buffer pins no file.
func returnReader(br *bufio.Reader) {
	br.Reset(nil)
	keptReaders.Put(struct{}{}, br)
}

// borrowBatch returns a request batch, a kept one when there is one.
func borrowBatch() []Request {
	if b, ok := keptBatches.Get(struct{}{}); ok {
		return b
	}
	return make([]Request, parBatchLen)
}

// returnBatch hands back a batch, or a run of one, that nothing reads
// any more.
func returnBatch(b []Request) {
	if cap(b) >= parBatchLen {
		keptBatches.Put(struct{}{}, b[:parBatchLen])
	}
}
