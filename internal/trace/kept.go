package trace

// Decode scratch kept between decodes. What a decode uses — its read
// buffer and its request batches — is kept for the decodes after it, so
// a process that decodes trace after trace stops allocating them once
// warm. Every decoder OpenFileDecoder and NewParallelDecoder build
// borrows from keptReaders and keptBatches as it goes and hands each
// value back as soon as nothing reads it, and ForEachBatch borrows its
// scratch batch for the length of a drain. Every decode takes one read
// buffer; a sequential decode (every bin input, and text under
// ParallelMinBytes) takes no batch beyond its drain's one, and a
// read-ahead decode up to batchesPerDecode. The lists hold the scratch
// of keptDecodes concurrent read-ahead decodes, 1.4 MiB, and drop all
// of it once no decode has used it for keptIdle. Nothing a decode
// writes to a buffer is read by the next: a decoder overwrites what it
// borrows.

import (
	"bufio"
	"io"
	"sync"
	"time"
)

// keptIdle is how long a kept list holds its values after the last get
// or put.
const keptIdle = 10 * time.Second

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
	keptReaders = newKept[*bufio.Reader](keptDecodes)
	keptBatches = newKept[[]Request](keptDecodes * batchesPerDecode)
)

// kept is a bounded list of decode scratch values of one kind, shared
// by every decode in the process. It holds at most max values and drops
// all of them once idle (keptIdle) has passed without a get or put, so
// what a daemon retains between jobs has a bound and falls to zero when
// no work arrives. Unlike a sync.Pool it keeps its values across garbage
// collections: a decode that needs more scratch than the one before it
// still finds all that one handed back. Safe for concurrent use.
type kept[T any] struct {
	max  int
	idle time.Duration
	now  func() time.Time

	mu    sync.Mutex
	free  []T         // guarded by mu
	last  time.Time   // last get or put, guarded by mu
	timer *time.Timer // guarded by mu
	armed bool        // a trim is scheduled, guarded by mu
}

func newKept[T any](max int) *kept[T] {
	return &kept[T]{max: max, idle: keptIdle, now: time.Now}
}

// get takes a kept value; ok is false when there is none.
func (k *kept[T]) get() (v T, ok bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.last = k.now()
	n := len(k.free)
	if n == 0 {
		return v, false
	}
	v = k.free[n-1]
	clear(k.free[n-1:])
	k.free = k.free[:n-1]
	return v, true
}

// put offers v for a later get; a full list drops it.
func (k *kept[T]) put(v T) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.last = k.now()
	if len(k.free) >= k.max {
		return
	}
	k.free = append(k.free, v)
	if !k.armed {
		k.armed = true
		if k.timer == nil {
			k.timer = time.AfterFunc(k.idle, k.expire)
		} else {
			k.timer.Reset(k.idle)
		}
	}
}

// expire runs on the idle timer: it drops every kept value when nothing
// has used the list for the idle period, and otherwise looks again once
// the period since the last use has passed.
func (k *kept[T]) expire() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if wait := k.idle - k.now().Sub(k.last); wait > 0 {
		k.timer.Reset(wait)
		return
	}
	k.armed = false
	clear(k.free)
	k.free = nil
}

// borrowReader returns a read buffer over r, a kept one when there is
// one.
func borrowReader(r io.Reader) *bufio.Reader {
	if br, ok := keptReaders.get(); ok {
		br.Reset(r)
		return br
	}
	return newReadBuffer(r)
}

// returnReader hands back a read buffer no decoder reads any more. It
// drops its input first, so a kept buffer pins no file.
func returnReader(br *bufio.Reader) {
	br.Reset(nil)
	keptReaders.put(br)
}

// borrowBatch returns a request batch, a kept one when there is one.
func borrowBatch() []Request {
	if b, ok := keptBatches.get(); ok {
		return b
	}
	return make([]Request, parBatchLen)
}

// returnBatch hands back a batch, or a run of one, that nothing reads
// any more.
func returnBatch(b []Request) {
	if cap(b) >= parBatchLen {
		keptBatches.put(b[:parBatchLen])
	}
}
