package trace

// Decode scratch kept between decodes. What a decode uses — its
// workers' read buffers and its request batches — is kept for the
// decodes after it, so a process that decodes trace after trace stops
// allocating them once warm. Every decoder OpenFileDecoder and
// NewParallelDecoder build borrows from keptReaders and keptBatches as
// it goes and hands each value back as soon as nothing reads it, and
// ForEachBatch borrows its scratch batch for the length of a drain. A
// sequential decode (every bin input, and text under ParallelMinBytes)
// takes one read buffer, and its drain the one ForEachBatch batch; a
// parallel text decode takes a read buffer per worker and up to
// batchesPerDecode batches. The lists hold the scratch of keptDecodes
// concurrent parallel decodes on GOMAXPROCS workers each, 3.4 MiB at
// GOMAXPROCS=2, and drop all of it once no decode has used it for
// keptIdle. Nothing a decode writes to a buffer is read by the next: a
// decoder overwrites what it borrows.

import (
	"bufio"
	"io"
	"runtime"
	"sync"
	"time"
)

// keptIdle is how long a kept list holds its values after the last get
// or put.
const keptIdle = 10 * time.Second

// keptDecodes is how many concurrent parallel decodes the kept lists
// hold the scratch of: a daemon's default two jobs and one ingest, all
// on text. Ingest decodes text in parallel, and so does a job on a text
// blob stored before ingest wrote bin renderings (Rebuild writes none);
// a job on a rendering or a bin blob decodes sequentially and takes far
// less than its share.
const keptDecodes = 3

var (
	keptWorkers = runtime.GOMAXPROCS(0)
	keptReaders = newKept[*bufio.Reader](keptDecodes * keptWorkers)
	keptBatches = newKept[[]Request](keptDecodes * batchesPerDecode(keptWorkers))
)

// batchesPerDecode is how many request batches keptBatches holds for
// one decode on workers workers: a full ring for each of its at most
// workers+2 segments in flight, one batch in each worker's hands, and
// the one its consumer reads.
func batchesPerDecode(workers int) int {
	return (workers+2)*segRingDepth + workers + 1
}

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
