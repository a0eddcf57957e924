package engine

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// errAborted is the sentinel a submit callback returns once an emit
// error has stopped the run; execute never surfaces it (the emit
// error is the root cause).
var errAborted = errors.New("engine: run aborted by output error")

// epoch is one shard in flight through the stage graph (see the
// package comment): the planner's shard plus everything the stages
// attach to it on the way to the merge.
type epoch struct {
	shard
	// n is len(reqs), kept because reqs is recycled before the merge
	// when the output is pre-rendered.
	n int
	// span is the epoch span, attached at submission when tracing is on
	// (the zero Span otherwise); the per-stage children hang off it and
	// the merge ends it.
	span obs.Span

	// idle and async receive the decomposition: pooled scratch that
	// decompose borrows and finish returns.
	idle  []time.Duration
	async []bool
	// out receives the reconstructed records: nil until decompose has
	// consumed the original request data, then reqs, so the device pass
	// collects in place. nil again once rendered.
	out []trace.Request
	// enc holds the records rendered to output bytes, when the encoder
	// is a trace.ShardEncoder.
	enc []byte

	// end and shiftDelta come out of the epoch's device pass: the
	// completion time of its last instruction and the post-processing
	// arrival reduction accumulated within it. A shard-safe epoch is
	// emulated from time zero, so its end is a duration the middle stage
	// chains; a serviced epoch's end is already absolute.
	end        time.Duration
	shiftDelta time.Duration
	// shift is attached by the middle stage: what post-processing must
	// subtract from the epoch's arrivals on entry to make them final —
	// the reduction all earlier epochs accumulated, less (shard-safe
	// target) the time base that places the epoch on the global timeline.
	shift time.Duration

	idleCount  int
	idleTotal  time.Duration
	asyncCount int
}

// freeList recycles slices of one element type between goroutines.
type freeList[T any] struct {
	mu   sync.Mutex
	free [][]T // guarded by mu
}

// get returns a slice of length n with stale contents, reusing a free
// buffer when one is large enough. get(0) suits append-grown buffers:
// whatever capacity is free comes back empty.
func (l *freeList[T]) get(n int) []T {
	l.mu.Lock()
	var b []T
	if k := len(l.free); k > 0 {
		b = l.free[k-1]
		l.free = l.free[:k-1]
	}
	l.mu.Unlock()
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

func (l *freeList[T]) put(b []T) {
	if b == nil {
		return
	}
	l.mu.Lock()
	l.free = append(l.free, b)
	l.mu.Unlock()
}

// bufPool recycles a run's per-epoch buffers: request buffers between
// finish (or the merge, when the encoder is serial) and the stream
// planner, seq-flag buffers between decompose and the planner, the
// decomposition scratch between finish and decompose, and the rendered
// output bytes between merge and finish. The in-flight token pool
// bounds how many buffers circulate, so a steady-state run allocates
// nothing per epoch once the lists warm up.
type bufPool struct {
	reqs  freeList[trace.Request]
	seqs  freeList[bool]
	durs  freeList[time.Duration]
	flags freeList[bool]
	bytes freeList[byte]
}

// run is one reconstruction on the stage graph: its fixed inputs and the
// merge-side output state.
type run struct {
	cfg         Config
	m           *infer.Model
	useRecorded bool
	// post: the method's post-processing runs.
	post bool
	// enc receives the reconstructed trace, headed by meta.
	enc  trace.Encoder
	meta trace.Meta
	// pool recycles the epochs' buffers; the planner draws from it.
	pool *bufPool
	// root parents the run's plan and epoch spans: the stream span.
	root obs.Span

	// se, when non-nil, is the encoder the workers render with; set by
	// execute.
	se trace.ShardEncoder

	begun bool
	rep   Report
}

// stageTimer times one stage of one epoch: a child span under the
// epoch's span, named from the one stage vocabulary, and the stage's
// wall time when metrics are on.
type stageTimer struct {
	mtr   *obs.EngineMetrics
	stage obs.SpanName
	span  obs.Span
	t0    time.Time
}

func beginStage(mtr *obs.EngineMetrics, stage obs.SpanName, ep obs.Span) stageTimer {
	st := stageTimer{mtr: mtr, stage: stage, span: ep.Child(stage)}
	if mtr != nil {
		st.t0 = time.Now()
	}
	return st
}

func (st stageTimer) end() {
	st.span.End()
	if st.mtr != nil {
		st.mtr.StageAdd(st.stage, time.Since(st.t0))
	}
}

// inOrder receives epochs from in, where they arrive in completion
// order, and hands them to f in index order. window is the in-flight
// budget: submission and merge both go in index order, so the indexes
// in flight are consecutive and fewer than window, and a ring of that
// size holds every early arrival (an empty slot has n == 0).
func inOrder(in <-chan epoch, window int, mtr *obs.EngineMetrics, stage obs.SpanName, f func(epoch)) {
	ring := make([]epoch, window)
	next := 0
	for ep := range in {
		mtr.QueuePop(stage)
		ring[ep.index%window] = ep
		for slot := &ring[next%window]; slot.n != 0; slot = &ring[next%window] {
			cur := *slot
			*slot = epoch{}
			f(cur)
			next++
		}
	}
}

// execute runs the stage graph over the epochs produce submits. dev is
// a fresh device of the run's configuration: whether it is shard-safe
// decides where the device pass runs, and when it is not, dev is the
// run's one device.
//
// produce is called on its own goroutine and submits epochs in index
// order via the callback it is handed. cfg.Workers workers serve the two
// pooled stages; between them one middle goroutine takes the epochs in
// order — the device pass on a serviced target, on a shard-safe one only
// the chain that turns each epoch's (end, shiftDelta) into the next
// one's entry shift. Everything order-bound ends there: an epoch leaves
// finish with final arrivals and, for a trace.ShardEncoder, final bytes,
// and the merge (this goroutine) hands the epochs to emit in index
// order.
//
// In-flight epochs are bounded by a token pool, so a run holds only
// O(Workers · MaxShardRequests) requests in memory no matter how
// unbalanced the epochs or the stage throughputs are. A produce error
// ends submission at that point; an emit error additionally signals the
// producer to stop, so a failed output stream does not keep decoding
// and reconstructing the rest of the input. Residual in-flight epochs
// are drained, not emitted.
//
// On a serviced target r.rep.DeviceStats receives the device's
// accumulated statistics — it saw every submission in order, so its
// stats equal a serial run's. The write happens before the middle stage
// closes its channel, which happens-before the merge loop ends.
func (r *run) execute(dev device.Device, produce func(submit func(epoch) error) error) error {
	workers := r.cfg.Workers
	mtr := r.cfg.Metrics
	tra := r.cfg.Trace
	serviced := !device.IsShardSafe(dev)
	r.se, _ = r.enc.(trace.ShardEncoder)
	inflight := 4 * workers
	// Every stage channel holds the full in-flight budget, so no stage
	// send can block: the token pool is the only backpressure point.
	decCh := make(chan epoch, inflight)
	midCh := make(chan epoch, inflight)
	finCh := make(chan epoch, inflight)
	resCh := make(chan epoch, inflight)
	tokens := make(chan struct{}, inflight)
	stop := make(chan struct{})

	var produceErr error
	go func() {
		defer close(decCh)
		// Plan-stage accounting: the producer's wall time minus the time
		// it spent stalled on the token pool (that is downstream
		// backpressure, not planning).
		var planStart time.Time
		var tokenWait time.Duration
		timed := mtr != nil || tra != nil
		if timed {
			planStart = time.Now()
		}
		psp := tra.Start(r.root, obs.StagePlan)
		produceErr = produce(func(ep epoch) error {
			var w0 time.Time
			if timed {
				w0 = time.Now()
			}
			select {
			case tokens <- struct{}{}:
			case <-stop:
				return errAborted
			}
			if timed {
				tokenWait += time.Since(w0)
			}
			mtr.EpochAdmitted()
			ep.n = len(ep.reqs)
			ep.span = tra.StartEpoch(r.root, ep.index)
			ep.span.SetAttr(obs.AttrRequests, int64(ep.n))
			decCh <- ep
			return nil
		})
		psp.SetAttr(obs.AttrTokenWaitNS, int64(tokenWait))
		psp.End()
		if timed {
			mtr.PlanDone(time.Since(planStart), tokenWait)
		}
	}()

	var wg, decDone sync.WaitGroup
	wg.Add(workers)
	decDone.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// A shard-safe target is emulated in the workers' first stage,
			// each on its own device from time zero: the emulation loop
			// takes its latencies from DrainedLatency, which leaves the
			// device drained, so no Reset is due between epochs. A
			// serviced run's one device is the middle stage's.
			var wdev device.Device
			if !serviced {
				wdev = r.cfg.Device()
			}
			dec, fin := decCh, finCh
			for dec != nil || fin != nil {
				select {
				case ep, ok := <-fin:
					if !ok {
						fin = nil
						continue
					}
					mtr.QueuePop(obs.StageEmulate)
					st := beginStage(mtr, obs.StageEmulate, ep.span)
					r.finish(&ep)
					st.end()
					mtr.QueuePush(obs.StageMerge)
					resCh <- ep
				case ep, ok := <-dec:
					if !ok {
						dec = nil
						decDone.Done()
						continue
					}
					mtr.QueuePop(obs.StageDecompose)
					st := beginStage(mtr, obs.StageDecompose, ep.span)
					r.decompose(&ep)
					if wdev != nil {
						r.devicePass(&ep, wdev, 0)
					}
					st.end()
					mtr.QueuePush(obs.StageService)
					midCh <- ep
				}
			}
		}()
	}
	go func() {
		decDone.Wait()
		close(midCh)
	}()
	go func() {
		wg.Wait()
		close(resCh)
	}()

	// The middle stage: the one place epochs meet in order before the
	// merge. now is the global completion time reached so far, shift the
	// post-processing reduction accumulated so far.
	go func() {
		defer close(finCh)
		var now, shift time.Duration
		inOrder(midCh, inflight, mtr, obs.StageService, func(ep epoch) {
			st := beginStage(mtr, obs.StageService, ep.span)
			if serviced {
				ep.shift = shift
				r.devicePass(&ep, dev, now)
				now = ep.end
			} else {
				ep.shift = shift - now
				now += ep.end
			}
			shift += ep.shiftDelta
			st.end()
			mtr.QueuePush(obs.StageEmulate)
			finCh <- ep
		})
		if sr, ok := dev.(device.StatsReporter); ok && serviced {
			r.rep.DeviceStats = sr.DeviceStats()
		}
	}()

	var emitErr error
	inOrder(resCh, inflight, mtr, obs.StageMerge, func(ep epoch) {
		// After an emit error the rest are drained, not merged.
		merged := emitErr == nil
		if merged {
			st := beginStage(mtr, obs.StageMerge, ep.span)
			if err := r.emit(&ep); err != nil {
				emitErr = err
				close(stop)
			}
			st.end()
		}
		ep.span.End()
		// Emitted (or abandoned): the epoch's buffers are dead.
		r.pool.reqs.put(ep.out)
		r.pool.bytes.put(ep.enc)
		<-tokens
		mtr.EpochRetired(ep.n, merged)
	})
	if produceErr != nil && produceErr != errAborted {
		return produceErr
	}
	return emitErr
}

// decompose is the inference half of the first worker stage:
// per-request idle/async inference from the OLD trace with the epoch's
// carry context. It is device-independent, so it runs before any device
// state exists for the epoch. The seq flags are dead afterwards and
// recycle immediately.
//
//tracelint:hotpath
func (r *run) decompose(ep *epoch) {
	ctx := infer.ShardContext{
		TsdevKnown:  r.useRecorded,
		Seq:         ep.seq,
		HasNext:     ep.hasNext,
		NextArrival: ep.nextArrival,
	}
	if ep.hasPrev {
		ctx.Prev = &ep.prev
		ctx.PrevSeq = ep.prevSeq
	}
	// Stale contents are fine: DecomposeShardInto overwrites every slot
	// it reads.
	ep.idle = r.pool.durs.get(ep.n)
	ep.async = r.pool.flags.get(ep.n)
	infer.DecomposeShardInto(ep.idle, ep.async, r.m, ep.reqs, ctx)
	r.pool.seqs.put(ep.seq)
	ep.seq = nil
	// The request data is consumed: the device pass collects in place
	// over it.
	ep.out = ep.reqs
}

// postAsync is the async decomposition as post-processing sees it: nil
// when post-processing is off, so no reduction accumulates and no record
// is flagged.
func (r *run) postAsync(ep *epoch) []bool {
	if !r.post {
		return nil
	}
	return ep.async
}

// devicePass runs the epoch's submissions through dev from time start,
// collecting the new records and attaching the pass's exit time and the
// post-processing shift it accumulates. The middle stage calls it on a
// serviced target — dev carries every earlier epoch's state and start
// is the previous epoch's end, so the records sit on the global
// timeline; the workers call it on a shard-safe one at time zero, where
// the pass is closed form (device.ShardSafe) and dev stays drained.
//
//tracelint:hotpath
func (r *run) devicePass(ep *epoch, dev device.Device, start time.Duration) {
	ep.end, ep.shiftDelta = replay.EmulateEpoch(ep.out, ep.reqs, dev, ep.idle, r.postAsync(ep), start)
}

// finish is the worker stage behind the middle stage, none of it
// order-dependent: post-process the collected records from the epoch's
// entry shift — which also places a time-zero epoch on the global
// timeline, so the arrivals are final — aggregate, and render the output
// bytes when the encoder's records are stateless.
//
//tracelint:hotpath
func (r *run) finish(ep *epoch) {
	core.PostProcessShard(ep.out, r.postAsync(ep), ep.shift)
	for _, d := range ep.idle {
		if d > 0 {
			ep.idleCount++
			ep.idleTotal += d
		}
	}
	for _, a := range ep.async {
		if a {
			ep.asyncCount++
		}
	}
	r.pool.durs.put(ep.idle)
	r.pool.flags.put(ep.async)
	if r.se != nil {
		ep.enc = r.se.AppendRecords(r.pool.bytes.get(0), ep.out)
		// Rendered: the request buffer is dead already.
		r.pool.reqs.put(ep.out)
		ep.out = nil
	}
}

// emit is the merge stage's output step: splice the epoch's rendered
// bytes into the output stream — or, for the encoders whose records
// depend on the ones before (blktrace, fio), encode its records here,
// in order — and fold its aggregates into the run's report.
//
//tracelint:hotpath
func (r *run) emit(ep *epoch) error {
	if !r.begun {
		r.begun = true
		if err := r.enc.Begin(r.meta); err != nil {
			return err
		}
	}
	if r.se != nil {
		if err := r.se.WriteRaw(ep.enc); err != nil {
			return err
		}
	} else {
		for i := range ep.out {
			if err := r.enc.Write(ep.out[i]); err != nil {
				return err
			}
		}
	}
	r.rep.Requests += int64(ep.n)
	r.rep.Shards++
	r.rep.IdleCount += ep.idleCount
	r.rep.IdleTotal += ep.idleTotal
	r.rep.AsyncCount += ep.asyncCount
	return nil
}
