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

	// idle and async receive the decomposition. The in-memory path
	// points them at the report's slots; streaming leaves them nil and
	// decompose borrows pooled scratch that emulate returns.
	idle  []time.Duration
	async []bool
	// out receives the reconstructed records. The in-memory path points
	// it at the epoch's slot of the output trace; streaming leaves it
	// nil until decompose has consumed the original request data, then
	// points it at reqs so the device pass collects in place. nil again
	// once rendered.
	out []trace.Request
	// enc holds the records pre-rendered to output bytes, when the
	// graph pre-renders.
	enc []byte

	// shift is attached by the servicer (serviced graph): the
	// post-processing arrival reduction accumulated by all earlier
	// epochs. The servicer's records sit on the global timeline, so
	// post-processing from shift makes the epoch's arrivals final.
	shift time.Duration
	// end and shiftDelta are the chaining values of the shard-safe
	// graph, whose epochs are emulated from time zero: the completion
	// time of the last instruction and the arrival reduction accumulated
	// within the epoch — the next epoch's base and shift increments.
	// Both stay zero on the serviced graph, so the same merge arithmetic
	// yields offset zero there.
	end        time.Duration
	shiftDelta time.Duration

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

// bufPool recycles a streaming run's per-epoch buffers: request and
// seq-flag buffers between the merge (which finishes with an epoch)
// and the stream planner (which opens the next), the decomposition
// scratch between finish and decompose, and the pre-rendered output
// bytes between merge and finish. The in-flight token pool bounds how
// many buffers circulate, so steady-state streaming allocates nothing
// per epoch once the lists warm up. The in-memory path runs without a
// pool: its epochs are views into the preallocated output and report.
type bufPool struct {
	reqs  freeList[trace.Request]
	seqs  freeList[bool]
	durs  freeList[time.Duration]
	flags freeList[bool]
	bytes freeList[byte]
}

// run is one reconstruction on the stage graph: its fixed inputs, the
// graph shape, and the merge-side output state.
type run struct {
	cfg         Config
	m           *infer.Model
	useRecorded bool
	// enc and meta are the streaming output; enc is nil on the in-memory
	// path, whose results land in the slots its epochs point at.
	enc  trace.Encoder
	meta trace.Meta
	// pool is non-nil exactly when the epochs own their buffers
	// (streaming).
	pool *bufPool
	// root parents the run's plan and epoch spans: the stream span, or
	// the tracer's root for an in-memory run.
	root obs.Span

	// serviced selects the serviced graph; se, when non-nil, is the
	// encoder its workers pre-render with. Both are set by execute.
	serviced bool
	se       trace.ShardEncoder

	begun bool
	rep   Report
}

// stageTimer times one stage of one epoch: a child span under the
// epoch's span, named from the one stage vocabulary, and the stage's
// wall time when metrics are on.
type stageTimer struct {
	mtr   *obs.EngineMetrics
	stage int
	span  obs.Span
	t0    time.Time
}

func beginStage(mtr *obs.EngineMetrics, stage int, ep obs.Span) stageTimer {
	st := stageTimer{mtr: mtr, stage: stage, span: ep.Child(obs.StageNames[stage])}
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
func inOrder(in <-chan epoch, window int, mtr *obs.EngineMetrics, stage int, f func(epoch)) {
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
// chooses the graph, and on the serviced graph it is the run's one
// device.
//
// produce is called on its own goroutine and submits epochs in index
// order via the callback it is handed. cfg.Workers workers serve the
// decompose stage and the stage behind the device pass; on the serviced
// graph a servicer goroutine runs the device pass over the epochs in
// order between the two; the merge (this goroutine) hands each epoch to
// emit in index order together with the offset that places it on the
// global timeline (accumulated base minus accumulated post-processing
// shift).
//
// In-flight epochs are bounded by a token pool, so streaming runs hold
// only O(Workers · MaxShardRequests) requests in memory no matter how
// unbalanced the epochs or the stage throughputs are. A produce error
// ends submission at that point; an emit error additionally signals the
// producer to stop, so a failed output stream does not keep decoding
// and reconstructing the rest of the input. Residual in-flight epochs
// are drained, not emitted.
//
// On the serviced graph r.rep.DeviceStats receives the device's
// accumulated statistics — it saw every submission in order, so its
// stats equal a serial run's. The write happens before the servicer
// closes its channel, which happens-before the merge loop ends.
func (r *run) execute(dev device.Device, produce func(submit func(epoch) error) error) error {
	workers := r.cfg.Workers
	mtr := r.cfg.Metrics
	tra := r.cfg.Trace
	r.serviced = !device.IsShardSafe(dev)
	if r.serviced {
		// A relative-time epoch's arrivals are not final until the merge
		// chains its offset, so only the serviced graph can render bytes
		// in the workers.
		r.se, _ = r.enc.(trace.ShardEncoder)
	}
	inflight := 4 * workers
	// Every stage channel holds the full in-flight budget, so no stage
	// send can block: the token pool is the only backpressure point.
	decCh := make(chan epoch, inflight)
	resCh := make(chan epoch, inflight)
	var svcCh, emuCh chan epoch
	if r.serviced {
		svcCh = make(chan epoch, inflight)
		emuCh = make(chan epoch, inflight)
	}
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
		psp := tra.Start(r.root, obs.StageNames[obs.StagePlan])
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
			if mtr != nil {
				mtr.EpochsInFlight.Inc()
				mtr.StageEpochs[obs.StagePlan].Inc()
				mtr.QueuePush(obs.StageDecompose)
			}
			ep.n = len(ep.reqs)
			ep.span = tra.StartEpoch(r.root, ep.index)
			ep.span.SetAttr("requests", int64(ep.n))
			decCh <- ep
			return nil
		})
		psp.SetAttr("token_wait_ns", int64(tokenWait))
		psp.End()
		if mtr != nil {
			mtr.TokenWaitNanos.Add(int64(tokenWait))
			mtr.StageNanos[obs.StagePlan].Add(int64(time.Since(planStart) - tokenWait))
		}
	}()

	var wg, decDone sync.WaitGroup
	wg.Add(workers)
	decDone.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Only the shard-safe graph emulates in the workers; the
			// serviced graph's one device is the servicer's.
			var wdev device.Device
			if !r.serviced {
				wdev = r.cfg.Device()
			}
			second := func(ep epoch) {
				st := beginStage(mtr, obs.StageEmulate, ep.span)
				if r.serviced {
					r.finish(&ep)
				} else {
					r.emulate(&ep, wdev)
				}
				st.end()
				mtr.QueuePush(obs.StageMerge)
				resCh <- ep
			}
			// emuCh is nil on the shard-safe graph, where that case never
			// fires and the second stage runs fused behind decompose.
			dec, emu := decCh, emuCh
			for dec != nil || emu != nil {
				select {
				case ep, ok := <-emu:
					if !ok {
						emu = nil
						continue
					}
					mtr.QueuePop(obs.StageEmulate)
					second(ep)
				case ep, ok := <-dec:
					if !ok {
						dec = nil
						decDone.Done()
						continue
					}
					mtr.QueuePop(obs.StageDecompose)
					st := beginStage(mtr, obs.StageDecompose, ep.span)
					r.decompose(&ep)
					st.end()
					if r.serviced {
						mtr.QueuePush(obs.StageService)
						svcCh <- ep
					} else {
						second(ep)
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()

	if r.serviced {
		go func() {
			decDone.Wait()
			close(svcCh)
		}()
		// Servicer: the run's one device pass, over the epochs in order.
		go func() {
			defer close(emuCh)
			var now, shift time.Duration
			inOrder(svcCh, inflight, mtr, obs.StageService, func(ep epoch) {
				st := beginStage(mtr, obs.StageService, ep.span)
				ep.shift = shift
				var delta time.Duration
				now, delta = r.service(&ep, dev, now)
				shift += delta
				st.end()
				mtr.QueuePush(obs.StageEmulate)
				emuCh <- ep
			})
			if sr, ok := dev.(device.StatsReporter); ok {
				r.rep.DeviceStats = sr.DeviceStats()
			}
		}()
	}

	var emitErr error
	var base, shift time.Duration
	inOrder(resCh, inflight, mtr, obs.StageMerge, func(ep epoch) {
		if emitErr == nil {
			st := beginStage(mtr, obs.StageMerge, ep.span)
			if err := r.emit(&ep, base-shift); err != nil {
				emitErr = err
				close(stop)
			}
			st.end()
			if mtr != nil {
				mtr.Epochs.Inc()
				mtr.Requests.Add(int64(ep.n))
			}
		}
		ep.span.End()
		if r.pool != nil {
			// Emitted (or abandoned): the epoch's buffers are dead.
			r.pool.reqs.put(ep.out)
			r.pool.bytes.put(ep.enc)
		}
		base += ep.end
		shift += ep.shiftDelta
		<-tokens
		if mtr != nil {
			mtr.EpochsInFlight.Dec()
		}
	})
	if produceErr != nil && produceErr != errAborted {
		return produceErr
	}
	return emitErr
}

// decompose is the first worker stage: per-request idle/async inference
// from the OLD trace with the epoch's carry context. It is
// device-independent, so it runs before any device state exists for the
// epoch. The seq flags are dead afterwards and recycle immediately.
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
	if r.pool != nil {
		// Stale contents are fine: DecomposeShardInto overwrites every
		// slot it reads.
		ep.idle = r.pool.durs.get(ep.n)
		ep.async = r.pool.flags.get(ep.n)
	}
	infer.DecomposeShardInto(ep.idle, ep.async, r.m, ep.reqs, ctx)
	if r.pool != nil {
		r.pool.seqs.put(ep.seq)
		ep.seq = nil
		// The request data is consumed: the device pass collects in
		// place over it.
		ep.out = ep.reqs
	}
}

// service is the servicer's stage, the serviced graph's one device
// pass: continue dev — which carries every earlier epoch's state — from
// absolute time start through the epoch's submissions, collecting the
// new records on the global timeline. It returns the epoch's exit time
// and the post-processing shift it accumulates, the next epoch's start
// and shift increment.
//
//tracelint:hotpath
func (r *run) service(ep *epoch, dev device.Device, start time.Duration) (end, shiftDelta time.Duration) {
	var async []bool
	if !r.cfg.Core.SkipPostProcess {
		async = ep.async
	}
	return replay.EmulateEpoch(ep.out, ep.reqs, dev, ep.idle, async, start)
}

// emulate is the shard-safe graph's second worker stage: run the epoch
// on this worker's device, drained and from time zero, then finish it.
// The end time and the shift finish accumulated chain at the merge.
//
//tracelint:hotpath
func (r *run) emulate(ep *epoch, dev device.Device) {
	ep.end = replay.EmulateShardInto(ep.out, ep.reqs, dev, ep.idle)
	ep.shiftDelta = r.finish(ep)
}

// finish is everything an epoch needs after its device pass, none of it
// order-dependent: post-process the collected records from the epoch's
// entry shift, aggregate, and pre-render the output bytes when the
// graph allows it. It returns the shift accumulated within the epoch.
//
//tracelint:hotpath
func (r *run) finish(ep *epoch) time.Duration {
	var shiftDelta time.Duration
	if !r.cfg.Core.SkipPostProcess {
		shiftDelta = core.PostProcessShard(ep.out, ep.async, ep.shift) - ep.shift
	}
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
	if r.pool != nil {
		r.pool.durs.put(ep.idle)
		r.pool.flags.put(ep.async)
	}
	if r.se != nil {
		buf := r.pool.bytes.get(0)
		for i := range ep.out {
			buf = r.se.AppendRecord(buf, ep.out[i])
		}
		ep.enc = buf
		// Rendered: the request buffer is dead already.
		r.pool.reqs.put(ep.out)
		ep.out = nil
	}
	return shiftDelta
}

// emit is the merge stage's output step, shared by the in-memory and
// streaming entry points: place the epoch on the global timeline, write
// it to the output stream if there is one, and fold its aggregates into
// the run's report.
//
//tracelint:hotpath
func (r *run) emit(ep *epoch, offset time.Duration) error {
	if r.enc != nil && !r.begun {
		r.begun = true
		if err := r.enc.Begin(r.meta); err != nil {
			return err
		}
	}
	if offset != 0 {
		for i := range ep.out {
			ep.out[i].Arrival += offset
		}
	}
	if r.se != nil {
		if err := r.se.WriteRaw(ep.enc); err != nil {
			return err
		}
	} else if r.enc != nil {
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
