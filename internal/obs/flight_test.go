package obs

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func flightTrace(name string) *Tracer {
	tr := NewTracer(name, 0, TraceContext{})
	tr.Finish()
	return tr
}

// TestFlightRecorderEviction proves the memory bound: the ring never
// holds more than its capacity, evicts oldest first, and counts every
// eviction on the wired metric.
func TestFlightRecorderEviction(t *testing.T) {
	reg := NewRegistry()
	evictions := reg.Counter("evictions_total", "test", nil)
	f := NewFlightRecorder(3, evictions)

	for i := 0; i < 5; i++ {
		f.Add(fmt.Sprintf("job-%d", i), flightTrace(fmt.Sprintf("t%d", i)))
	}
	if f.Len() != 3 {
		t.Fatalf("ring holds %d timelines, capacity 3", f.Len())
	}
	if evictions.Value() != 2 {
		t.Fatalf("evictions: counter %d, want 2", evictions.Value())
	}
	for _, gone := range []string{"job-0", "job-1"} {
		if _, ok := f.Get(gone); ok {
			t.Fatalf("oldest entry %s survived eviction", gone)
		}
	}
	for _, kept := range []string{"job-2", "job-3", "job-4"} {
		if _, ok := f.Get(kept); !ok {
			t.Fatalf("recent entry %s evicted", kept)
		}
	}

	// Replacing an existing ID (a cache-replayed job re-finishing)
	// must not consume a second slot or evict anything.
	f.Add("job-3", flightTrace("t3-replayed"))
	if f.Len() != 3 || evictions.Value() != 2 {
		t.Fatalf("replace-in-place evicted: len %d, evictions %d", f.Len(), evictions.Value())
	}
	if jt, _ := f.Get("job-3"); jt.Name != "t3-replayed" {
		t.Fatalf("replace kept the old timeline: %s", jt.Name)
	}

	// A nil timeline is ignored rather than stored.
	f.Add("job-nil", nil)
	if _, ok := f.Get("job-nil"); ok {
		t.Fatal("nil timeline stored")
	}
}

// coldArrayBinTracer records the span tree of one cold-array-bin job (a
// 200k-request MSNFS bin job on the array target, a result-cache miss):
// the root; cache-lookup with its hit and model attributes; store;
// stream; plan with token_wait_ns; and 196 sampled epochs, each with its
// index and request count and the four per-epoch stage spans. That is
// 985 spans and 395 attributes.
func coldArrayBinTracer(name string) *Tracer {
	tr := NewTracer(name, 0, TraceContext{})
	lookup := tr.Start(tr.Root(), JobSpanCacheLookup)
	lookup.SetAttr(AttrHit, 0)
	lookup.SetAttr(AttrModel, 0)
	lookup.End()
	store := tr.Start(tr.Root(), JobSpanStore)
	stream := tr.Start(tr.Root(), JobSpanStream)
	plan := tr.Start(stream, StagePlan)
	for i := range 196 {
		ep := tr.StartEpoch(stream, i)
		ep.SetAttr(AttrRequests, 1024)
		for _, st := range []SpanName{StageDecompose, StageService, StageEmulate, StageMerge} {
			ep.Child(st).End()
		}
		ep.End()
	}
	plan.SetAttr(AttrTokenWaitNS, 1234)
	plan.End()
	stream.End()
	store.End()
	tr.Finish()
	return tr
}

// hasPointers reports whether a value of type t holds anything the
// garbage collector has to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default: // pointers, strings, slices, maps, channels, funcs, interfaces
		return true
	}
}

// TestRetainedBytesPerParkedJob holds the flight recorder to what a
// parked job costs. A cold-array-bin job records 985 span records of
// 24 B and 395 attribute records of 16 B (≈ 30 KB); Finish packs them
// into ≈ 10 B a span and ≈ 5 B an attribute, ≈ 8–10 KB with the tracer
// itself, where its rendered JobTrace took ≈ 165 KB of strings and
// maps. A job whose epochs fill the tracer (3,152 spans, as epoch
// sampling leaves it) packs to ≈ 25 KB. The packed bytes hold no
// pointers, so the collector never scans a parked timeline, and the
// live records hold none either. The full 256-job ring must then grow
// the heap by at most 256 × 12 KB.
func TestRetainedBytesPerParkedJob(t *testing.T) {
	for _, v := range []any{spanRec{}, attrRec{}} {
		if typ := reflect.TypeOf(v); hasPointers(typ) {
			t.Errorf("%s holds pointers", typ)
		}
	}
	if size := unsafe.Sizeof(spanRec{}); size > 32 {
		t.Errorf("spanRec is %d B, want <= 32", size)
	}

	shape := coldArrayBinTracer("shape").Snapshot()
	attrs := 0
	for _, s := range shape.Spans {
		attrs += len(s.Attrs)
	}
	if len(shape.Spans) != 985 || attrs != 395 || shape.DroppedEpochs != 0 {
		t.Fatalf("fixture records %d spans, %d attributes, %d dropped epochs; want 985, 395, 0",
			len(shape.Spans), attrs, shape.DroppedEpochs)
	}

	const jobs, perJob = DefaultFlightRecorderCapacity, 12 << 10
	f := NewFlightRecorder(jobs, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range jobs {
		f.Add(fmt.Sprintf("job-%d", i), coldArrayBinTracer(fmt.Sprintf("job-%d MSNFS", i)))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d parked jobs: heap +%d B, %d B per job, %d B packed", f.Len(), grown, grown/int64(f.Len()), f.Bytes())
	if f.Len() != jobs {
		t.Fatalf("ring holds %d timelines, want %d", f.Len(), jobs)
	}
	if grown > jobs*perJob {
		t.Fatalf("%d parked jobs grew the heap by %d B (%d B per job), want <= %d B per job",
			jobs, grown, grown/jobs, perJob)
	}
	runtime.KeepAlive(f)
}

// TestFlightRecorderConcurrentGet crosses the recorder's one
// cross-goroutine edge: readers render parked tracers while writers
// finish and park new ones, evicting the oldest from a small ring.
func TestFlightRecorderConcurrentGet(t *testing.T) {
	evictions := NewRegistry().Counter("evictions_total", "test", nil)
	f := NewFlightRecorder(4, evictions)
	const writers, readers, jobs = 2, 2, 50
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				tr := NewTracer("job", 0, TraceContext{})
				ep := tr.StartEpoch(tr.Root(), i)
				ep.SetAttr(AttrRequests, int64(i))
				ep.Child(StageMerge).End()
				tr.Finish()
				f.Add(fmt.Sprintf("job-%d-%d", w, i), tr)
			}
		}()
	}
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				for w := range writers {
					if jt, ok := f.Get(fmt.Sprintf("job-%d-%d", w, i)); ok && len(jt.Spans) != 3 {
						t.Errorf("rendered %d spans, want 3", len(jt.Spans))
					}
				}
			}
		}()
	}
	wg.Wait()
	if f.Len() != 4 || evictions.Value() != writers*jobs-4 {
		t.Fatalf("ring holds %d, evicted %d; want 4 and %d", f.Len(), evictions.Value(), writers*jobs-4)
	}
}
