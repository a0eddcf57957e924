package obs

// Domain metric bundles: pre-registered metric sets the engine and
// the corpus store accept as nil-checked hooks, so instrumentation
// costs nothing when disabled and only atomic updates when enabled.
// All methods tolerate a nil receiver, which keeps the call sites
// free of guards for the pure-counter updates; call sites that would
// otherwise pay a time.Now() still guard explicitly.

import "time"

// Engine stages, in stage-graph order; every epoch passes through each
// once, on any target. decompose and emulate are the two worker-pool
// stages, ahead of and behind the serial service stage. On a target that
// is not shard-safe, service times the run's one device pass, output
// collection included, and decompose is the inference alone; on a
// shard-safe target the device pass (from time zero, on the worker's own
// device) is part of decompose, and service is only the chain that hands
// each epoch its time base. emulate is the same on both: post-processing,
// aggregation and rendering the output bytes — the render time of csv
// and bin jobs is here, never in merge, which splices.
const (
	StagePlan = iota
	StageDecompose
	StageService
	StageEmulate
	StageMerge
	NumStages
)

// StageNames are the stage label values, indexed by the constants
// above.
var StageNames = [NumStages]string{"plan", "decompose", "service", "emulate", "merge"}

// Job-level spans: what a job's timeline holds above the stage spans.
// A cached job opens cache-lookup and, on a miss, store — the
// result-cache write, which the rest of the job runs inside because the
// graph encodes straight into the cache's file. fit is the model-fit
// pass (inference-path inputs whose model the job has to fit itself:
// its absence means the model came stored with the input, which the
// cache-lookup span's model attr records) and stream the reconstruction
// pass;
// stream is the parent of the plan and epoch spans. The engine names
// its job-level spans from this list only.
const (
	JobSpanCacheLookup = iota
	JobSpanFit
	JobSpanStream
	JobSpanStore
	NumJobSpans
)

// JobSpanNames are the job-level span names, indexed by the constants
// above.
var JobSpanNames = [NumJobSpans]string{"cache-lookup", "fit", "stream", "store"}

// EngineMetrics is the engine's instrumentation hook
// (engine.Config.Metrics): per-stage wall time and queue occupancy,
// token-pool wait, epochs in flight, and result-cache traffic. A nil
// *EngineMetrics disables instrumentation entirely.
type EngineMetrics struct {
	// StageNanos accumulates wall nanoseconds spent per stage (exposed
	// as engine_stage_seconds_total); StageEpochs counts epochs that
	// passed through each stage.
	StageNanos  [NumStages]*Counter
	StageEpochs [NumStages]*Counter
	// QueueDepth is the occupancy of each stage's input queue
	// (StagePlan has none and stays zero).
	QueueDepth [NumStages]*Gauge
	// TokenWaitNanos accumulates producer stalls on the in-flight
	// token pool — backpressure from slow downstream stages.
	TokenWaitNanos *Counter
	// EpochsInFlight is the number of epochs holding an in-flight
	// token (admitted by the planner, not yet merged).
	EpochsInFlight *Gauge
	// Epochs and Requests count merged work.
	Epochs   *Counter
	Requests *Counter
	// CacheHits / CacheMisses count result-cache consultations by
	// cached job runs.
	CacheHits   *Counter
	CacheMisses *Counter
	// ModelFitsJob / ModelFitsStored count inference-path jobs by where
	// their model came from (engine_model_fits_total{source}): fitted by
	// the job in a pass over its input, or read from the store, fitted
	// once at ingest. The share of "job" is the share of such jobs still
	// decoding their input twice.
	ModelFitsJob    *Counter
	ModelFitsStored *Counter
}

// NewEngineMetrics registers the engine metric set on r.
func NewEngineMetrics(r *Registry) *EngineMetrics {
	m := &EngineMetrics{}
	for i, name := range StageNames {
		l := Labels{"stage": name}
		m.StageNanos[i] = r.CounterScaled("engine_stage_seconds_total",
			"Cumulative wall time per engine pipeline stage.", l, 1e-9)
		m.StageEpochs[i] = r.Counter("engine_stage_epochs_total",
			"Epochs processed per engine pipeline stage.", l)
		m.QueueDepth[i] = r.Gauge("engine_stage_queue_depth",
			"Occupancy of each pipeline stage's input queue.", l)
	}
	m.TokenWaitNanos = r.CounterScaled("engine_token_wait_seconds_total",
		"Cumulative producer wall time stalled on the in-flight epoch token pool.", nil, 1e-9)
	m.EpochsInFlight = r.Gauge("engine_epochs_in_flight",
		"Epochs admitted by the planner and not yet merged.", nil)
	m.Epochs = r.Counter("engine_epochs_total", "Epochs merged into output.", nil)
	m.Requests = r.Counter("engine_requests_total", "Trace requests reconstructed.", nil)
	m.CacheHits = r.Counter("engine_cache_hits_total",
		"Cached jobs served from the result cache without reconstructing.", nil)
	m.CacheMisses = r.Counter("engine_cache_misses_total",
		"Cached jobs that missed the result cache and reconstructed.", nil)
	const fitsHelp = "Inference-path jobs by the source of their model: fitted by the job, or stored with the blob at ingest."
	m.ModelFitsJob = r.Counter("engine_model_fits_total", fitsHelp, Labels{"source": "job"})
	m.ModelFitsStored = r.Counter("engine_model_fits_total", fitsHelp, Labels{"source": "stored"})
	return m
}

// ModelFit records one inference-path job's model source.
func (m *EngineMetrics) ModelFit(stored bool) {
	if m == nil {
		return
	}
	if stored {
		m.ModelFitsStored.Inc()
	} else {
		m.ModelFitsJob.Inc()
	}
}

// StageAdd records d of wall time (and one epoch) against a stage.
func (m *EngineMetrics) StageAdd(stage int, d time.Duration) {
	if m == nil {
		return
	}
	m.StageNanos[stage].Add(int64(d))
	m.StageEpochs[stage].Inc()
}

// QueuePush/QueuePop track a stage input queue's occupancy around
// channel sends and receives.
func (m *EngineMetrics) QueuePush(stage int) {
	if m == nil {
		return
	}
	m.QueueDepth[stage].Inc()
}

func (m *EngineMetrics) QueuePop(stage int) {
	if m == nil {
		return
	}
	m.QueueDepth[stage].Dec()
}

// CorpusMetrics is the corpus store's instrumentation hook
// (Store.SetMetrics): ingest volume, digest dedup, and result-cache
// traffic. A nil *CorpusMetrics disables instrumentation.
type CorpusMetrics struct {
	IngestBytes   *Counter
	IngestRecords *Counter
	IngestTraces  *Counter
	DedupHits     *Counter
	ResultHits    *Counter
	ResultStores  *Counter
	// ModelsFitted counts blobs that landed with a fitted inference
	// model; FitNanos is the time ingest spent estimating (exposed as
	// corpus_ingest_fit_seconds_total), kept or not — the price an
	// upload pays so that no job on the blob fits again.
	ModelsFitted *Counter
	FitNanos     *Counter
}

// NewCorpusMetrics registers the corpus metric set on r.
func NewCorpusMetrics(r *Registry) *CorpusMetrics {
	return &CorpusMetrics{
		IngestBytes: r.Counter("corpus_ingest_bytes_total",
			"Bytes accepted by corpus ingest (including deduplicated uploads).", nil),
		IngestRecords: r.Counter("corpus_ingest_records_total",
			"Trace records decoded during corpus ingest.", nil),
		IngestTraces: r.Counter("corpus_ingest_traces_total",
			"New traces landed in the corpus.", nil),
		DedupHits: r.Counter("corpus_dedup_hits_total",
			"Uploads discarded because their digest was already stored.", nil),
		ResultHits: r.Counter("corpus_result_cache_hits_total",
			"Result-cache lookups that found a cached output.", nil),
		ResultStores: r.Counter("corpus_result_cache_stores_total",
			"New reconstructed outputs stored in the result cache.", nil),
		ModelsFitted: r.Counter("corpus_models_fitted_total",
			"Ingested traces that landed with a fitted inference model in their sidecar.", nil),
		FitNanos: r.CounterScaled("corpus_ingest_fit_seconds_total",
			"Cumulative wall time corpus ingest spent estimating inference models.", nil, 1e-9),
	}
}

// IngestObserve records one ingest outcome.
func (m *CorpusMetrics) IngestObserve(bytes, records int64, created bool) {
	if m == nil {
		return
	}
	m.IngestBytes.Add(bytes)
	m.IngestRecords.Add(records)
	if created {
		m.IngestTraces.Inc()
	} else {
		m.DedupHits.Inc()
	}
}

// FitObserve records one ingest-time model estimate: its wall time, and
// whether the model was kept.
func (m *CorpusMetrics) FitObserve(d time.Duration, kept bool) {
	if m == nil {
		return
	}
	m.FitNanos.Add(int64(d))
	if kept {
		m.ModelsFitted.Inc()
	}
}

// ResultHit / ResultStore record result-cache traffic.
func (m *CorpusMetrics) ResultHit() {
	if m != nil {
		m.ResultHits.Inc()
	}
}

func (m *CorpusMetrics) ResultStore() {
	if m != nil {
		m.ResultStores.Inc()
	}
}
