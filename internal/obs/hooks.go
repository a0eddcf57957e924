package obs

// Domain metric bundles: pre-registered metric sets the engine and
// the corpus store accept as hooks, so instrumentation costs nothing
// when disabled and only atomic updates when enabled. A hook's fields
// are private, so code outside this package reaches a hook only
// through its methods, and every method tolerates a nil receiver (a
// nil hook is "instrumentation off"; TestHookMethodsNilSafe calls each
// one on nil). Call sites that would otherwise pay a time.Now() still
// guard explicitly.

import "time"

// SpanName is a span name from the one span vocabulary: the engine
// stages, the job-level spans and the epoch. A tracer records the id and
// renders String only when a timeline is served, and no other name can
// reach a span: the root's per-job name is the Tracer's own.
type SpanName uint8

// Engine stages, in stage-graph order; every epoch passes through each
// once, on any target. decompose and emulate are the two worker-pool
// stages, ahead of and behind the serial service stage. On a target that
// is not shard-safe, service times the run's one device pass, output
// collection included, and decompose is the inference alone; on a
// shard-safe target the device pass (from time zero, on the worker's own
// device) is part of decompose, and service is only the chain that hands
// each epoch its time base. emulate is the same on both: post-processing,
// aggregation and rendering the output bytes — the render time of csv
// and bin jobs is here, never in merge, which splices. The stages are
// also the stage label values of the engine metrics.
//
// Job-level spans: what a job's timeline holds above the stage spans.
// A cached job opens cache-lookup and, on a miss, store — the
// result-cache write, which the rest of the job runs inside because the
// graph encodes straight into the cache's file. fit is the model-fit
// pass (inference-path inputs whose model the job has to fit itself:
// its absence means the model came stored with the input, which the
// cache-lookup span's model attr records) and stream the reconstruction
// pass; stream is the parent of the plan and epoch spans.
//
// SpanEpoch is one sampled epoch (Tracer.StartEpoch names it); the
// stage spans of that epoch hang off it.
const (
	StagePlan SpanName = iota
	StageDecompose
	StageService
	StageEmulate
	StageMerge
	JobSpanCacheLookup
	JobSpanFit
	JobSpanStream
	JobSpanStore
	SpanEpoch
	numSpanNames
)

// NumStages is the number of engine stages: the names before
// JobSpanCacheLookup.
const NumStages = JobSpanCacheLookup

var spanNames = [numSpanNames]string{
	"plan", "decompose", "service", "emulate", "merge",
	"cache-lookup", "fit", "stream", "store",
	"epoch",
}

// String returns the name a served timeline carries.
func (n SpanName) String() string { return spanNames[n] }

// AttrKey is a span attribute key from the same vocabulary: hit and
// model on cache-lookup, requests and epoch on an epoch, token_wait_ns
// on plan.
type AttrKey uint8

const (
	AttrHit AttrKey = iota
	AttrModel
	AttrRequests
	AttrTokenWaitNS
	AttrEpoch
	numAttrKeys
)

var attrKeys = [numAttrKeys]string{"hit", "model", "requests", "token_wait_ns", "epoch"}

// String returns the key a served timeline carries.
func (k AttrKey) String() string { return attrKeys[k] }

// EngineMetrics is the engine's instrumentation hook
// (engine.Config.Metrics): per-stage wall time and queue occupancy,
// token-pool wait, epochs in flight, requests reconstructed, and the
// sources of a job run's model, input and targets. A cache hit is not
// counted here: the job's caller counts its outcome. A nil
// *EngineMetrics disables instrumentation entirely.
type EngineMetrics struct {
	// stageNanos accumulates wall nanoseconds spent per stage (exposed
	// as engine_stage_seconds_total); stageEpochs counts epochs that
	// passed through each stage — the merge stage's count is the epochs
	// merged into output.
	stageNanos  [NumStages]*Counter
	stageEpochs [NumStages]*Counter
	// queueDepth is the occupancy of each stage's input queue
	// (StagePlan has none and stays zero).
	queueDepth [NumStages]*Gauge
	// tokenWaitNanos accumulates producer stalls on the in-flight
	// token pool — backpressure from slow downstream stages.
	tokenWaitNanos *Counter
	// epochsInFlight is the number of epochs holding an in-flight
	// token (admitted by the planner, not yet merged).
	epochsInFlight *Gauge
	// requests counts the requests of merged epochs.
	requests *Counter
	// modelFitsJob / modelFitsStored count inference-path jobs by where
	// their model came from (engine_model_fits_total{source}): fitted by
	// the job in a pass over its input, or read from the store, fitted
	// once at ingest. The share of "job" is the share of such jobs still
	// decoding their input twice.
	modelFitsJob    *Counter
	modelFitsStored *Counter
	// inputsRendering / inputsBlob count cached jobs that ran by the file
	// they decoded (engine_job_inputs_total{source}): the blob's bin
	// rendering, written at ingest, or the uploaded blob itself. The
	// share of "blob" among text uploads is the share still parsing
	// their text.
	inputsRendering *Counter
	inputsBlob      *Counter
	// targetsKept / targetsBuilt count the devices job runs took
	// (engine_targets_total{source}): a kept device of the job's config,
	// Reset, or one built because none was kept.
	targetsKept  *Counter
	targetsBuilt *Counter
}

// NewEngineMetrics registers the engine metric set on r.
func NewEngineMetrics(r *Registry) *EngineMetrics {
	m := &EngineMetrics{}
	for i := range NumStages {
		l := Labels{"stage": i.String()}
		m.stageNanos[i] = r.CounterScaled("engine_stage_seconds_total",
			"Cumulative wall time per engine pipeline stage.", l, 1e-9)
		m.stageEpochs[i] = r.Counter("engine_stage_epochs_total",
			"Epochs processed per engine pipeline stage.", l)
		m.queueDepth[i] = r.Gauge("engine_stage_queue_depth",
			"Occupancy of each pipeline stage's input queue.", l)
	}
	m.tokenWaitNanos = r.CounterScaled("engine_token_wait_seconds_total",
		"Cumulative producer wall time stalled on the in-flight epoch token pool.", nil, 1e-9)
	m.epochsInFlight = r.Gauge("engine_epochs_in_flight",
		"Epochs admitted by the planner and not yet merged.", nil)
	m.requests = r.Counter("engine_requests_total", "Trace requests reconstructed.", nil)
	const fitsHelp = "Inference-path jobs by the source of their model: fitted by the job, or stored with the blob at ingest."
	m.modelFitsJob = r.Counter("engine_model_fits_total", fitsHelp, Labels{"source": "job"})
	m.modelFitsStored = r.Counter("engine_model_fits_total", fitsHelp, Labels{"source": "stored"})
	const inputsHelp = "Cached jobs that ran, by the file they decoded: the blob's bin rendering written at ingest, or the blob."
	m.inputsRendering = r.Counter("engine_job_inputs_total", inputsHelp, Labels{"source": "rendering"})
	m.inputsBlob = r.Counter("engine_job_inputs_total", inputsHelp, Labels{"source": "blob"})
	const targetsHelp = "Devices job runs took, by source: kept from an earlier job of the same target config, or built."
	m.targetsKept = r.Counter("engine_targets_total", targetsHelp, Labels{"source": "kept"})
	m.targetsBuilt = r.Counter("engine_targets_total", targetsHelp, Labels{"source": "built"})
	return m
}

// Target records one device a job run took.
func (m *EngineMetrics) Target(kept bool) {
	if m == nil {
		return
	}
	if kept {
		m.targetsKept.Inc()
	} else {
		m.targetsBuilt.Inc()
	}
}

// JobInput records the file one cached job that ran decoded.
func (m *EngineMetrics) JobInput(rendering bool) {
	if m == nil {
		return
	}
	if rendering {
		m.inputsRendering.Inc()
	} else {
		m.inputsBlob.Inc()
	}
}

// ModelFit records one inference-path job's model source.
func (m *EngineMetrics) ModelFit(stored bool) {
	if m == nil {
		return
	}
	if stored {
		m.modelFitsStored.Inc()
	} else {
		m.modelFitsJob.Inc()
	}
}

// EpochAdmitted records the planner admitting one epoch: it takes an
// in-flight token, has passed the plan stage, and waits in the
// decompose stage's queue.
func (m *EngineMetrics) EpochAdmitted() {
	if m == nil {
		return
	}
	m.epochsInFlight.Inc()
	m.stageEpochs[StagePlan].Inc()
	m.queueDepth[StageDecompose].Inc()
}

// PlanDone records a run's planner: wall is its whole wall time,
// tokenWait the part of it stalled on the token pool, which counts as
// backpressure rather than planning.
func (m *EngineMetrics) PlanDone(wall, tokenWait time.Duration) {
	if m == nil {
		return
	}
	m.tokenWaitNanos.Add(int64(tokenWait))
	m.stageNanos[StagePlan].Add(int64(wall - tokenWait))
}

// EpochRetired records an epoch leaving the merge stage and handing
// back its token. Only a merged epoch counts as output; one drained
// after an emit error still leaves the in-flight gauge.
func (m *EngineMetrics) EpochRetired(requests int, merged bool) {
	if m == nil {
		return
	}
	if merged {
		m.requests.Add(int64(requests))
	}
	m.epochsInFlight.Dec()
}

// StageAdd records d of wall time (and one epoch) against a stage.
func (m *EngineMetrics) StageAdd(stage SpanName, d time.Duration) {
	if m == nil {
		return
	}
	m.stageNanos[stage].Add(int64(d))
	m.stageEpochs[stage].Inc()
}

// QueuePush/QueuePop track a stage input queue's occupancy around
// channel sends and receives.
func (m *EngineMetrics) QueuePush(stage SpanName) {
	if m == nil {
		return
	}
	m.queueDepth[stage].Inc()
}

func (m *EngineMetrics) QueuePop(stage SpanName) {
	if m == nil {
		return
	}
	m.queueDepth[stage].Dec()
}

// CorpusMetrics is the corpus store's instrumentation hook
// (Store.SetMetrics): ingest volume, digest dedup and ingest-time model
// fits. A nil *CorpusMetrics disables instrumentation.
type CorpusMetrics struct {
	ingestBytes   *Counter
	ingestRecords *Counter
	ingestTraces  *Counter
	dedupHits     *Counter
	// dedupCompared counts the dedups answered by comparing the upload
	// with the stored blob it matched, with nothing staged or hashed.
	dedupCompared *Counter
	// modelsFitted counts blobs that landed with a fitted inference
	// model; fitNanos is the time ingest spent estimating (exposed as
	// corpus_ingest_fit_seconds_total), kept or not — the price an
	// upload pays so that no job on the blob fits again.
	modelsFitted *Counter
	fitNanos     *Counter
}

// NewCorpusMetrics registers the corpus metric set on r.
func NewCorpusMetrics(r *Registry) *CorpusMetrics {
	return &CorpusMetrics{
		ingestBytes: r.Counter("corpus_ingest_bytes_total",
			"Bytes accepted by corpus ingest (including deduplicated uploads).", nil),
		ingestRecords: r.Counter("corpus_ingest_records_total",
			"Trace records decoded during corpus ingest.", nil),
		ingestTraces: r.Counter("corpus_ingest_traces_total",
			"New traces landed in the corpus.", nil),
		dedupHits: r.Counter("corpus_dedup_hits_total",
			"Uploads discarded because their digest was already stored.", nil),
		dedupCompared: r.Counter("corpus_dedup_compared_total",
			"Re-uploads answered by comparing them with the stored blob, without staging or hashing (also counted in corpus_dedup_hits_total).", nil),
		modelsFitted: r.Counter("corpus_models_fitted_total",
			"Ingested traces that landed with a fitted inference model in their sidecar.", nil),
		fitNanos: r.CounterScaled("corpus_ingest_fit_seconds_total",
			"Cumulative wall time corpus ingest spent estimating inference models.", nil, 1e-9),
	}
}

// IngestObserve records one ingest outcome: the upload's bytes and the
// records decoded for it, 0 for a dedup that decoded nothing.
func (m *CorpusMetrics) IngestObserve(bytes, records int64, created bool) {
	if m == nil {
		return
	}
	m.ingestBytes.Add(bytes)
	m.ingestRecords.Add(records)
	if created {
		m.ingestTraces.Inc()
	} else {
		m.dedupHits.Inc()
	}
}

// DedupCompared records that the dedup IngestObserve just counted was
// answered by comparison with the stored blob.
func (m *CorpusMetrics) DedupCompared() {
	if m != nil {
		m.dedupCompared.Inc()
	}
}

// FitObserve records one ingest-time model estimate: its wall time, and
// whether the model was kept.
func (m *CorpusMetrics) FitObserve(d time.Duration, kept bool) {
	if m == nil {
		return
	}
	m.fitNanos.Add(int64(d))
	if kept {
		m.modelsFitted.Inc()
	}
}
