package engine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/apicode"
	"repro/internal/baseline"
	"repro/internal/infer"
	"repro/internal/trace"
)

// maxFIODevice bounds JobSpec.FIODevice, written into every iolog line.
const maxFIODevice = 4096

// JobSpec describes one batch reconstruction: the JSON body
// tracetrackerd accepts, the value the tracetracker CLI fills from its
// flags, and the unit of work RunJob executes.
//
// There is one way a job runs, whichever front end built the spec and
// whichever method it names: the input file streams through the
// engine's stage graph into its output file — decoder
// (trace.OpenFileDecoder: arrival order, the near-sorted formats
// through their format's reorder window; a RunJobCached job on a text
// upload decodes the bin rendering of exactly that stream which the
// cache wrote at ingest, ResultCache.JobInput) → (model fit,
// tracetracker/dynamic on inference-path inputs only, and not when the
// result cache holds the input's model) → sharded reconstruction →
// encoder — holding O(Workers · MaxShardRequests)
// requests plus the input format's window, never the trace
// (acceleration, which has no device pass, holds one). A finished job
// is a file: Out, or the result-cache entry of a RunJobCached job (the
// CLI without -out hands RunJobTo its stdout instead). Keys of earlier
// versions are ignored: "stream" (every job streams), "parallel"
// (workers are the operator's Config.Workers) and "reorder_window"
// (arrival order is the input format's, trace.ReorderWindow).
type JobSpec struct {
	// Name labels the job (defaults to the input path).
	Name string `json:"name,omitempty"`
	// In is the input trace path; InFormat one of trace.Formats(Input):
	// csv, bin, msrc, spc. RunJobCached may decode the cache's rendering
	// of In instead (ResultCache.JobInput); the cache key and the stored
	// spec are still this spec's.
	In       string `json:"in"`
	InFormat string `json:"informat,omitempty"`
	// Out is the output path, written atomically (partial file +
	// rename). RunJob requires it; RunJobCached lands the output in the
	// result cache and RunJobTo in the sink it is given, and both ignore
	// it. OutFormat one of trace.Formats(Output): csv, bin, blktrace,
	// fio.
	Out       string `json:"out,omitempty"`
	OutFormat string `json:"outformat,omitempty"`
	// FIODevice is the replay target embedded in fio output, written
	// into every iolog line: 1–4096 bytes, none of them a space, a
	// control character or DEL.
	FIODevice string `json:"fio_device,omitempty"`
	// Method names a row of the method table (Methods); empty selects
	// tracetracker.
	Method string `json:"method,omitempty"`
	// Device names the reconstruction target by a name or an alias of
	// the engine's device registry (Devices); "" is its default, array.
	// Every target runs the same stage graph on Config.Workers.
	Device string `json:"device,omitempty"`
	// FTLConfig tunes the "ftl" target; a knob it spells at its
	// registry Default is as if unset (Normalized). It must be unset for
	// other targets and enters the spec fingerprint only when selected.
	FTLConfig *FTLSpec `json:"ftl_config,omitempty"`
	// HostConfig tunes the "host" target, same contract as FTLConfig.
	HostConfig *HostSpec `json:"host_config,omitempty"`
	// Factor is the acceleration divisor (acceleration method).
	Factor float64 `json:"factor,omitempty"`
	// ThresholdUS is the fixed-th idle threshold in microseconds.
	ThresholdUS float64 `json:"threshold_us,omitempty"`
}

// Normalized returns the spec with all defaults applied — the form
// RunJob executes and servers should persist, so later consumers see
// the same effective values RunJob used. A nested device config is
// copied into its one form (offDefault), so equal targets have equal
// fields: Fingerprint and the kept-target key (targetsFor) read them.
func (s JobSpec) Normalized() JobSpec {
	if s.InFormat == "" {
		s.InFormat = "csv"
	}
	if s.OutFormat == "" {
		s.OutFormat = "csv"
	}
	if s.Method == "" {
		s.Method = "tracetracker"
	}
	s.Device = normalizeDevice(s.Device)
	if s.Name == "" {
		s.Name = s.In
	}
	if s.FIODevice == "" {
		s.FIODevice = "/dev/nvme0n1"
	}
	if s.Factor == 0 {
		s.Factor = baseline.DefaultAccelerationFactor
	}
	if s.ThresholdUS == 0 {
		s.ThresholdUS = float64(baseline.DefaultFixedThreshold) / float64(time.Microsecond)
	}
	s.FTLConfig = offDefault(s.FTLConfig, "ftl")
	s.HostConfig = offDefault(s.HostConfig, "host")
	return s
}

// ValidationError is a JobSpec validation failure: Field names the
// offending JSON field and Code is a stable machine-readable cause the
// daemon's error envelope forwards to clients.
type ValidationError struct {
	// Field is the JSON field path, e.g. "device" or "ftl_config.blocks".
	Field string
	// Code is the stable cause, e.g. apicode.UnknownDevice.
	Code apicode.Code
	msg  string
}

func (e *ValidationError) Error() string {
	return "engine: " + e.Field + ": " + e.msg
}

// Validate rejects specs RunJob cannot execute. Call it on a
// Normalized spec — normalization is the single place defaults are
// applied.
func (s JobSpec) Validate() error {
	if s.In == "" {
		return &ValidationError{Field: "in", Code: apicode.MissingInput,
			msg: "job needs an input path"}
	}
	if !slices.Contains(trace.Formats(trace.Input), s.InFormat) {
		return &ValidationError{Field: "informat", Code: apicode.UnknownFormat,
			msg: fmt.Sprintf("unknown input format %q", s.InFormat)}
	}
	if !slices.Contains(trace.Formats(trace.Output), s.OutFormat) {
		return &ValidationError{Field: "outformat", Code: apicode.UnknownFormat,
			msg: fmt.Sprintf("unknown output format %q", s.OutFormat)}
	}
	if _, ok := methodFor(s.Method); !ok {
		return &ValidationError{Field: "method", Code: apicode.UnknownMethod,
			msg: fmt.Sprintf("unknown method %q", s.Method)}
	}
	dev := normalizeDevice(s.Device)
	if deviceEntryFor(dev) == nil {
		return &ValidationError{Field: "device", Code: apicode.UnknownDevice,
			msg: fmt.Sprintf("unknown device %q", s.Device)}
	}
	if s.FTLConfig != nil && dev != "ftl" {
		return &ValidationError{Field: "ftl_config", Code: apicode.ConfigMismatch,
			msg: fmt.Sprintf("ftl_config is only valid for the ftl device, not %q", dev)}
	}
	if s.HostConfig != nil && dev != "host" {
		return &ValidationError{Field: "host_config", Code: apicode.ConfigMismatch,
			msg: fmt.Sprintf("host_config is only valid for the host device, not %q", dev)}
	}
	if err := s.FTLConfig.validate(); err != nil {
		return err
	}
	if err := s.HostConfig.validate(); err != nil {
		return err
	}
	if n := len(s.FIODevice); n == 0 || n > maxFIODevice ||
		strings.ContainsFunc(s.FIODevice, func(r rune) bool { return r <= ' ' || r == 0x7f }) {
		return &ValidationError{Field: "fio_device", Code: apicode.BadSpec,
			msg: fmt.Sprintf("fio device (%d bytes) must be 1-%d bytes with no space, control character or DEL", len(s.FIODevice), maxFIODevice)}
	}
	if !(s.Factor > 0) || math.IsInf(s.Factor, 0) {
		return &ValidationError{Field: "factor", Code: apicode.BadSpec,
			msg: fmt.Sprintf("acceleration factor %v is not a finite number above 0", s.Factor)}
	}
	if !(s.ThresholdUS > 0) || !durationUS(s.ThresholdUS) {
		return &ValidationError{Field: "threshold_us", Code: apicode.BadSpec,
			msg: fmt.Sprintf("idle threshold %v us is not a finite number above 0 that fits a duration", s.ThresholdUS)}
	}
	return nil
}

// JobResult is the outcome of one job. Every finished job is a file.
type JobResult struct {
	// Report carries the stage graph's diagnostics (nil for the
	// acceleration method, which runs no device pass).
	Report *Report
	// OutPath is where the output is: the spec's Out for RunJob, the
	// result-cache file for RunJobCached.
	OutPath string
}

// ErrStorage marks a job that failed because its output could not be
// written — a full or dying disk under the result cache or the output
// path — rather than because of its input or spec. The
// sink sits at the bottom of the stage graph, so its failure comes
// back through the encoder and the merge as if the reconstruction had
// gone wrong; jobWriter records it where it happens and RunJobTo
// reports that instead.
var ErrStorage = errors.New("engine: storage fault writing the job's output")

// jobWriter forwards to a job's output sink and remembers the first
// write error.
type jobWriter struct {
	w   io.Writer
	err error
}

func (j *jobWriter) Write(p []byte) (int, error) {
	n, err := j.w.Write(p)
	if err != nil && j.err == nil {
		j.err = err
	}
	return n, err
}

// RunJob executes one batch reconstruction into the file spec.Out with
// cfg as the engine configuration: RunJobTo around an atomic write, so
// a failed job never truncates or replaces an existing file. It is what
// a front end with an output path calls — the tracetracker CLI builds
// its spec from flags, the daemon from the request body.
func RunJob(cfg Config, spec JobSpec) (*JobResult, error) {
	if spec.Out == "" {
		return nil, errors.New("engine: job needs an output path")
	}
	var rep *Report
	err := writeAtomically(spec.Out, func(w io.Writer) (err error) {
		rep, err = RunJobTo(cfg, spec, w)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &JobResult{Report: rep, OutPath: spec.Out}, nil
}

// RunJobTo is the one job path: it normalizes and validates spec, runs
// it — any method, on cfg.Workers — and writes the encoded output to
// sink: RunJob's partial file, the result cache's staging file, or the
// CLI's stdout. spec.Out is not consulted. A sink failure
// is returned as ErrStorage, whatever the graph made of it.
func RunJobTo(cfg Config, spec JobSpec, sink io.Writer) (*Report, error) {
	return runJobTo(cfg, spec, sink, nil)
}

// runJobTo is RunJobTo with the model RunJobCached found stored with
// the input (nil: none, the job fits if its input needs one).
func runJobTo(cfg Config, spec JobSpec, sink io.Writer, fitted *infer.Model) (*Report, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// The spec's device selects the target for every method; stateful
	// targets (hdd, ftl, host) run the same graph at the full worker
	// count — they never imply a serial reconstruction. The run takes
	// its devices from the kept targets (targets.go).
	targets := targetsFor(spec, cfg.Metrics)
	cfg.Device = targets.take
	out := &jobWriter{w: sink}
	enc, err := trace.NewEncoder(spec.OutFormat, out, spec.FIODevice)
	if err != nil {
		return nil, err
	}
	meth, _ := methodFor(spec.Method)
	rep, err := New(cfg).runMethod(meth, spec, enc, fitted)
	// runMethod returns, failed or not, once the stage graph's
	// goroutines have exited: nothing uses the devices the run took.
	targets.release()
	if out.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStorage, out.err)
	}
	return rep, err
}

// method is one row of the method table: everything JobSpec.Method
// selects. See the package comment for why the rows are one graph.
type method struct {
	name string
	// graph: the method runs the stage graph. acceleration has no
	// device pass and runs a record loop instead.
	graph bool
	// ownModel: the idle rule reads the input's own model — the
	// recorded latencies of a Tsdev-known input, else the fit (stored
	// with the input or run by the job). Otherwise the rule is the
	// constant model of tslatUS.
	ownModel bool
	// post: the asynchronous-mode post-processing runs.
	post bool
	// tslatUS is the constant model's Tslat in microseconds, for a
	// graph method without ownModel.
	tslatUS func(JobSpec) float64
	// knob is the JSON name of the one spec knob only this method reads.
	knob string
}

// methods is the method table: the five methods of the paper's
// evaluation, tracetracker first.
var methods = [...]method{
	{name: "tracetracker", graph: true, ownModel: true, post: true},
	{name: "dynamic", graph: true, ownModel: true},
	{name: "fixed-th", graph: true, tslatUS: func(s JobSpec) float64 { return s.ThresholdUS }, knob: "threshold_us"},
	{name: "revision", graph: true, tslatUS: func(JobSpec) float64 { return revisionThresholdUS }},
	{name: "acceleration", knob: "factor"},
}

// Methods returns the JobSpec.Method names, default first.
func Methods() []string {
	names := make([]string, len(methods))
	for i := range methods {
		names[i] = methods[i].name
	}
	return names
}

// methodFor returns the table row named name.
func methodFor(name string) (method, bool) {
	for _, m := range methods {
		if m.name == name {
			return m, true
		}
	}
	return method{}, false
}

// revisionThresholdUS is the fixed-th threshold that makes revision: one
// no inter-arrival gap reaches (2⁵² µs ≈ 143 years), so nothing is ever
// idle. It stays well inside what infer.Model.Tslat can convert to a
// time.Duration, which math.MaxInt64/1000 µs — rounded up as a float64 —
// does not.
const revisionThresholdUS = 1 << 52

// runMethod runs a validated spec's method on the job's decoder (the
// input in arrival order, trace.OpenFileDecoder) and encoder. A method
// with its own model takes fitted — the input's model RunJobCached
// found stored — or fits the input itself when it needs one; a
// constant-model method fits nothing, any target, any worker count, and
// reports no Model: the constant is an implementation device, not a
// fit. acceleration runs no graph and returns no report.
func (e *Engine) runMethod(meth method, spec JobSpec, enc trace.Encoder, fitted *infer.Model) (*Report, error) {
	var m *infer.Model
	switch {
	case meth.tslatUS != nil:
		// All channel delay: Tslat is the threshold for every request
		// and Tsdev zero, so nothing is ever asynchronous.
		tslat := meth.tslatUS(spec)
		m = &infer.Model{TcdelReadMicros: tslat, TcdelWriteMicros: tslat, FlatReadMicros: -1, FlatWriteMicros: -1}
	case meth.ownModel && fitted != nil:
		m = fitted
		e.cfg.Metrics.ModelFit(true)
	case meth.ownModel:
		var err error
		if m, err = e.fitModelFromPath(spec.In, spec.InFormat); err != nil {
			return nil, err
		}
	}
	dec, _, err := trace.OpenFileDecoder(spec.In, spec.InFormat)
	if err != nil {
		return nil, err
	}
	defer dec.Close()
	if !meth.graph {
		return nil, accelerate(dec, enc, spec.Factor)
	}
	return e.reconstructStream(dec, enc, m, meth)
}

// accelerate is the acceleration method, replay.Accelerate record by
// record: every inter-arrival gap divided by factor, no new device
// times. It applies the stream planner's input rules as it goes.
func accelerate(dec trace.Decoder, enc trace.Encoder, factor float64) error {
	var n int64
	var prev, now time.Duration
	err := trace.ForEachBatch(dec, func(batch []trace.Request) error {
		for _, r := range batch {
			if err := checkInput(&r, n, n > 0, prev); err != nil {
				return err
			}
			if n == 0 {
				meta := dec.Meta()
				meta.TsdevKnown = false
				if err := enc.Begin(meta); err != nil {
					return err
				}
				prev = r.Arrival
			}
			now += time.Duration(float64(r.Arrival-prev) / factor)
			prev = r.Arrival
			r.Arrival, r.Latency = now, 0
			if err := enc.Write(r); err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("input: %w", trace.ErrNoRequest)
	}
	return enc.Close()
}

// partialSeq disambiguates concurrent partial files within this
// process; the pid handles other processes.
var partialSeq atomic.Uint64

// writeAtomically runs write against a uniquely named partial file
// next to the target and renames it over the target only on success,
// so a failed or interrupted job never truncates an existing output
// and two jobs racing on the same output path cannot corrupt each
// other (last rename wins whole). The partial is opened with the same
// 0666-through-umask permissions os.Create gives a directly written
// output.
func writeAtomically(path string, write func(io.Writer) error) error {
	partial := fmt.Sprintf("%s.partial-%d-%d", path, os.Getpid(), partialSeq.Add(1))
	tmp, err := os.OpenFile(partial, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(partial)
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(partial)
		tmp = nil
		return err
	}
	tmp = nil
	if err := os.Rename(partial, path); err != nil {
		os.Remove(partial)
		return err
	}
	return nil
}
