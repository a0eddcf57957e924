package engine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/apicode"
	"repro/internal/baseline"
	"repro/internal/infer"
	"repro/internal/trace"
)

// DefaultReorderWindow is the bounded arrival-sort window jobs apply
// to near-sorted corpora (msrc/spc inputs).
const DefaultReorderWindow = 1 << 16

// JobSpec describes one batch reconstruction: the JSON body
// tracetrackerd accepts, the value the tracetracker CLI fills from its
// flags, and the unit of work RunJob executes.
//
// There is one way a job runs, whichever front end built the spec and
// whichever method it names: the input file streams through the
// engine's stage graph into its output file — decoder → (model fit,
// tracetracker/dynamic on inference-path inputs only, and not when the
// result cache holds the input's model) → sharded reconstruction →
// encoder — holding O(Workers · MaxShardRequests)
// requests, never the trace (acceleration, which has no device pass,
// holds one). A finished job is a file: Out, or the result-cache entry
// of a RunJobCached job (the CLI without -out hands RunJobTo its stdout
// instead). (The JSON key "stream", a mode switch in earlier versions,
// is ignored: every job streams.)
type JobSpec struct {
	// Name labels the job (defaults to the input path).
	Name string `json:"name,omitempty"`
	// In is the input trace path; InFormat one of trace.Formats(Input):
	// csv, bin, msrc, spc.
	In       string `json:"in"`
	InFormat string `json:"informat,omitempty"`
	// Out is the output path, written atomically (partial file +
	// rename). RunJob requires it; RunJobCached lands the output in the
	// result cache and copies it to Out only when Out is set; the daemon
	// assigns a spool file to path jobs that leave it empty; RunJobTo
	// writes to the sink it is given and ignores it. OutFormat one of
	// trace.Formats(Output): csv, bin, blktrace, fio.
	Out       string `json:"out,omitempty"`
	OutFormat string `json:"outformat,omitempty"`
	// FIODevice is the replay target embedded in fio output.
	FIODevice string `json:"fio_device,omitempty"`
	// Method is one of tracetracker (default), dynamic, fixed-th,
	// revision, acceleration.
	Method string `json:"method,omitempty"`
	// Device is the reconstruction target: "array" (default; alias
	// "new" — the paper's 4-SSD flash array), "ssd" (one member SSD),
	// "hdd" (alias "old" — the decade-old disk the public traces were
	// captured on), "ftl" (page-mapped flash translation layer with
	// background GC in idle gaps), or "host" (alias "hoststack" — the
	// syscall/page-cache/writeback stack over an inner device). The
	// stateful targets (hdd, ftl, host) run the same stage graph, so
	// Parallel applies to them like any other job. See the engine device
	// registry (Devices) for the full capability table.
	Device string `json:"device,omitempty"`
	// FTLConfig tunes the "ftl" target; it must be unset for other
	// targets and enters the spec fingerprint only when selected.
	FTLConfig *FTLSpec `json:"ftl_config,omitempty"`
	// HostConfig tunes the "host" target, same contract as FTLConfig.
	HostConfig *HostSpec `json:"host_config,omitempty"`
	// Factor is the acceleration divisor (acceleration method).
	Factor float64 `json:"factor,omitempty"`
	// ThresholdUS is the fixed-th idle threshold in microseconds.
	ThresholdUS float64 `json:"threshold_us,omitempty"`
	// Parallel overrides the engine worker count (0 = engine default).
	Parallel int `json:"parallel,omitempty"`
	// ReorderWindow bounds the arrival sort (0 = default for msrc/spc
	// inputs, 1 = none).
	ReorderWindow int `json:"reorder_window,omitempty"`
}

// Normalized returns the spec with all defaults applied — the form
// RunJob executes and servers should persist, so later consumers see
// the same effective values RunJob used.
func (s JobSpec) Normalized() JobSpec { return s.withDefaults() }

func (s JobSpec) withDefaults() JobSpec {
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
	if s.ReorderWindow == 0 && trace.NeedsSort(s.InFormat) {
		s.ReorderWindow = DefaultReorderWindow
	}
	// Canonicalize the nested device configs so semantically equal
	// specs fingerprint equally: an all-defaults config is the same as
	// none, and inner-device aliases normalize. The pointers are copied
	// before mutation — a spec shares no state with its Normalized form.
	if s.FTLConfig != nil && *s.FTLConfig == (FTLSpec{}) {
		s.FTLConfig = nil
	}
	if s.HostConfig != nil {
		hc := *s.HostConfig
		if hc.Inner != "" {
			hc.Inner = normalizeDevice(hc.Inner)
		}
		if hc == (HostSpec{}) {
			s.HostConfig = nil
		} else {
			s.HostConfig = &hc
		}
	}
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
	switch s.Method {
	case "tracetracker", "dynamic", "fixed-th", "revision", "acceleration":
	default:
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
	if !(s.Factor > 0) || math.IsInf(s.Factor, 0) {
		return &ValidationError{Field: "factor", Code: apicode.BadSpec,
			msg: fmt.Sprintf("acceleration factor %v is not a finite number above 0", s.Factor)}
	}
	// The upper bound keeps threshold_us · 1000 inside a time.Duration.
	if !(s.ThresholdUS > 0) || s.ThresholdUS*float64(time.Microsecond) >= math.MaxInt64 {
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
	// OutPath is where the output is: the spec's Out, or the
	// result-cache file for a RunJobCached job without one.
	OutPath string
}

// ErrStorage marks a job that failed because its output could not be
// written — a full or dying disk under the result cache, the spool or
// the output path — rather than because of its input or spec. The
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
// cfg as the engine base configuration (the spec's Parallel overrides
// its Workers): RunJobTo around an atomic write, so a failed job never
// truncates or replaces an existing file. It is what a front end with
// an output path calls — the tracetracker CLI builds its spec from
// flags, the daemon from the request body.
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
// it — any method, on the job's worker count — and writes the encoded
// output to sink: RunJob's partial file, the result cache's staging
// file, or the CLI's stdout. spec.Out is not consulted. A sink failure
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
	if spec.Parallel > 0 {
		cfg.Workers = spec.Parallel
	}
	// The spec's device selects the target for every method; stateful
	// targets (hdd, ftl, host) run the same graph at the job's full
	// worker count — they never imply a serial reconstruction.
	dev, err := deviceFactoryFor(spec)
	if err != nil {
		return nil, err
	}
	cfg.Device = dev
	out := &jobWriter{w: sink}
	enc, err := trace.NewEncoder(spec.OutFormat, out, spec.FIODevice)
	if err != nil {
		return nil, err
	}
	var rep *Report
	switch spec.Method {
	case "tracetracker", "dynamic":
		cfg.Core.SkipPostProcess = spec.Method == "dynamic"
		rep, err = New(cfg).ReconstructPath(spec.In, spec.InFormat, spec.ReorderWindow, enc, fitted)
	default:
		rep, err = runComparison(cfg, spec, enc)
	}
	if out.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStorage, out.err)
	}
	return rep, err
}

// revisionThresholdUS is the fixed-th threshold that makes revision: one
// no inter-arrival gap reaches (2⁵² µs ≈ 143 years), so nothing is ever
// idle. It stays well inside what infer.Model.Tslat can convert to a
// time.Duration, which math.MaxInt64/1000 µs — rounded up as a float64 —
// does not.
const revisionThresholdUS = 1 << 52

// runComparison executes the three comparison methods on the job's
// decoder, reorder window and encoder. fixed-th and revision are the
// stage graph under a constant model (see the package comment): all
// channel delay, so Tslat is the threshold for every request and Tsdev
// zero, with the recorded latencies kept out and post-processing off —
// no fit pass, any target, any worker count. The report's Model stays
// nil: the constant is an implementation device, not a fit.
// acceleration has no device pass and runs no graph.
func runComparison(cfg Config, spec JobSpec, enc trace.Encoder) (*Report, error) {
	cfg.Core.ForceInference, cfg.Core.SkipPostProcess = true, true
	e := New(cfg)
	dec, err := openDecoder(spec.In, spec.InFormat, spec.ReorderWindow, e.cfg.Workers)
	if err != nil {
		return nil, err
	}
	defer dec.Close()
	if spec.Method == "acceleration" {
		return nil, accelerate(dec, enc, spec.Factor)
	}
	threshold := spec.ThresholdUS
	if spec.Method == "revision" {
		threshold = revisionThresholdUS
	}
	rep, err := e.ReconstructStream(dec, enc, &infer.Model{
		TcdelReadMicros: threshold, TcdelWriteMicros: threshold,
		FlatReadMicros: -1, FlatWriteMicros: -1,
	})
	if err != nil {
		return nil, err
	}
	rep.Model = nil
	return rep, nil
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
