package engine

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/obs"
	"repro/internal/trace"
)

// DefaultReorderWindow is the bounded arrival-sort window streaming
// jobs apply to near-sorted corpora (msrc/spc inputs).
const DefaultReorderWindow = 1 << 16

// JobSpec describes one batch reconstruction: the JSON body
// tracetrackerd accepts and the unit of work RunJob executes.
type JobSpec struct {
	// Name labels the job (defaults to the input path).
	Name string `json:"name,omitempty"`
	// In is the input trace path; InFormat one of csv, bin, msrc, spc.
	In       string `json:"in"`
	InFormat string `json:"informat,omitempty"`
	// Out is the output path; empty keeps the result in memory for the
	// result endpoint. OutFormat one of csv, bin, blktrace, fio.
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
	// stateful targets (hdd, ftl, host) run on the engine's serviced
	// graph, so Parallel applies to them like any other job. See the engine device registry (Devices) for the full
	// capability table.
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
	// Stream selects the bounded-memory streaming path (requires In
	// and Out paths; tracetracker/dynamic methods only).
	Stream bool `json:"stream,omitempty"`
	// ReorderWindow bounds the streaming arrival sort (0 = default for
	// msrc/spc inputs, 1 = none).
	ReorderWindow int `json:"reorder_window,omitempty"`
}

// Normalized returns the spec with all defaults applied — the form
// RunJob executes and servers should persist, so later consumers (for
// example a result endpoint re-encoding an in-memory trace) see the
// same effective values RunJob used.
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
	// Code is the stable cause, e.g. "unknown_device".
	Code string //tracelint:errcode-field
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
		return &ValidationError{Field: "in", Code: "missing_input",
			msg: "job needs an input path"}
	}
	switch s.InFormat {
	case "csv", "bin", "msrc", "spc":
	default:
		return &ValidationError{Field: "informat", Code: "unknown_format",
			msg: fmt.Sprintf("unknown input format %q", s.InFormat)}
	}
	switch s.OutFormat {
	case "csv", "bin", "blktrace", "fio":
	default:
		return &ValidationError{Field: "outformat", Code: "unknown_format",
			msg: fmt.Sprintf("unknown output format %q", s.OutFormat)}
	}
	switch s.Method {
	case "tracetracker", "dynamic", "fixed-th", "revision", "acceleration":
	default:
		return &ValidationError{Field: "method", Code: "unknown_method",
			msg: fmt.Sprintf("unknown method %q", s.Method)}
	}
	dev := normalizeDevice(s.Device)
	if deviceEntryFor(dev) == nil {
		return &ValidationError{Field: "device", Code: "unknown_device",
			msg: fmt.Sprintf("unknown device %q", s.Device)}
	}
	if s.FTLConfig != nil && dev != "ftl" {
		return &ValidationError{Field: "ftl_config", Code: "config_mismatch",
			msg: fmt.Sprintf("ftl_config is only valid for the ftl device, not %q", dev)}
	}
	if s.HostConfig != nil && dev != "host" {
		return &ValidationError{Field: "host_config", Code: "config_mismatch",
			msg: fmt.Sprintf("host_config is only valid for the host device, not %q", dev)}
	}
	if err := s.FTLConfig.validate(); err != nil {
		return err
	}
	if err := s.HostConfig.validate(); err != nil {
		return err
	}
	if s.Stream {
		if s.Method != "tracetracker" && s.Method != "dynamic" {
			return &ValidationError{Field: "stream", Code: "bad_stream_spec",
				msg: fmt.Sprintf("streaming supports the tracetracker/dynamic methods, not %q", s.Method)}
		}
		if s.Out == "" {
			return &ValidationError{Field: "out", Code: "bad_stream_spec",
				msg: "streaming jobs need an output path"}
		}
	}
	return nil
}

// JobResult is the outcome of one job.
type JobResult struct {
	// Report carries engine diagnostics (nil for baseline methods).
	Report *Report
	// OutPath is where the output was written ("" if held in memory).
	OutPath string
	// Trace is the in-memory result when no output path was given.
	Trace *trace.Trace
}

// RunJob executes one batch reconstruction with cfg as the engine
// base configuration (the spec's Parallel overrides its Workers).
func RunJob(cfg Config, spec JobSpec) (*JobResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Parallel > 0 {
		cfg.Workers = spec.Parallel
	}
	// The spec's device selects the target for every method; stateful
	// targets (hdd, ftl, host) run on the engine's serviced graph at
	// the job's full worker count — they never imply a serial
	// reconstruction.
	dev, err := deviceFactoryFor(spec)
	if err != nil {
		return nil, err
	}
	cfg.Device = dev
	switch spec.Method {
	case "dynamic":
		cfg.Core.SkipPostProcess = true
	case "tracetracker":
	default:
		return runBaselineJob(cfg, spec)
	}
	eng := New(cfg)

	if spec.Stream {
		// Probe the input before touching the output, so a job with a
		// bad input path cannot clobber an existing file.
		if _, err := os.Stat(spec.In); err != nil {
			return nil, err
		}
		var rep *Report
		err := writeAtomically(spec.Out, func(out io.Writer) error {
			enc, err := trace.NewEncoder(spec.OutFormat, out, spec.FIODevice)
			if err != nil {
				return err
			}
			rep, err = eng.ReconstructPath(spec.In, spec.InFormat, spec.ReorderWindow, enc)
			return err
		})
		if err != nil {
			return nil, err
		}
		return &JobResult{Report: rep, OutPath: spec.Out}, nil
	}

	dsp := cfg.Trace.Start(cfg.Trace.Root(), "decode")
	old, err := readTraceFile(spec.In, spec.InFormat)
	dsp.End()
	if err != nil {
		return nil, err
	}
	if err := old.Validate(); err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	result, rep, err := eng.Reconstruct(old)
	if err != nil {
		return nil, err
	}
	return finishJob(cfg.Trace, spec, result, reportFromCore(rep, int64(result.Len()), eng.cfg.Workers))
}

// runBaselineJob executes the non-engine comparison methods (always
// in memory and sequential — they exist for fidelity comparisons, not
// throughput).
func runBaselineJob(cfg Config, spec JobSpec) (*JobResult, error) {
	dsp := cfg.Trace.Start(cfg.Trace.Root(), "decode")
	old, err := readTraceFile(spec.In, spec.InFormat)
	dsp.End()
	if err != nil {
		return nil, err
	}
	if err := old.Validate(); err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	var result *trace.Trace
	rsp := cfg.Trace.Start(cfg.Trace.Root(), "reconstruct")
	switch spec.Method {
	case "fixed-th":
		result = baseline.FixedTh(old, cfg.withDefaults().Device(), time.Duration(spec.ThresholdUS*float64(time.Microsecond)))
	case "revision":
		result = baseline.Revision(old, cfg.withDefaults().Device())
	case "acceleration":
		result = baseline.Acceleration(old, spec.Factor)
	}
	rsp.End()
	return finishJob(cfg.Trace, spec, result, nil)
}

// finishJob writes or retains the result per the spec.
func finishJob(tr *obs.Tracer, spec JobSpec, result *trace.Trace, rep *Report) (*JobResult, error) {
	if spec.Out == "" {
		return &JobResult{Report: rep, Trace: result}, nil
	}
	esp := tr.Start(tr.Root(), "encode")
	err := writeAtomically(spec.Out, func(w io.Writer) error {
		return writeTraceTo(w, spec.OutFormat, spec.FIODevice, result)
	})
	esp.End()
	if err != nil {
		return nil, err
	}
	return &JobResult{Report: rep, OutPath: spec.Out}, nil
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

// readTraceFile materializes a whole trace from a file.
func readTraceFile(path, format string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadFormat(format, f)
}

// writeTraceTo renders a whole trace in the named format.
func writeTraceTo(w io.Writer, format, fioDevice string, t *trace.Trace) error {
	enc, err := trace.NewEncoder(format, w, fioDevice)
	if err != nil {
		return err
	}
	return trace.EncodeTrace(enc, t)
}
