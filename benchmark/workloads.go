package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/workload"
)

// workloadSpec is one row of the benchmark's workload table. Names are
// stable identifiers: BENCHMARK.json, result files and later issues
// cite them.
type workloadSpec struct {
	// Name is also the key of the workload's "why" in BENCHMARK.json
	// and README.md.
	Name string
	// Profile is the internal/workload family the inputs come from;
	// MSNFS records completions (Tsdev-known), webmail does not.
	Profile  string
	Requests int
	InFormat string
	// OutFormat and Device go into the job spec.
	OutFormat string
	Device    string
	// Cycles is the timed cycle count per round at the default
	// -seconds, sized so three rounds measure for about that long on
	// the 2-CPU reference VM.
	Cycles int
	// Hot workloads prime the daemon with every base during set-up and
	// time only re-uploads and resubmissions.
	Hot bool
}

var workloads = []workloadSpec{
	{Name: "cold-array-bin", Profile: "MSNFS", Requests: 200_000, InFormat: "bin", OutFormat: "bin", Device: "array", Cycles: 40},
	{Name: "cold-infer-csv", Profile: "webmail", Requests: 100_000, InFormat: "csv", OutFormat: "csv", Device: "array", Cycles: 26},
	{Name: "cold-ftl-bin", Profile: "MSNFS", Requests: 100_000, InFormat: "bin", OutFormat: "bin", Device: "ftl", Cycles: 20},
	{Name: "cold-host-bin", Profile: "MSNFS", Requests: 30_000, InFormat: "bin", OutFormat: "bin", Device: "host", Cycles: 8},
	{Name: "hot-resubmit", Profile: "MSNFS", Requests: 200_000, InFormat: "bin", OutFormat: "bin", Device: "array", Cycles: 130, Hot: true},
}

// numBases is how many distinct base traces a workload rotates
// through, so no cycle replays its predecessor's input.
const numBases = 8

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// namePlaceholder stands in for the trace name inside an encoded
// template. Both codecs store the name verbatim in their header, so a
// cycle renames a trace by overwriting these bytes instead of
// re-encoding 200k requests; every cycle name has this length.
const namePlaceholder = "bench-b0-r0-c0000000"

func cycleName(base, round, seq int) string {
	return fmt.Sprintf("bench-b%d-r%d-c%07d", base%10, round%10, seq)
}

// template is an encoded trace with the offset of its name.
type template struct {
	data []byte
	off  int
}

func newTemplate(data []byte) (template, error) {
	off := bytes.Index(data, []byte(namePlaceholder))
	if off < 0 || bytes.Contains(data[off+1:], []byte(namePlaceholder)) {
		return template{}, fmt.Errorf("encoded trace does not hold its name exactly once")
	}
	return template{data: data, off: off}, nil
}

// named appends the template's bytes under name to dst[:0].
func (t template) named(dst []byte, name string) []byte {
	dst = append(dst[:0], t.data...)
	copy(dst[t.off:], name)
	return dst
}

// matches reports whether got is the template's bytes under name.
func (t template) matches(got []byte, name string) bool {
	end := t.off + len(name)
	return len(got) == len(t.data) &&
		bytes.Equal(got[:t.off], t.data[:t.off]) &&
		string(got[t.off:end]) == name &&
		bytes.Equal(got[end:], t.data[end:])
}

// base is one generated input with its reference output: the encoded
// old trace the daemon is sent, and the bytes a correct daemon must
// serve back — the serial core.Reconstruct of exactly the requests the
// daemon will decode, rendered in the job's output format.
type base struct {
	input    template
	expected template
	// lockSum is the SHA-256 of input.data (inputs.lock.json).
	lockSum  string
	requests int64
	// think is the injected think time, the ground truth the inferred
	// idle is scored against.
	think time.Duration
	// setup is how long generating this base and its reference took.
	setup time.Duration

	// The traced pass needs the decoded trace, the per-op ground truth
	// and the reference report; only base 0 keeps them.
	old    *trace.Trace
	out    *trace.Trace
	thinks []time.Duration
	refRep *core.Report
}

func encodeTrace(t *trace.Trace, format string) ([]byte, error) {
	var buf bytes.Buffer
	enc, err := trace.NewEncoder(format, &buf, "")
	if err != nil {
		return nil, err
	}
	if err := trace.EncodeTrace(enc, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildBase generates base idx of w for seed: an application of the
// workload's profile executed on the OLD device (the HDD the public
// corpora were captured on), stamped with the family's Tsdev property.
func buildBase(w workloadSpec, idx int, seed int64, keep bool) (*base, error) {
	start := time.Now()
	p, ok := workload.Lookup(w.Profile)
	if !ok {
		return nil, fmt.Errorf("unknown workload profile %q", w.Profile)
	}
	// The family depends on profile and size only, so hot-resubmit
	// replays exactly cold-array-bin's inputs.
	family := fmt.Sprintf("benchmark/%s/%d", w.Profile, w.Requests)
	app := workload.Generate(p, workload.GenOptions{Ops: w.Requests, Seed: workload.TraceSeed(family, idx) ^ seed})
	res := app.Execute(device.NewHDD(device.DefaultHDDConfig()))
	tr := res.Trace
	tr.Name, tr.Workload, tr.Set, tr.TsdevKnown = namePlaceholder, p.Name, p.Set, p.TsdevKnown
	if !p.TsdevKnown {
		// FIU-style collection recorded no completions.
		for i := range tr.Requests {
			tr.Requests[i].Latency = 0
		}
	}
	blob, err := encodeTrace(tr, w.InFormat)
	if err != nil {
		return nil, err
	}
	// Reconstruct what the daemon will decode, not what was generated:
	// csv quantizes timestamps to whole nanoseconds of %.3f µs text.
	old, err := trace.ReadFormat(w.InFormat, bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	mk, err := engine.DeviceFactory(w.Device)
	if err != nil {
		return nil, err
	}
	out, rep, err := core.Reconstruct(old, mk(), core.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference reconstruction: %w", err)
	}
	rendered, err := encodeTrace(out, w.OutFormat)
	if err != nil {
		return nil, err
	}
	b := &base{requests: int64(old.Len()), think: res.TotalThink()}
	if b.input, err = newTemplate(blob); err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	if b.expected, err = newTemplate(rendered); err != nil {
		return nil, fmt.Errorf("reference output: %w", err)
	}
	sum := sha256.Sum256(blob)
	b.lockSum = hex.EncodeToString(sum[:])
	if keep {
		b.old, b.out, b.thinks, b.refRep = old, out, res.Think, rep
	}
	b.setup = time.Since(start)
	return b, nil
}

// lockFile pins the default-seed inputs: workload name → SHA-256 of
// each base's encoded bytes.
const lockFile = "benchmark/inputs.lock.json"

// lockSeed is the only seed the lock covers; any other seed is a
// held-out input set and skips the check.
const lockSeed = 1

// checkLock compares the generated bases of w with the pinned sums, so
// a change to internal/workload, replay.Execute or the HDD model
// cannot silently change what the benchmark measures.
func checkLock(lock map[string][]string, w workloadSpec, bases []*base) error {
	want := lock[w.Name]
	if len(want) != len(bases) {
		return fmt.Errorf("inputs drifted: %s pins %d bases, generated %d (rerun with -relock in a benchmark-only change)", w.Name, len(want), len(bases))
	}
	for i, b := range bases {
		if b.lockSum != want[i] {
			return fmt.Errorf("inputs drifted: %s base %d is %s, locked %s (rerun with -relock in a benchmark-only change)", w.Name, i, b.lockSum, want[i])
		}
	}
	return nil
}
