// Package experiments regenerates every table and figure of the
// paper's evaluation (Section V) plus the motivating Figures 1 and 3,
// on top of the simulated substrate: synthetic corpora calibrated to
// Table I, the HDD model as the OLD system and the all-flash array as
// the NEW system.
//
// Each ExpN function is deterministic for a given Config and returns a
// result struct with a Render method; cmd/experiments and the root
// bench_test.go are thin wrappers around these.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config scales the experiments. The zero value picks defaults that
// run the full suite in seconds; raise Ops to approach the paper's
// trace sizes.
type Config struct {
	// Ops is the number of I/O instructions per generated trace
	// (default 4000; the paper's traces hold millions — the
	// distributions stabilize long before that).
	Ops int
	// Seed offsets all derived seeds, for sensitivity checks.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Ops == 0 {
		c.Ops = 4000
	}
	return c
}

// NewOldDevice builds the OLD system: the HDD node the public corpora
// were collected on.
func NewOldDevice() device.Device { return device.NewHDD(device.DefaultHDDConfig()) }

// NewTarget builds the NEW system: the paper's 4-SSD all-flash array.
func NewTarget() device.Device { return device.NewArray(device.DefaultArrayConfig()) }

// GenerateOld synthesizes trace index idx of a workload family and
// collects it on the OLD device as its corpus was (workload.Collect),
// returning the block trace and the execution ground truth.
func GenerateOld(p workload.Profile, idx, ops int, seed int64) (*trace.Trace, replay.ExecResult) {
	res := workload.Collect(p, workload.GenOptions{
		Ops:  ops,
		Seed: workload.TraceSeed(p.Name, idx) ^ seed,
	}, NewOldDevice())
	res.Trace.Name = traceName(p.Name, idx)
	return res.Trace, res
}

func traceName(family string, idx int) string {
	return family + "-" + string(rune('0'+idx/10%10)) + string(rune('0'+idx%10))
}

// familyRun is one cell of the corpus sweep: a family's OLD
// collection, its execution ground truth, and TraceTracker's
// reconstruction of it on the NEW system.
type familyRun struct {
	p     workload.Profile
	old   *trace.Trace
	truth replay.ExecResult
	tt    *trace.Trace
	rep   *core.Report
}

// eachFamily is the corpus sweep: trace 0 of every Table I family,
// collected by GenerateOld and reconstructed once on NewTarget, handed
// to fn one family at a time so that a large Ops never holds the
// whole corpus at once.
func eachFamily(cfg Config, fn func(familyRun) error) error {
	cfg = cfg.withDefaults()
	for _, p := range workload.Profiles() {
		old, truth := GenerateOld(p, 0, cfg.Ops, cfg.Seed)
		tt, rep, err := core.Reconstruct(old, NewTarget(), core.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		if err := fn(familyRun{p: p, old: old, truth: truth, tt: tt, rep: rep}); err != nil {
			return err
		}
	}
	return nil
}

// executeBoth runs one generated application on the OLD and the NEW
// system. The OLD trace keeps its latencies but has TsdevKnown cleared,
// so every method exercises the full inference path; the NEW execution
// is the ground truth a reconstruction is scored against.
func executeBoth(p workload.Profile, ops int, seed int64) (*trace.Trace, replay.ExecResult) {
	app := workload.Generate(p, workload.GenOptions{Ops: ops, Seed: seed})
	old := app.Execute(NewOldDevice()).Trace
	old.TsdevKnown = false
	return old, app.Execute(NewTarget())
}
