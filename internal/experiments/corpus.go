package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cell is trace 0 of one Table I family, generated and reconstructed
// once for every experiment that reads it.
type cell struct {
	p workload.Profile
	// old is the application's OLD execution with its latencies kept
	// and TsdevKnown cleared; truth is its execution on the NEW system.
	old   *trace.Trace
	truth replay.ExecResult
	// rungs holds every FidelityRungs reconstruction by name: the
	// baselines run on old, so "Dynamic" reads the fit.
	rungs    map[string]*trace.Trace
	rec, inf *core.Report // the recorded and inferred rungs' reports
	// dynamic is Dynamic on the corpus view: the recorded latencies
	// where the corpus keeps them, the fit on FIU.
	dynamic *trace.Trace
}

// newCell runs a family's application on both systems, at the seed
// GenerateOld gives its trace 0, and reconstructs it with every method.
func newCell(p workload.Profile, cfg Config) (*cell, error) {
	cfg = cfg.withDefaults()
	old, truth := executeBoth(p, cfg.Ops, workload.TraceSeed(p.Name, 0)^cfg.Seed)
	c := &cell{p: p, old: old, truth: truth, rungs: map[string]*trace.Trace{}}
	trueAsync := make([]bool, old.Len())
	for i, r := range old.Requests {
		trueAsync[i] = r.Async
	}
	withTrueFlags := func(idle []time.Duration) *trace.Trace {
		t := replay.Emulate(old, NewTarget(), idle)
		core.PostProcessShard(t.Requests, trueAsync, 0)
		return t
	}
	recorded := *old // shares the requests, which Reconstruct only reads
	recorded.TsdevKnown = true
	var err error
	if c.rungs["recorded"], c.rec, err = core.Reconstruct(&recorded, NewTarget(), core.Options{}); err != nil {
		return nil, err
	}
	if c.rungs["inferred"], c.inf, err = core.Reconstruct(old, NewTarget(), core.Options{}); err != nil {
		return nil, err
	}
	c.rungs["oracle"] = withTrueFlags(truth.Think)
	c.rungs["+true flags"] = withTrueFlags(c.inf.Idle)
	for _, m := range baseline.Methods {
		if m.Name == "TraceTracker" {
			continue // the inferred rung
		}
		if c.rungs[m.Name], err = m.Run(old, NewTarget()); err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
	}
	c.dynamic = c.rungs["Dynamic"]
	if p.TsdevKnown {
		if c.dynamic, err = baseline.Dynamic(&recorded, NewTarget()); err != nil {
			return nil, fmt.Errorf("Dynamic: %w", err)
		}
	}
	return c, nil
}

// corpus returns the reconstruction the corpus view gets, and its
// report: GenerateOld's trace through core.Reconstruct reads the
// recorded latencies where the corpus keeps them and the fit on FIU.
func (c *cell) corpus() (*trace.Trace, *core.Report) {
	if c.p.TsdevKnown {
		return c.rungs["recorded"], c.rec
	}
	return c.rungs["inferred"], c.inf
}

// CorpusResult is every experiment that reads the corpus sweep.
type CorpusResult struct {
	Fig13    Fig13Result
	Fig14    Fig14Result
	Fig16    Fig16Result
	Fig17    Fig17Result
	Claims   ClaimsResult
	Fidelity FidelityResult
}

// Corpus is the corpus sweep: it builds the cell of trace 0 of every
// Table I family, in Table I order and one at a time, so that a large
// Ops never holds the whole corpus, and folds each cell into all six
// results: each result's add takes one cell, and its finish, where it
// has one, aggregates once all are in.
func Corpus(cfg Config) (CorpusResult, error) {
	var r CorpusResult
	for _, p := range workload.Profiles() {
		c, err := newCell(p, cfg)
		if err != nil {
			return r, fmt.Errorf("%s: %w", p.Name, err)
		}
		r.Fig13.add(c)
		r.Fig14.add(c)
		r.Fig16.add(c)
		r.Fig17.add(c)
		r.Claims.add(c)
		r.Fidelity.add(c)
	}
	r.Fig13.finish()
	r.Fig14.finish()
	r.Fig16.finish()
	r.Fig17.finish()
	r.Claims.finish()
	return r, nil
}
