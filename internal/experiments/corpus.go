package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/workload"
)

// cell is trace 0 of one Table I family, generated and reconstructed
// once for every experiment that reads it. It keeps what the folds
// read, and no trace: each trace is reduced to its inter-arrivals as
// soon as it is built.
type cell struct {
	p workload.Profile
	// old is the inter-arrivals of the application's OLD execution,
	// collected with its latencies and TsdevKnown cleared; truth is
	// those of its execution on the NEW system, and think the true
	// think time before each instruction.
	old, truth, think []time.Duration
	// async is each request's true issue mode, and flagged the
	// inferred rung's async flags.
	async, flagged []bool
	// rungs holds every FidelityRungs reconstruction's inter-arrivals
	// by name: the baselines run on old, so "Dynamic" reads the fit.
	rungs map[string][]time.Duration
	// tt and rep are the corpus view's reconstruction and its report,
	// and dynamic its Dynamic: GenerateOld's trace keeps the recorded
	// latencies, which they read, except on FIU, where they read the fit.
	tt, dynamic []time.Duration
	rep         *core.Report
}

// newCell runs a family's application on both systems, at the seed
// GenerateOld gives its trace 0, and reconstructs it with every method.
// While it builds, it holds no trace but the old one, the target
// execution and the rung being built.
func newCell(p workload.Profile, cfg Config) (*cell, error) {
	cfg = cfg.withDefaults()
	old, truth := executeBoth(p, cfg.Ops, workload.TraceSeed(p.Name, 0)^cfg.Seed)
	c := &cell{p: p, old: old.InterArrivals(), truth: truth.Trace.InterArrivals(), think: truth.Think,
		async: make([]bool, old.Len()), rungs: map[string][]time.Duration{}}
	for i, r := range old.Requests {
		c.async[i] = r.Async
	}
	withTrueFlags := func(idle []time.Duration) []time.Duration {
		t := replay.Emulate(old, NewTarget(), idle)
		core.PostProcessShard(t.Requests, c.async, 0)
		return t.InterArrivals()
	}
	recorded := *old // shares the requests, which Reconstruct only reads
	recorded.TsdevKnown = true
	rec, recRep, err := core.Reconstruct(&recorded, NewTarget(), core.Options{})
	if err != nil {
		return nil, err
	}
	c.rungs["recorded"] = rec.InterArrivals()
	inf, infRep, err := core.Reconstruct(old, NewTarget(), core.Options{})
	if err != nil {
		return nil, err
	}
	c.rungs["inferred"], c.flagged = inf.InterArrivals(), infRep.Async
	c.rungs["oracle"] = withTrueFlags(c.think)
	c.rungs["+true flags"] = withTrueFlags(infRep.Idle)
	for _, m := range baseline.Methods {
		if m.Name == "TraceTracker" {
			continue // the inferred rung
		}
		t, err := m.Run(old, NewTarget())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		c.rungs[m.Name] = t.InterArrivals()
	}
	c.tt, c.rep, c.dynamic = c.rungs["inferred"], infRep, c.rungs["Dynamic"]
	if p.TsdevKnown {
		c.tt, c.rep = c.rungs["recorded"], recRep
		t, err := baseline.Dynamic(&recorded, NewTarget())
		if err != nil {
			return nil, fmt.Errorf("Dynamic: %w", err)
		}
		c.dynamic = t.InterArrivals()
	}
	return c, nil
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
// has one, aggregates once all are in. A cell holds inter-arrivals,
// flags and one report, about 100 B a request, and no trace.
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
