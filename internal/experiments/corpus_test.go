package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// corpusRuns memoises Corpus per Config, so that every test of a
// corpus experiment at one Config reads one sweep.
var corpusRuns = map[Config]CorpusResult{}

// corpusAt returns Corpus(cfg), sweeping the corpus on first use.
func corpusAt(t *testing.T, cfg Config) CorpusResult {
	t.Helper()
	r, ok := corpusRuns[cfg]
	if !ok {
		var err error
		if r, err = Corpus(cfg); err != nil {
			t.Fatal(err)
		}
		corpusRuns[cfg] = r
	}
	return r
}

// TestCellMatchesCorpusView checks that one cell per family can stand
// in for the corpus view that Figs 13–17 and the claims read, where
// GenerateOld collects the trace: on every family, at 800 and 4000
// requests and seeds 0 and 1, corpus() is what core.Reconstruct makes
// of GenerateOld's trace; Acceleration, Revision and Fixed-th give the
// same arrivals on that trace as on the cell's; and the cell's Dynamic
// is the corpus view's, on the recorded latencies where the corpus
// keeps them and on the fit on FIU.
func TestCellMatchesCorpusView(t *testing.T) {
	sameArrival := func(a, b trace.Request) bool { return a.Arrival == b.Arrival }
	for _, cfg := range []Config{{Ops: 800}, {Ops: 800, Seed: 1}, {Ops: 4000}, {Ops: 4000, Seed: 1}} {
		t.Run(fmt.Sprintf("ops%d/seed%d", cfg.Ops, cfg.Seed), func(t *testing.T) {
			for _, p := range workload.Profiles() {
				c, err := newCell(p, cfg)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				old, _ := GenerateOld(p, 0, cfg.Ops, cfg.Seed)
				want, wantRep, err := core.Reconstruct(old, NewTarget(), core.Options{})
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				got, gotRep := c.corpus()
				if !slices.Equal(got.Requests, want.Requests) {
					t.Errorf("%s: corpus() requests differ from GenerateOld + Reconstruct", p.Name)
				}
				if !slices.Equal(gotRep.Idle, wantRep.Idle) || !slices.Equal(gotRep.Async, wantRep.Async) ||
					gotRep.IdleCount != wantRep.IdleCount || gotRep.IdleTotal != wantRep.IdleTotal {
					t.Errorf("%s: corpus() report differs: %d idles, %v total; want %d, %v",
						p.Name, gotRep.IdleCount, gotRep.IdleTotal, wantRep.IdleCount, wantRep.IdleTotal)
				}
				for _, m := range baseline.Methods {
					if m.Name == "TraceTracker" {
						continue // corpus() above
					}
					ref, err := m.Run(old, NewTarget())
					if err != nil {
						t.Fatalf("%s/%s: %v", p.Name, m.Name, err)
					}
					if m.Name == "Dynamic" {
						if !slices.Equal(c.dynamic.Requests, ref.Requests) {
							t.Errorf("%s: the cell's Dynamic differs from Dynamic on GenerateOld's trace", p.Name)
						}
					} else if !slices.EqualFunc(c.rungs[m.Name].Requests, ref.Requests, sameArrival) {
						t.Errorf("%s/%s: arrivals differ between the cell and GenerateOld's trace", p.Name, m.Name)
					}
				}
				if !p.TsdevKnown && c.dynamic != c.rungs["Dynamic"] {
					t.Errorf("%s: an FIU cell's Dynamic must be the fitted rung", p.Name)
				}
			}
		})
	}
}
