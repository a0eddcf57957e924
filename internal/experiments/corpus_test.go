package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
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
// requests and seeds 0 and 1, the cell's tt and rep are the
// inter-arrivals and the report of core.Reconstruct on GenerateOld's
// trace; every baseline gives the same inter-arrivals on that trace as
// in the cell; and the cell's Dynamic is the corpus view's, on the
// recorded latencies where the corpus keeps them and on the fit on FIU,
// where it is the fitted rung itself.
func TestCellMatchesCorpusView(t *testing.T) {
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
				if !slices.Equal(c.tt, want.InterArrivals()) {
					t.Errorf("%s: the cell's tt differs from GenerateOld + Reconstruct", p.Name)
				}
				if !slices.Equal(c.rep.Idle, wantRep.Idle) || !slices.Equal(c.rep.Async, wantRep.Async) ||
					c.rep.IdleCount != wantRep.IdleCount || c.rep.IdleTotal != wantRep.IdleTotal {
					t.Errorf("%s: the cell's report differs: %d idles, %v total; want %d, %v",
						p.Name, c.rep.IdleCount, c.rep.IdleTotal, wantRep.IdleCount, wantRep.IdleTotal)
				}
				for _, m := range baseline.Methods {
					if m.Name == "TraceTracker" {
						continue // tt above
					}
					ref, err := m.Run(old, NewTarget())
					if err != nil {
						t.Fatalf("%s/%s: %v", p.Name, m.Name, err)
					}
					got := c.rungs[m.Name]
					if m.Name == "Dynamic" {
						got = c.dynamic
					}
					if !slices.Equal(got, ref.InterArrivals()) {
						t.Errorf("%s/%s: inter-arrivals differ between the cell and GenerateOld's trace", p.Name, m.Name)
					}
				}
				if fitted := c.rungs["Dynamic"]; !p.TsdevKnown && (len(c.dynamic) != len(fitted) || &c.dynamic[0] != &fitted[0]) {
					t.Errorf("%s: an FIU cell's Dynamic must be the fitted rung", p.Name)
				}
			}
		})
	}
}

// TestCellRetainedBytes bounds what a cell keeps alive, in bytes a
// request, on the MSNFS cell (Tsdev-known, so it holds a second
// Dynamic) and the ikki cell at 40,000 requests: HeapAlloc after a GC,
// read before the build and after it with the cell held. A cell keeps
// eleven inter-arrival series, the true think times and one report at
// 8 B a request each, and three flags, about 100 B; the bound is 160 B.
// A cell of eleven whole traces at 48 B a request reads over 500 B.
func TestCellRetainedBytes(t *testing.T) {
	const ops, bound = 40000, 160.0
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, name := range []string{"MSNFS", "ikki"} {
		p, _ := workload.Lookup(name)
		before := heap()
		c, err := newCell(p, Config{Ops: ops})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		perReq := float64(heap()-before) / ops
		runtime.KeepAlive(c)
		t.Logf("%s cell at %d requests: %.1f B a request retained", name, ops, perReq)
		if perReq > bound {
			t.Errorf("%s cell retains %.1f B a request, over %.0f", name, perReq, bound)
		}
	}
}
