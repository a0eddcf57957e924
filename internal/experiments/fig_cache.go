package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/hoststack"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// --- Extension 5: traces collected underneath a page cache ---------
//
// The paper's Background (Fig 2a) stresses that public block traces
// are captured underneath the block layer: the page cache above it
// absorbs read hits, defers writes, and prefetches — so the
// block-level trace differs from the application behaviour in exactly
// the ways that make timing reconstruction hard. This experiment runs
// the same application twice, raw and behind a write-back page cache,
// and shows (a) how the cache reshapes the block trace and (b) that
// TraceTracker still reconstructs the cache-shaped trace's idle
// structure.

// CacheImpactResult compares raw vs cached collection.
type CacheImpactResult struct {
	Workload string
	// HitRate is the cache's read hit rate.
	HitRate float64
	// RawRequests / CachedRequests are the block-layer request counts
	// (the cache absorbs hits and batches flushes).
	RawRequests, CachedRequests int
	// RawReadFrac / CachedReadFrac show the op-mix shift (buffered
	// writes surface as flusher writes).
	RawReadFrac, CachedReadFrac float64
	// RawMedianIntt / CachedMedianIntt summarize the timing reshaping.
	RawMedianIntt, CachedMedianIntt time.Duration
	// ReconstructedIdle / RawIdle are the idle totals TraceTracker
	// recovers from each collection.
	RawIdle, CachedIdle time.Duration
	// Series for the textual CDF plot.
	RawCDF, CachedCDF report.CDFSeries
}

// CacheImpact runs the webmail application raw and behind the cache.
func CacheImpact(cfg Config) (CacheImpactResult, error) {
	cfg = cfg.withDefaults()
	out := CacheImpactResult{Workload: "webmail"}
	p, _ := workload.Lookup("webmail")
	// Not workload.Collect: the one app is also collected through the host stack.
	app := workload.Generate(p, workload.GenOptions{Ops: cfg.Ops, Seed: 31 ^ cfg.Seed})

	// Raw collection: the application drives the HDD directly.
	rawRes := app.Execute(NewOldDevice())
	raw := rawRes.Trace
	raw.TsdevKnown = false

	// Cached collection: same application, same disk, but through the
	// host stack; the block trace is what blktrace sees below the
	// cache.
	cacheCfg := hoststack.DefaultConfig()
	cacheCfg.CachePages = 8192 // 32 MiB: pressure at experiment scale
	host := hoststack.New(cacheCfg, NewOldDevice())
	app.Execute(host)
	cached := host.BlockTrace().Clone()
	cached.Name = "webmail-cached"
	cached.Workload = p.Name
	cached.TsdevKnown = false
	for i := range cached.Requests {
		cached.Requests[i].Latency = 0
	}

	out.HitRate = host.HitRate()
	out.RawRequests = raw.Len()
	out.CachedRequests = cached.Len()
	out.RawReadFrac = raw.Summary().ReadFraction()
	out.CachedReadFrac = cached.Summary().ReadFraction()
	rawIA, cachedIA := raw.InterArrivals(), cached.InterArrivals()
	out.RawMedianIntt, out.CachedMedianIntt = medianDur(rawIA), medianDur(cachedIA)
	out.RawCDF = report.NewCDFSeries("raw", trace.Micros(rawIA))
	out.CachedCDF = report.NewCDFSeries("cached", trace.Micros(cachedIA))

	// Reconstruct both with TraceTracker and compare recovered idle.
	_, rawRep, err := core.Reconstruct(raw, NewTarget(), core.Options{})
	if err != nil {
		return out, fmt.Errorf("%s: %w", raw.Name, err)
	}
	_, cachedRep, err := core.Reconstruct(cached, NewTarget(), core.Options{})
	if err != nil {
		return out, fmt.Errorf("%s: %w", cached.Name, err)
	}
	out.RawIdle, out.CachedIdle = rawRep.IdleTotal, cachedRep.IdleTotal
	return out, nil
}

// Render implements the textual report.
func (r CacheImpactResult) Render(w io.Writer) {
	t := &report.Table{
		Title:   "block traces above vs below the page cache (" + r.Workload + ")",
		Headers: []string{"metric", "raw", "cached"},
	}
	t.AddRow("block requests", r.RawRequests, r.CachedRequests)
	t.AddRow("read fraction", report.Percent(r.RawReadFrac), report.Percent(r.CachedReadFrac))
	t.AddRow("median Tintt", r.RawMedianIntt, r.CachedMedianIntt)
	t.AddRow("recovered idle (TT)", r.RawIdle, r.CachedIdle)
	t.Render(w)
	fmt.Fprintf(w, "cache read hit rate: %s\n", report.Percent(r.HitRate))
	report.RenderCDFs(w, "Tintt CDF, raw vs cached collection", r.RawCDF, r.CachedCDF)
}
