package experiments

import (
	"io"
	"slices"
	"time"

	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
)

// IdleBuckets are Figure 17's idle-period groups.
var IdleBuckets = []string{"Tslat", "0-10ms", "10-100ms", ">100ms"}

// Fig16Row is one workload family's average idle period.
type Fig16Row struct {
	Workload, Set string
	AvgIdle       time.Duration
}

// Fig16Result reproduces Figure 16: the average Tidle per workload as
// estimated by TraceTracker's reconstruction.
type Fig16Result struct {
	Rows []Fig16Row
	// SetAvg aggregates per corpus (paper: MSPS 0.27 s, FIU 2.80 s,
	// MSRC 2.25 s modulo outliers).
	SetAvg map[string]time.Duration
}

// add averages the idle periods of a family's reconstruction.
func (r *Fig16Result) add(c *cell) {
	var avg time.Duration
	if c.rep.IdleCount > 0 {
		avg = c.rep.IdleTotal / time.Duration(c.rep.IdleCount)
	}
	r.Rows = append(r.Rows, Fig16Row{Workload: c.p.Name, Set: c.p.Set, AvgIdle: avg})
}

// finish averages the rows per corpus.
func (r *Fig16Result) finish() {
	r.SetAvg = map[string]time.Duration{}
	counts := map[string]int{}
	for _, row := range r.Rows {
		r.SetAvg[row.Set] += row.AvgIdle
		counts[row.Set]++
	}
	for set, n := range counts {
		r.SetAvg[set] /= time.Duration(n)
	}
}

// Render implements the textual figure.
func (r Fig16Result) Render(w io.Writer) {
	t := &report.Table{Title: "Fig 16: average Tidle per workload", Headers: []string{"workload", "set", "avg Tidle"}}
	for _, row := range r.Rows {
		t.AddRow(row.Workload, row.Set, row.AvgIdle)
	}
	t.Render(w)
	s := &report.Table{Title: "per-set averages", Headers: []string{"set", "avg Tidle"}}
	for _, set := range corpusSets {
		s.AddRow(set, r.SetAvg[set])
	}
	s.Render(w)
}

// Fig17Row is one workload's Tintt breakdown.
type Fig17Row struct {
	Workload, Set string
	// Freq[b] is the fraction of requests in bucket b; Period[b] the
	// fraction of total Tintt duration. Index order is IdleBuckets.
	Freq, Period [4]float64
}

// Fig17Result reproduces Figure 17.
type Fig17Result struct {
	Rows []Fig17Row
	// SetIdleFreq is the per-set average idle frequency (sum of the
	// three idle buckets; paper: 70% MSPS, 31% FIU, 26% MSRC).
	SetIdleFreq map[string]float64
	// SetIdlePeriod is the per-set average idle share of total time
	// (paper: 87% MSPS, 99.8% FIU, 99.2% MSRC).
	SetIdlePeriod map[string]float64
}

// add decomposes a family's total Tintt into service time and the
// three idle buckets, by request count and by duration.
func (r *Fig17Result) add(c *cell) {
	row := Fig17Row{Workload: c.p.Name, Set: c.p.Set}
	var counts [4]int
	var durs [4]time.Duration
	for i, ia := range c.old {
		idle := c.rep.Idle[i+1]    // precedes request i+1, where ia ends
		durs[0] += max(ia-idle, 0) // the gap's Tslat share
		switch {
		case idle == 0:
			counts[0]++
		case idle <= 10*time.Millisecond:
			counts[1]++
			durs[1] += idle
		case idle <= 100*time.Millisecond:
			counts[2]++
			durs[2] += idle
		default:
			counts[3]++
			durs[3] += idle
		}
	}
	total := len(c.old)
	var totalDur time.Duration
	for _, d := range durs {
		totalDur += d
	}
	if total > 0 && totalDur > 0 {
		for b := 0; b < 4; b++ {
			row.Freq[b] = float64(counts[b]) / float64(total)
			row.Period[b] = float64(durs[b]) / float64(totalDur)
		}
	}
	r.Rows = append(r.Rows, row)
}

// finish averages the three idle buckets' share per corpus.
func (r *Fig17Result) finish() {
	freq, period := map[string][]float64{}, map[string][]float64{}
	for _, row := range r.Rows {
		freq[row.Set] = append(freq[row.Set], row.Freq[1]+row.Freq[2]+row.Freq[3])
		period[row.Set] = append(period[row.Set], row.Period[1]+row.Period[2]+row.Period[3])
	}
	r.SetIdleFreq, r.SetIdlePeriod = map[string]float64{}, map[string]float64{}
	for set := range freq {
		r.SetIdleFreq[set] = stats.Mean(freq[set])
		r.SetIdlePeriod[set] = stats.Mean(period[set])
	}
}

// Render implements the textual figure.
func (r Fig17Result) Render(w io.Writer) {
	freq := &report.Table{Title: "Fig 17 (top): breakdown by frequency", Headers: append([]string{"workload"}, IdleBuckets...)}
	period := &report.Table{Title: "Fig 17 (bottom): breakdown by period", Headers: append([]string{"workload"}, IdleBuckets...)}
	for _, row := range r.Rows {
		fc := []any{row.Workload}
		pc := []any{row.Workload}
		for b := 0; b < 4; b++ {
			fc = append(fc, report.Percent(row.Freq[b]))
			pc = append(pc, report.Percent(row.Period[b]))
		}
		freq.AddRow(fc...)
		period.AddRow(pc...)
	}
	freq.Render(w)
	period.Render(w)
	s := &report.Table{Title: "per-set idle share", Headers: []string{"set", "idle freq", "idle period"}}
	for _, set := range corpusSets {
		s.AddRow(set, report.Percent(r.SetIdleFreq[set]), report.Percent(r.SetIdlePeriod[set]))
	}
	s.Render(w)
}

// ClaimsResult checks the introduction's corpus-wide claims: the share
// of requests with idle intervals (paper: below 39%) and where the
// bulk of idle periods fall (paper: the majority within 1 ms... i.e.
// short idles dominate by count).
type ClaimsResult struct {
	IdleBearingFrac float64
	IdleWithin1ms   float64
	MedianIdle      time.Duration

	requests, idleShort int
	idles               []time.Duration
}

// add tallies a family's requests and inferred idle periods.
func (r *ClaimsResult) add(c *cell) {
	r.requests += len(c.async)
	for _, d := range c.rep.Idle {
		if d > 0 {
			r.idles = append(r.idles, d)
			if d <= time.Millisecond {
				r.idleShort++
			}
		}
	}
}

// finish aggregates the tallies and drops the idle periods.
func (r *ClaimsResult) finish() {
	r.IdleBearingFrac = ratio(len(r.idles), r.requests)
	r.IdleWithin1ms = ratio(r.idleShort, len(r.idles))
	r.MedianIdle = medianDur(r.idles)
	r.idles = nil
}

// medianDur is the median of ds in microseconds, as stats.Median
// takes it, back as a duration. It sorts one copy of ds and hands
// stats.Median only the one or two middle values: converting to
// microseconds keeps the order, so they are the values, and theirs the
// arithmetic, that the median of the whole converted sample would use.
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	mid := s[(len(s)-1)/2 : len(s)/2+1]
	return time.Duration(stats.Median(trace.Micros(mid)) * float64(time.Microsecond))
}

// Render implements the textual summary.
func (r ClaimsResult) Render(w io.Writer) {
	t := &report.Table{Title: "Introduction claims", Headers: []string{"claim", "paper", "measured"}}
	t.AddRow("requests with idle intervals", "< 39%", report.Percent(r.IdleBearingFrac))
	t.AddRow("idle periods within 1 ms", "majority", report.Percent(r.IdleWithin1ms))
	t.AddRow("median idle period", "~1 ms", r.MedianIdle)
	t.Render(w)
}
