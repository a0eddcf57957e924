package experiments

import (
	"io"
	"time"

	"repro/internal/report"
	"repro/internal/stats"
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

// Fig16 reconstructs one trace per family and averages the inferred
// idle periods.
func Fig16(cfg Config) (Fig16Result, error) {
	out := Fig16Result{SetAvg: map[string]time.Duration{}}
	setSums := map[string]time.Duration{}
	setCounts := map[string]int{}
	err := eachFamily(cfg, func(f familyRun) error {
		var avg time.Duration
		if f.rep.IdleCount > 0 {
			avg = f.rep.IdleTotal / time.Duration(f.rep.IdleCount)
		}
		out.Rows = append(out.Rows, Fig16Row{Workload: f.p.Name, Set: f.p.Set, AvgIdle: avg})
		setSums[f.p.Set] += avg
		setCounts[f.p.Set]++
		return nil
	})
	if err != nil {
		return out, err
	}
	for set, sum := range setSums {
		out.SetAvg[set] = sum / time.Duration(setCounts[set])
	}
	return out, nil
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

// Fig17 decomposes each workload's total Tintt into service time and
// the three idle buckets, by request count and by duration.
func Fig17(cfg Config) (Fig17Result, error) {
	out := Fig17Result{SetIdleFreq: map[string]float64{}, SetIdlePeriod: map[string]float64{}}
	setFreq := map[string][]float64{}
	setPeriod := map[string][]float64{}
	err := eachFamily(cfg, func(f familyRun) error {
		row := Fig17Row{Workload: f.p.Name, Set: f.p.Set}
		ia := f.old.InterArrivals()
		var counts [4]int
		var durs [4]time.Duration
		for i := range ia {
			idle := f.rep.Idle[i+1]       // precedes request i+1, where ia[i] ends
			durs[0] += max(ia[i]-idle, 0) // the gap's Tslat share
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
		total := len(ia)
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
		out.Rows = append(out.Rows, row)
		setFreq[f.p.Set] = append(setFreq[f.p.Set], row.Freq[1]+row.Freq[2]+row.Freq[3])
		setPeriod[f.p.Set] = append(setPeriod[f.p.Set], row.Period[1]+row.Period[2]+row.Period[3])
		return nil
	})
	if err != nil {
		return out, err
	}
	for set := range setFreq {
		out.SetIdleFreq[set] = stats.Mean(setFreq[set])
		out.SetIdlePeriod[set] = stats.Mean(setPeriod[set])
	}
	return out, nil
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
}

// Claims sweeps the corpus and aggregates idle statistics.
func Claims(cfg Config) (ClaimsResult, error) {
	var out ClaimsResult
	totalReq, idleReq, idleShort := 0, 0, 0
	var idles []time.Duration
	err := eachFamily(cfg, func(f familyRun) error {
		totalReq += f.old.Len()
		for _, d := range f.rep.Idle {
			if d > 0 {
				idleReq++
				idles = append(idles, d)
				if d <= time.Millisecond {
					idleShort++
				}
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	out.IdleBearingFrac = ratio(idleReq, totalReq)
	out.IdleWithin1ms = ratio(idleShort, idleReq)
	out.MedianIdle = medianDur(idles)
	return out, nil
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	return time.Duration(stats.Median(us) * float64(time.Microsecond))
}

// Render implements the textual summary.
func (r ClaimsResult) Render(w io.Writer) {
	t := &report.Table{Title: "Introduction claims", Headers: []string{"claim", "paper", "measured"}}
	t.AddRow("requests with idle intervals", "< 39%", report.Percent(r.IdleBearingFrac))
	t.AddRow("idle periods within 1 ms", "majority", report.Percent(r.IdleWithin1ms))
	t.AddRow("median idle period", "~1 ms", r.MedianIdle)
	t.Render(w)
}
