package main

import (
	"fmt"
	"io"
)

// spread is the width of a metric's per-round values as a share of
// its value; 0 for metrics with one value per run.
func (m metric) spread() float64 {
	if m.Min == nil || m.Max == nil || m.Value == 0 {
		return 0
	}
	return (*m.Max - *m.Min) / m.Value
}

// verdict judges b against a for one gated metric. worsening is how
// far b moved in the bad direction as a share of a. A set whose rounds
// spread wider than the bound cannot resolve a move of that size: it
// reads "unresolved" unless every round of b beats every round of a.
func verdict(d manifestMetric, a, b metric) (worsening float64, v string) {
	lower := d.Better == "lower"
	if a.Value != 0 {
		worsening = (b.Value - a.Value) / a.Value
		if !lower {
			worsening = -worsening
		}
	}
	if a.spread() > d.Bound || b.spread() > d.Bound {
		clear := a.Min != nil && b.Min != nil &&
			((lower && *b.Max < *a.Min) || (!lower && *b.Min > *a.Max))
		if clear {
			return worsening, "ok"
		}
		return worsening, "unresolved"
	}
	if worsening > d.Bound {
		return worsening, "worse"
	}
	return worsening, "ok"
}

// compareFiles prints, per (metric, workload), both values, the move,
// the bound and the verdict, and reports whether anything is worse.
// Per-layer metrics have no bound and get no verdict. Failed cycles
// are always worse: correctness is not traded.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	man, err := readManifest()
	if err != nil {
		return false, err
	}
	var a, b report
	if err := readJSONFile(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSONFile(pathB, &b); err != nil {
		return false, err
	}
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	unstable := false
	fmt.Fprintf(w, "%-16s %-34s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		if wb.Failed > 0 {
			worse = true
			fmt.Fprintf(w, "%-16s %-34s %14d %14d %9s %7s  worse\n", wa.Name, "failed", wa.Failed, wb.Failed, "", "0")
		}
		for _, d := range man.EndToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			move, v := verdict(d, ma, mb)
			worse = worse || v == "worse"
			unstable = unstable || v == "unresolved"
			fmt.Fprintf(w, "%-16s %-34s %14.4f %14.4f %+8.2f%% %6.1f%%  %s\n",
				wa.Name, d.Name, ma.Value, mb.Value, move*100, d.Bound*100, v)
		}
		for _, d := range man.PerLayer {
			ma, okA := wa.PerLayer[d.Name]
			mb, okB := wb.PerLayer[d.Name]
			if !okA || !okB {
				continue
			}
			move, _ := verdict(d, ma, mb)
			fmt.Fprintf(w, "%-16s %-34s %14.4f %14.4f %+8.2f%%\n", wa.Name, d.Name, ma.Value, mb.Value, move*100)
		}
	}
	if unstable {
		fmt.Fprintln(w, "unstable: at least one set's rounds spread wider than a bound; rerun that set on a quieter machine")
	}
	return worse, nil
}
