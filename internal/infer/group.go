// Package infer implements TraceTracker's software evaluation model
// (paper Sections III and IV): it classifies the I/O instructions of a
// block trace into groups by sequentiality, operation type and request
// size, examines the steepness of each group's inter-arrival CDF with
// the PDF-outlier method of Algorithm 1, locates representative
// inter-arrival times with PCHIP interpolation, and decomposes the I/O
// subsystem latency into the paper's components:
//
//	Tslat = Tcdel + Tsdev
//	Tsdev = β·rsize (seq read) | η·rsize (seq write) | +Tmovd (random)
//	Tidle(i+1) = max(0, Tintt(i) − Tslat(i))
//
// The entry point is Estimate, which produces a Model; Model.Idles and
// Model.AsyncFlags then drive the hardware emulation in package core.
package infer

import (
	"sort"

	"repro/internal/trace"
)

// GroupKey identifies one instruction group of the paper's three-way
// classification: sequentiality × operation × request size.
type GroupKey struct {
	Seq     bool
	Op      trace.Op
	Sectors uint32
}

// Group is the set of inter-arrival samples attributed to one key.
type Group struct {
	Key GroupKey
	// InttMicros holds the inter-arrival times (µs) following each
	// instruction of this group: sample j is Arrival[i+1]-Arrival[i]
	// for the j-th group member at trace index i.
	InttMicros []float64
}

// N returns the group's sample count.
func (g *Group) N() int { return len(g.InttMicros) }

// Grouping is the full classification of a trace.
type Grouping struct {
	Groups map[GroupKey]*Group
}

// Select returns the groups matching seq/op with at least minSamples
// samples, sorted by descending sample count (stable by size then
// sectors so runs are deterministic).
func (g *Grouping) Select(seq bool, op trace.Op, minSamples int) []*Group {
	var out []*Group
	for k, grp := range g.Groups {
		if k.Seq == seq && k.Op == op && grp.N() >= minSamples {
			out = append(out, grp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N() != out[j].N() {
			return out[i].N() > out[j].N()
		}
		return out[i].Key.Sectors < out[j].Key.Sectors
	})
	return out
}

// SelectAllRandom returns the random-access groups of either op with at
// least minSamples samples (used for Tmovd estimation).
func (g *Grouping) SelectAllRandom(minSamples int) []*Group {
	var out []*Group
	for k, grp := range g.Groups {
		if !k.Seq && grp.N() >= minSamples {
			out = append(out, grp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N() != out[j].N() {
			return out[i].N() > out[j].N()
		}
		if out[i].Key.Sectors != out[j].Key.Sectors {
			return out[i].Key.Sectors < out[j].Key.Sectors
		}
		return out[i].Key.Op < out[j].Key.Op
	})
	return out
}
