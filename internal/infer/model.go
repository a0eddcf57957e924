package infer

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Model is the fitted latency-decomposition model of Section III: the
// per-sector device-time coefficients, channel delays, and the
// representative moving delay for random accesses. All time fields are
// in microseconds to match the estimation arithmetic; the public
// methods convert to time.Duration.
type Model struct {
	// BetaMicros is β: sequential-read device time per sector (µs).
	BetaMicros float64
	// EtaMicros is η: sequential-write device time per sector (µs).
	EtaMicros float64
	// TcdelReadMicros / TcdelWriteMicros are the channel delays.
	TcdelReadMicros  float64
	TcdelWriteMicros float64
	// TmovdMicros is the representative positioning delay added to
	// random accesses.
	TmovdMicros float64

	// FlatReadMicros / FlatWriteMicros are fallback whole-Tslat values
	// used when the trace exhibits a uniform request size for that op
	// (the paper's single-CDF case: Tslat is read directly off the
	// global maximum of CDF'). Negative means unused.
	FlatReadMicros  float64
	FlatWriteMicros float64

	// Diagnostics from estimation, useful in reports.
	ReadSizes  [2]uint32 // the two steepest read group sizes (sectors)
	WriteSizes [2]uint32
}

// Finite reports whether every coefficient is a finite number — what
// encoding/json can carry, and carry back bit for bit. The corpus store
// keeps a fitted model only when it is.
func (m *Model) Finite() bool {
	for _, v := range [...]float64{
		m.BetaMicros, m.EtaMicros, m.TcdelReadMicros, m.TcdelWriteMicros,
		m.TmovdMicros, m.FlatReadMicros, m.FlatWriteMicros,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// EstimateOptions exists only so the benchmark's Estimate and FitModel
// calls compile; it goes with them (ROADMAP item 1(g)). The fit has one
// configuration: the package constants below.
type EstimateOptions struct{}

// minGroupSamples is the smallest group population the fit treats as
// statistically meaningful.
const minGroupSamples = 16

// ErrTooSparse is returned when a trace has no group large enough to
// support any inference at all.
var ErrTooSparse = errors.New("infer: trace too sparse for inference")

// Estimate fits the Section III model to a trace: it classifies the
// instructions, scores every sequential per-size CDF with Algorithm 1,
// derives β/η from the two steepest read/write graphs, channel delays
// from the steepest graph's rise location, and Tmovd from the steepest
// random-access graph: it feeds the whole trace to a StreamClassifier
// and fits that.
func Estimate(t *trace.Trace, _ EstimateOptions) (*Model, error) {
	c := NewStreamClassifier()
	c.AddBatch(t.Requests)
	return c.Estimate(t.Name)
}

// estimateGrouping fits the model from a classification on the
// examiners xs (grown as needed and returned), sorting each group's
// samples where they lie. name labels errors.
func estimateGrouping(g *Grouping, name string, xs []examiner) (*Model, []examiner, error) {
	m := &Model{FlatReadMicros: -1, FlatWriteMicros: -1}
	ex, xs := examineGroups(g, xs)

	okRead := estimateOp(m, g, ex, trace.Read)
	okWrite := estimateOp(m, g, ex, trace.Write)
	if !okRead && !okWrite {
		return nil, xs, fmt.Errorf("%w: %q", ErrTooSparse, name)
	}
	// A missing op inherits the other's parameters: the best available
	// estimate when a workload is effectively read-only or write-only.
	if !okRead {
		m.BetaMicros = m.EtaMicros
		m.TcdelReadMicros = m.TcdelWriteMicros
		m.FlatReadMicros = m.FlatWriteMicros
		m.ReadSizes = m.WriteSizes
	}
	if !okWrite {
		m.EtaMicros = m.BetaMicros
		m.TcdelWriteMicros = m.TcdelReadMicros
		m.FlatWriteMicros = m.FlatReadMicros
		m.WriteSizes = m.ReadSizes
	}

	estimateTmovd(m, g, ex)
	return m, xs, nil
}

// examineGroups runs the steepness analysis once over every group with
// at least minGroupSamples samples — every group a pass below can
// select — largest first, on min(GOMAXPROCS, groups) goroutines, each
// with its own examiner of xs (grown to the goroutine count and
// returned). A goroutine writes only the slots of the groups it takes,
// and nothing reads a slot before the join. An examination is a pure
// function of its group's samples, so the schedule cannot change a bit
// of the model. The samples end up sorted.
func examineGroups(g *Grouping, xs []examiner) (map[*Group]*examination, []examiner) {
	var groups []*Group
	for _, grp := range g.Groups {
		if grp.N() >= minGroupSamples {
			groups = append(groups, grp)
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].N() > groups[j].N() })
	out := make([]examination, len(groups))
	workers := min(runtime.GOMAXPROCS(0), len(groups))
	if len(xs) < workers {
		xs = append(xs, make([]examiner, workers-len(xs))...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(x *examiner) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(groups) {
					return
				}
				out[i] = x.examineSorting(groups[i].InttMicros)
			}
		}(&xs[w])
	}
	wg.Wait()
	ex := make(map[*Group]*examination, len(groups))
	for i, grp := range groups {
		ex[grp] = &out[i]
	}
	return ex, xs
}

// estimateOp fits β (or η) and Tcdel for one operation type from the
// sequential groups, reading their examinations from ex. Returns false
// when no group is usable.
func estimateOp(m *Model, g *Grouping, ex map[*Group]*examination, op trace.Op) bool {
	groups := g.Select(true, op, minGroupSamples)
	if len(groups) == 0 {
		// No sequential traffic: fall back to random groups of the op
		// so that read-heavy random workloads still get a model; the
		// Tmovd term then absorbs the positioning component.
		for _, grp := range g.SelectAllRandom(minGroupSamples) {
			if grp.Key.Op == op {
				groups = append(groups, grp)
			}
		}
	}
	type scored struct {
		grp *Group
		*examination
	}
	var sc []scored
	for _, grp := range groups {
		if e := ex[grp]; e.ok {
			sc = append(sc, scored{grp, e})
		}
	}
	if len(sc) == 0 {
		return false
	}
	// Graph classification: the two highest Algorithm-1 scores with
	// distinct request sizes.
	best := 0
	for i := range sc {
		if sc[i].res.Score > sc[best].res.Score {
			best = i
		}
	}
	steep1 := sc[best]
	second := -1
	for i := range sc {
		if sc[i].grp.Key.Sectors == steep1.grp.Key.Sectors {
			continue
		}
		if second == -1 || sc[i].res.Score > sc[second].res.Score {
			second = i
		}
	}

	if second == -1 {
		// Uniform request size: single-CDF case — read Tslat directly
		// off the global maximum of CDF' (paper Fig 5a discussion).
		flat := steep1.res.RiseMicros
		if op == trace.Read {
			m.FlatReadMicros = flat
			m.ReadSizes = [2]uint32{steep1.grp.Key.Sectors, steep1.grp.Key.Sectors}
		} else {
			m.FlatWriteMicros = flat
			m.WriteSizes = [2]uint32{steep1.grp.Key.Sectors, steep1.grp.Key.Sectors}
		}
		return true
	}
	steep2 := sc[second]

	// ΔTintt (Fig 6) is the separation of the two rise locations: the
	// CDFs rise at Tcdel + coef·size1 and Tcdel + coef·size2, so
	// |T'1 − T'2| isolates coef·|size1 − size2| exactly.
	delta := math.Abs(steep1.res.RiseMicros - steep2.res.RiseMicros)
	sizeDiff := math.Abs(float64(steep1.grp.Key.Sectors) - float64(steep2.grp.Key.Sectors))
	coef := delta / sizeDiff
	if coef < 0 {
		coef = 0
	}
	// T'intt of the steepest graph minus the size-proportional device
	// time leaves the channel delay.
	tcdel := steep1.res.RiseMicros - coef*float64(steep1.grp.Key.Sectors)
	if tcdel < 0 {
		tcdel = 0
	}
	if op == trace.Read {
		m.BetaMicros = coef
		m.TcdelReadMicros = tcdel
		m.ReadSizes = [2]uint32{steep1.grp.Key.Sectors, steep2.grp.Key.Sectors}
	} else {
		m.EtaMicros = coef
		m.TcdelWriteMicros = tcdel
		m.WriteSizes = [2]uint32{steep1.grp.Key.Sectors, steep2.grp.Key.Sectors}
	}
	return true
}

// estimateTmovd fits the representative random-access positioning
// delay from the steepest random-access CDF, reading the groups'
// examinations from ex.
func estimateTmovd(m *Model, g *Grouping, ex map[*Group]*examination) {
	var bestGrp *Group
	var bestRes SteepnessResult
	found := false
	for _, grp := range g.SelectAllRandom(minGroupSamples) {
		e := ex[grp]
		if !e.ok {
			continue
		}
		if !found || e.res.Score > bestRes.Score {
			bestGrp, bestRes, found = grp, e.res, true
		}
	}
	if !found {
		m.TmovdMicros = 0
		return
	}
	// Tmovd = T_rand − (Tcdel + coef·size_ref) for the chosen group's
	// op type and size.
	sizeRef := float64(bestGrp.Key.Sectors)
	var seqPart float64
	if bestGrp.Key.Op == trace.Read {
		seqPart = m.TcdelReadMicros + m.BetaMicros*sizeRef
		if m.FlatReadMicros >= 0 {
			seqPart = m.FlatReadMicros
		}
	} else {
		seqPart = m.TcdelWriteMicros + m.EtaMicros*sizeRef
		if m.FlatWriteMicros >= 0 {
			seqPart = m.FlatWriteMicros
		}
	}
	tmovd := bestRes.RiseMicros - seqPart
	if tmovd < 0 {
		tmovd = 0
	}
	m.TmovdMicros = tmovd
}

// TsdevMicros returns the modeled device time (µs) for a request of
// the given op/size/sequentiality.
func (m *Model) TsdevMicros(op trace.Op, sectors uint32, seq bool) float64 {
	var v float64
	switch op {
	case trace.Read:
		if m.FlatReadMicros >= 0 {
			v = m.FlatReadMicros - m.TcdelReadMicros
			if v < 0 {
				v = m.FlatReadMicros
			}
		} else {
			v = m.BetaMicros * float64(sectors)
		}
	default:
		if m.FlatWriteMicros >= 0 {
			v = m.FlatWriteMicros - m.TcdelWriteMicros
			if v < 0 {
				v = m.FlatWriteMicros
			}
		} else {
			v = m.EtaMicros * float64(sectors)
		}
	}
	if !seq {
		v += m.TmovdMicros
	}
	return v
}

// TslatMicros returns the modeled I/O subsystem latency (µs).
func (m *Model) TslatMicros(op trace.Op, sectors uint32, seq bool) float64 {
	tcdel := m.TcdelWriteMicros
	if op == trace.Read {
		tcdel = m.TcdelReadMicros
	}
	return tcdel + m.TsdevMicros(op, sectors, seq)
}

// Tslat returns TslatMicros as a Duration.
func (m *Model) Tslat(op trace.Op, sectors uint32, seq bool) time.Duration {
	return time.Duration(m.TslatMicros(op, sectors, seq) * float64(time.Microsecond))
}

// Decompose computes the per-instruction timing decomposition for a
// whole trace. Element i of the returned slices describes instruction
// i: Idle[i] is the inferred idle period *preceding* instruction i
// (Idle[0] = 0), and Async[i] reports whether instruction i was issued
// asynchronously (its following inter-arrival is shorter than its own
// device time, the paper's post-processing criterion).
//
// When t.TsdevKnown, recorded per-request latencies replace the model's
// Tslat (the paper's "skip the Tsdev inference phase" path); m may then
// be nil.
func Decompose(m *Model, t *trace.Trace) (idle []time.Duration, async []bool) {
	return DecomposeShard(m, t.Requests, ShardContext{
		TsdevKnown: t.TsdevKnown,
		Seq:        t.SeqFlags(),
	})
}
