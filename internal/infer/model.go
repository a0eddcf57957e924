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

// EstimateOptions tunes Estimate.
type EstimateOptions struct {
	Steepness SteepnessOptions
	// MinGroupSamples is the minimum group population considered
	// statistically meaningful (default 16).
	MinGroupSamples int
	// DeltaFromCDFDiff selects the literal CDF-difference construction
	// of Fig 6 for ΔTintt instead of the rise-separation estimator;
	// see estimateDelta for the discussion. Default false.
	DeltaFromCDFDiff bool
}

func (o EstimateOptions) withDefaults() EstimateOptions {
	if o.MinGroupSamples == 0 {
		o.MinGroupSamples = 16
	}
	return o
}

// ErrTooSparse is returned when a trace has no group large enough to
// support any inference at all.
var ErrTooSparse = errors.New("infer: trace too sparse for inference")

// Estimate fits the Section III model to a trace: it classifies the
// instructions, scores every sequential per-size CDF with Algorithm 1,
// derives β/η from the two steepest read/write graphs, channel delays
// from the steepest graph's rise location, and Tmovd from the steepest
// random-access graph.
func Estimate(t *trace.Trace, opts EstimateOptions) (*Model, error) {
	return EstimateGrouping(Classify(t), t.Name, opts)
}

// EstimateGrouping fits the model from a pre-built classification
// (either Classify's or a StreamClassifier's). name labels errors.
func EstimateGrouping(g *Grouping, name string, opts EstimateOptions) (*Model, error) {
	m, _, err := estimateGrouping(g, name, opts, nil, false)
	return m, err
}

// estimateGrouping is EstimateGrouping on the examiners xs (grown as
// needed and returned), which with inPlace sort each group's samples
// where they lie instead of in a copy.
func estimateGrouping(g *Grouping, name string, opts EstimateOptions, xs []examiner, inPlace bool) (*Model, []examiner, error) {
	opts = opts.withDefaults()
	m := &Model{FlatReadMicros: -1, FlatWriteMicros: -1}
	ex, xs := examineGroups(g, opts, xs, inPlace)

	okRead := estimateOp(m, g, ex, trace.Read, opts)
	okWrite := estimateOp(m, g, ex, trace.Write, opts)
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

	estimateTmovd(m, g, ex, opts)
	return m, xs, nil
}

// examineGroups runs the steepness analysis once over every group with
// at least MinGroupSamples samples — every group a pass below can
// select — largest first, on min(GOMAXPROCS, groups) goroutines, each
// with its own examiner of xs (grown to the goroutine count and
// returned). A goroutine writes only the slots of the groups it takes,
// and nothing reads a slot before the join. An examination is a pure
// function of its group's samples, so the schedule cannot change a bit
// of the model; with inPlace the samples end up sorted.
func examineGroups(g *Grouping, opts EstimateOptions, xs []examiner, inPlace bool) (map[*Group]*examination, []examiner) {
	var groups []*Group
	for _, grp := range g.Groups {
		if grp.N() >= opts.MinGroupSamples {
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
				if inPlace {
					out[i] = x.examineSorting(groups[i].InttMicros, opts.Steepness)
				} else {
					out[i] = x.examine(groups[i].InttMicros, opts.Steepness)
				}
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
func estimateOp(m *Model, g *Grouping, ex map[*Group]*examination, op trace.Op, opts EstimateOptions) bool {
	groups := g.Select(true, op, opts.MinGroupSamples)
	if len(groups) == 0 {
		// No sequential traffic: fall back to random groups of the op
		// so that read-heavy random workloads still get a model; the
		// Tmovd term then absorbs the positioning component.
		for _, grp := range g.SelectAllRandom(opts.MinGroupSamples) {
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

	delta := estimateDelta(steep1.examination, steep2.examination, opts)
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

// estimateDelta produces ΔTintt, the inter-arrival separation between
// the two steepest per-size CDFs, which divided by the size difference
// yields the per-sector coefficient (Fig 6).
//
// The default estimator is the separation of the two rise locations
// |T'1 − T'2|: the two CDFs rise at Tcdel + coef·size1 and
// Tcdel + coef·size2 respectively, so the separation isolates
// coef·|size1−size2| exactly. The paper's Fig 6 construction — build
// CDF(diff) = CDF1 − CDF2 and take the Tintt at max CDF(diff)′ — is
// available behind DeltaFromCDFDiff for the fidelity ablation; on
// well-separated rises both land within a bin width of each other.
func estimateDelta(e1, e2 *examination, opts EstimateOptions) float64 {
	r1, r2 := e1.res, e2.res
	if !opts.DeltaFromCDFDiff {
		return math.Abs(r1.RiseMicros - r2.RiseMicros)
	}
	// Literal construction: evaluate both interpolated CDFs on the
	// merged support, interpolate the difference, take argmax of its
	// derivative, then measure separation from steep1's rise. The CDFs
	// are the knots each group's examination already built.
	x1, y1 := e1.cx, e1.cy
	x2, y2 := e2.cx, e2.cy
	if len(x1) < 2 || len(x2) < 2 {
		return math.Abs(r1.RiseMicros - r2.RiseMicros)
	}
	f1, err1 := pchipOrLinear(x1, y1)
	f2, err2 := pchipOrLinear(x2, y2)
	if err1 != nil || err2 != nil {
		return math.Abs(r1.RiseMicros - r2.RiseMicros)
	}
	lo := math.Min(x1[0], x2[0])
	hi := math.Max(x1[len(x1)-1], x2[len(x2)-1])
	const n = 512
	bestX, bestD := lo, math.Inf(-1)
	prev := f1.At(lo) - f2.At(lo)
	step := (hi - lo) / n
	for i := 1; i <= n; i++ {
		x := lo + float64(i)*step
		cur := f1.At(x) - f2.At(x)
		if d := (cur - prev) / step; d > bestD {
			bestD, bestX = d, x
		}
		prev = cur
	}
	return math.Abs(bestX - r1.RiseMicros)
}

// estimateTmovd fits the representative random-access positioning
// delay from the steepest random-access CDF, reading the groups'
// examinations from ex.
func estimateTmovd(m *Model, g *Grouping, ex map[*Group]*examination, opts EstimateOptions) {
	var bestGrp *Group
	var bestRes SteepnessResult
	found := false
	for _, grp := range g.SelectAllRandom(opts.MinGroupSamples) {
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
