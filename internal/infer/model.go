package infer

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
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
// random-access graph: it feeds the trace to a StreamClassifier in
// batches of estimateBatch requests and fits that.
func Estimate(t *trace.Trace, _ EstimateOptions) (*Model, error) {
	c := NewStreamClassifier()
	for lo, n := 0, t.Len(); lo < n; lo += estimateBatch {
		c.AddBatch(t.Requests[lo:min(lo+estimateBatch, n)])
	}
	return c.Estimate(t.Name)
}

// estimateBatch is the most requests Estimate hands the classifier at
// once, which bounds its flag scratch at a byte each.
const estimateBatch = 1 << 16

// groupFit is one group as the fit selects it: its key, its sample
// count and, for a group of at least minGroupSamples samples — every
// group a pass below can select — its examination.
type groupFit struct {
	key GroupKey
	n   int
	ex  examination
}

// fitModel fits the model from the groups of a classification; name
// labels errors.
func fitModel(groups []groupFit, name string) (*Model, error) {
	m := &Model{FlatReadMicros: -1, FlatWriteMicros: -1}
	okRead := estimateOp(m, groups, trace.Read)
	okWrite := estimateOp(m, groups, trace.Write)
	if !okRead && !okWrite {
		return nil, fmt.Errorf("%w: %q", ErrTooSparse, name)
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

	estimateTmovd(m, groups)
	return m, nil
}

// examineEach runs examine(x, i) for every i in [0, n) on min(GOMAXPROCS,
// n) goroutines, each with an examiner of its own that is dropped at the
// join, taking indices in increasing order. A call writes only what
// index i owns, and nothing reads it before the join. An examination is
// a pure function of its group's samples, so the schedule cannot change
// a bit of the model.
func examineEach(n int, examine func(x *examiner, i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var x examiner
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				examine(&x, i)
			}
		}()
	}
	wg.Wait()
}

// selectGroups returns the groups of at least minGroupSamples samples
// whose key keep accepts, in the fit's scoring order (cmpGroups).
func selectGroups(groups []groupFit, keep func(GroupKey) bool) []*groupFit {
	var out []*groupFit
	for i := range groups {
		if g := &groups[i]; g.n >= minGroupSamples && keep(g.key) {
			out = append(out, g)
		}
	}
	slices.SortFunc(out, func(a, b *groupFit) int { return cmpGroups(a.key, a.n, b.key, b.n) })
	return out
}

// estimateOp fits β (or η) and Tcdel for one operation type from the
// sequential groups. Returns false when no group is usable.
func estimateOp(m *Model, groups []groupFit, op trace.Op) bool {
	sel := selectGroups(groups, func(k GroupKey) bool { return k.Seq && k.Op == op })
	if len(sel) == 0 {
		// No sequential traffic: fall back to random groups of the op
		// so that read-heavy random workloads still get a model; the
		// Tmovd term then absorbs the positioning component.
		sel = selectGroups(groups, func(k GroupKey) bool { return !k.Seq && k.Op == op })
	}
	var sc []*groupFit
	for _, g := range sel {
		if g.ex.ok {
			sc = append(sc, g)
		}
	}
	if len(sc) == 0 {
		return false
	}
	// Graph classification: the two highest Algorithm-1 scores with
	// distinct request sizes.
	best := 0
	for i := range sc {
		if sc[i].ex.res.Score > sc[best].ex.res.Score {
			best = i
		}
	}
	steep1 := sc[best]
	second := -1
	for i := range sc {
		if sc[i].key.Sectors == steep1.key.Sectors {
			continue
		}
		if second == -1 || sc[i].ex.res.Score > sc[second].ex.res.Score {
			second = i
		}
	}

	if second == -1 {
		// Uniform request size: single-CDF case — read Tslat directly
		// off the global maximum of CDF' (paper Fig 5a discussion).
		flat := steep1.ex.res.RiseMicros
		if op == trace.Read {
			m.FlatReadMicros = flat
			m.ReadSizes = [2]uint32{steep1.key.Sectors, steep1.key.Sectors}
		} else {
			m.FlatWriteMicros = flat
			m.WriteSizes = [2]uint32{steep1.key.Sectors, steep1.key.Sectors}
		}
		return true
	}
	steep2 := sc[second]

	// ΔTintt (Fig 6) is the separation of the two rise locations: the
	// CDFs rise at Tcdel + coef·size1 and Tcdel + coef·size2, so
	// |T'1 − T'2| isolates coef·|size1 − size2| exactly.
	delta := math.Abs(steep1.ex.res.RiseMicros - steep2.ex.res.RiseMicros)
	sizeDiff := math.Abs(float64(steep1.key.Sectors) - float64(steep2.key.Sectors))
	coef := delta / sizeDiff
	if coef < 0 {
		coef = 0
	}
	// T'intt of the steepest graph minus the size-proportional device
	// time leaves the channel delay.
	tcdel := steep1.ex.res.RiseMicros - coef*float64(steep1.key.Sectors)
	if tcdel < 0 {
		tcdel = 0
	}
	if op == trace.Read {
		m.BetaMicros = coef
		m.TcdelReadMicros = tcdel
		m.ReadSizes = [2]uint32{steep1.key.Sectors, steep2.key.Sectors}
	} else {
		m.EtaMicros = coef
		m.TcdelWriteMicros = tcdel
		m.WriteSizes = [2]uint32{steep1.key.Sectors, steep2.key.Sectors}
	}
	return true
}

// estimateTmovd fits the representative random-access positioning
// delay from the steepest random-access CDF.
func estimateTmovd(m *Model, groups []groupFit) {
	var best *groupFit
	for _, g := range selectGroups(groups, func(k GroupKey) bool { return !k.Seq }) {
		if g.ex.ok && (best == nil || g.ex.res.Score > best.ex.res.Score) {
			best = g
		}
	}
	if best == nil {
		m.TmovdMicros = 0
		return
	}
	// Tmovd = T_rand − (Tcdel + coef·size_ref) for the chosen group's
	// op type and size.
	sizeRef := float64(best.key.Sectors)
	var seqPart float64
	if best.key.Op == trace.Read {
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
	tmovd := best.ex.res.RiseMicros - seqPart
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
