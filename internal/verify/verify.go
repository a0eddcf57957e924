// Package verify implements the paper's verification methodology
// (Section V-A): inject idle periods of known length into a block
// trace at random positions, run the inference model over the result,
// and score the speculated idles with the four-statistic scheme —
// true/false positives and negatives — plus the Detection and Len
// ratio metrics Figs 10 and 11 report.
package verify

import (
	"math/rand"
	"time"

	"repro/internal/trace"
)

// Periods are the injected idle lengths the paper sweeps.
var Periods = []time.Duration{
	100 * time.Microsecond,
	1 * time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
}

// InjectionSpec describes one injection experiment.
type InjectionSpec struct {
	// Period is the idle length injected at each chosen instruction
	// (the paper sweeps Periods).
	Period time.Duration
	// Frac is the fraction of instructions that receive an injection
	// (the paper uses 10%).
	Frac float64
	// Seed makes placement reproducible.
	Seed int64
}

// Inject returns a copy of t with spec.Period of extra idle inserted
// before a random spec.Frac of its instructions (all later arrivals
// shift), together with the ground-truth injected idle per instruction
// (0 where none). The first instruction never receives an injection —
// there is no preceding inter-arrival to lengthen.
func Inject(t *trace.Trace, spec InjectionSpec) (*trace.Trace, []time.Duration) {
	rng := rand.New(rand.NewSource(spec.Seed))
	out := t.Clone()
	truth := make([]time.Duration, len(out.Requests))
	var shift time.Duration
	for i := range out.Requests {
		if i > 0 && rng.Float64() < spec.Frac {
			truth[i] = spec.Period
			shift += spec.Period
		}
		out.Requests[i].Arrival += shift
	}
	return out, truth
}

// Metrics aggregates the verification statistics of Section V-A.
type Metrics struct {
	TP, FP, FN, TN int
	// Injected is the number of instructions that received an
	// injection (TP+FN).
	Injected int
	// Total is the number of scored instructions.
	Total int
	// LenTPRatio is mean(T_estimated / T_injected) over true
	// positives. Model noise can push individual ratios above 1, so
	// this diagnostic is unbounded.
	LenTPRatio float64
	// SecuredSum / InjectedSum track Σ min(T_estimated, T_injected)
	// and Σ T_injected over all injected instructions (false
	// negatives contribute zero secured time). Their ratio,
	// LenTPSecured, is the paper's Fig 10 presentation of Len(TP):
	// "how much of the real idle period the reconstruction secured",
	// bounded by 100%.
	SecuredSum, InjectedSum time.Duration
	// LenFP holds T_estimated (µs) at every false positive — the
	// population whose CDF Fig 11 plots.
	LenFP []float64
}

// DetectionTP is TP / injected (the paper's Detection(TP), reported at
// 82.2%–99.7%).
func (m Metrics) DetectionTP() float64 {
	if m.Injected == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.Injected)
}

// DetectionFP is FP / total instructions.
func (m Metrics) DetectionFP() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.FP) / float64(m.Total)
}

// LenTPSecured is SecuredSum / InjectedSum — the fraction of injected
// idle time the model recovered, counting misses as zero. This is the
// bounded Len(TP) the paper's Fig 10 bars show.
func (m Metrics) LenTPSecured() float64 {
	if m.InjectedSum == 0 {
		return 0
	}
	return float64(m.SecuredSum) / float64(m.InjectedSum)
}

// LenFPMean is the mean mispredicted idle length.
func (m Metrics) LenFPMean() time.Duration {
	if len(m.LenFP) == 0 {
		return 0
	}
	var sum float64
	for _, v := range m.LenFP {
		sum += v
	}
	return time.Duration(sum / float64(len(m.LenFP)) * float64(time.Microsecond))
}

// Evaluate scores estimated idles against injected ground truth. Both
// slices are per-instruction (index i = idle preceding instruction i);
// estimated idles at instructions with no injection count as false
// positives, matching the paper's definitions. Instruction 0 is
// skipped — no preceding inter-arrival exists.
//
// The base traces used by the verification experiments are generated
// without natural think time, so every estimated idle at a
// non-injected instruction is genuinely spurious.
func Evaluate(truth, estimated []time.Duration) Metrics {
	n := len(truth)
	if len(estimated) < n {
		n = len(estimated)
	}
	m := Metrics{}
	var lenSum float64
	for i := 1; i < n; i++ {
		m.Total++
		injected := truth[i] > 0
		detected := estimated[i] > 0
		if injected {
			m.InjectedSum += truth[i]
			secured := estimated[i]
			if secured > truth[i] {
				secured = truth[i]
			}
			m.SecuredSum += secured
		}
		switch {
		case injected && detected:
			m.TP++
			lenSum += float64(estimated[i]) / float64(truth[i])
		case injected && !detected:
			m.FN++
		case !injected && detected:
			m.FP++
			m.LenFP = append(m.LenFP, float64(estimated[i])/float64(time.Microsecond))
		default:
			m.TN++
		}
	}
	m.Injected = m.TP + m.FN
	if m.TP > 0 {
		m.LenTPRatio = lenSum / float64(m.TP)
	}
	return m
}
