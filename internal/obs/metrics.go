// Package obs is the repo's observability layer: a dependency-free,
// allocation-conscious metrics registry (atomic counters, gauges and
// fixed-bucket histograms with expvar-style registration and
// Prometheus text-format exposition), structured-logging helpers, and
// HTTP middleware that threads request IDs through slog.
//
// The registry is built for hot paths that must stay allocation-free:
// metrics are registered once up front and held by pointer, so an
// instrumented loop costs one or two atomic operations per event and
// never touches the registry. Exposition walks the registry in
// registration order, which keeps /metrics output stable across
// scrapes.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero
// value is usable, but hot paths should hold a pointer obtained from
// Registry.Counter so the metric is also exposed.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (callers must keep counters monotone: n >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depths, in-flight
// work). Unlike Counter it may go down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Observe is
// allocation-free: a linear scan over the (small, fixed) bound slice
// plus three atomic updates. Exposed in the Prometheus histogram
// convention: cumulative _bucket{le=...} series, _sum and _count.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DurationBuckets are the default latency bounds in seconds, spanning
// sub-millisecond cache hits to multi-minute reconstructions.
var DurationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// Labels are the label pairs attached to one metric within a family.
// Metrics in the same family must use the same label keys.
type Labels map[string]string

// metric is one labelled series within a family. Exactly one of the
// value fields is set, matching the family's type.
type metric struct {
	labels string // pre-rendered, sorted: `k1="v1",k2="v2"`
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name  string
	help  string
	typ   string // counter | gauge | histogram
	scale float64
	order []*metric
	byKey map[string]*metric
}

// Registry holds registered metrics and renders them in the
// Prometheus text format. Registration is idempotent: asking for an
// existing (name, labels) pair returns the same metric, so lazily
// instrumented paths (per-route HTTP metrics) need no separate
// bookkeeping. Re-registering a name with a different type or scale
// panics — that is a programming error, like a duplicate expvar.
type Registry struct {
	mu     sync.Mutex
	order  []*family          // guarded by mu
	byName map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// getOrCreate finds or adds the (name, labels) series, enforcing
// family consistency.
func (r *Registry) getOrCreate(name, help, typ string, scale float64, labels Labels, build func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, typ, scale)
	key := renderLabels(labels)
	if m := f.byKey[key]; m != nil {
		return m
	}
	m := build()
	m.labels = key
	f.byKey[key] = m
	f.order = append(f.order, m)
	return m
}

// familyLocked finds or adds the family name, enforcing its type and
// scale.
//
//tracelint:holds mu
func (r *Registry) familyLocked(name, help, typ string, scale float64) *family {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, scale: scale, byKey: make(map[string]*metric)}
		r.byName[name] = f
		r.order = append(r.order, f)
	} else if f.typ != typ || f.scale != scale {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (scale %g), was %s (scale %g)",
			name, typ, scale, f.typ, f.scale))
	}
	return f
}

// Declare registers the family name before any of its series, for a
// family whose series are made on first use (a route's, a rejection's):
// until then a scrape shows its # HELP and # TYPE lines and no sample.
// typ is "counter", "gauge" or "histogram", as its series will be.
func (r *Registry) Declare(name, help, typ string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, help, typ, 1)
}

// Counter registers (or finds) a counter. labels may be nil.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.CounterScaled(name, help, labels, 1)
}

// CounterScaled registers a counter whose exposed value is the raw
// count multiplied by scale — the idiom for nanosecond-accumulating
// time counters exposed in seconds (scale 1e-9) without paying
// float arithmetic on the hot path.
func (r *Registry) CounterScaled(name, help string, labels Labels, scale float64) *Counter {
	m := r.getOrCreate(name, help, "counter", scale, labels, func() *metric {
		return &metric{c: &Counter{}}
	})
	return m.c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	m := r.getOrCreate(name, help, "gauge", 1, labels, func() *metric {
		return &metric{g: &Gauge{}}
	})
	return m.g
}

// GaugeFunc registers a gauge computed at scrape time by fn — for
// values that already live elsewhere (queue lengths, uptime) and
// would otherwise need write-through maintenance.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.getOrCreate(name, help, "gauge", 1, labels, func() *metric {
		return &metric{fn: fn}
	})
}

// CounterFunc registers a counter computed at scrape time by fn — for
// monotone totals the runtime already accumulates (GC pause time)
// where mirroring into a Counter would need a poller. fn must be
// monotone non-decreasing.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.getOrCreate(name, help, "counter", 1, labels, func() *metric {
		return &metric{fn: fn}
	})
}

// Histogram registers (or finds) a fixed-bucket histogram with the
// given upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	m := r.getOrCreate(name, help, "histogram", 1, labels, func() *metric {
		h := &Histogram{bounds: bounds}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		return &metric{h: h}
	})
	return m.h
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), families in registration
// order, series in registration order within each family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	copy(fams, r.order)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		r.mu.Lock()
		series := make([]*metric, len(f.order))
		copy(series, f.order)
		r.mu.Unlock()
		for _, m := range series {
			switch {
			case m.c != nil:
				v := m.c.Value()
				if f.scale == 1 {
					writeSample(&b, f.name, "", m.labels, strconv.FormatInt(v, 10))
				} else {
					writeSample(&b, f.name, "", m.labels, formatFloat(float64(v)*f.scale))
				}
			case m.g != nil:
				writeSample(&b, f.name, "", m.labels, strconv.FormatInt(m.g.Value(), 10))
			case m.fn != nil:
				writeSample(&b, f.name, "", m.labels, formatFloat(m.fn()))
			case m.h != nil:
				cum := int64(0)
				for i, bound := range m.h.bounds {
					cum += m.h.counts[i].Load()
					writeSample(&b, f.name, "_bucket", joinLabels(m.labels, `le="`+formatFloat(bound)+`"`),
						strconv.FormatInt(cum, 10))
				}
				writeSample(&b, f.name, "_bucket", joinLabels(m.labels, `le="+Inf"`),
					strconv.FormatInt(m.h.Count(), 10))
				writeSample(&b, f.name, "_sum", m.labels, formatFloat(m.h.Sum()))
				writeSample(&b, f.name, "_count", m.labels, strconv.FormatInt(m.h.Count(), 10))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func writeSample(b *strings.Builder, name, suffix, labels, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// Handler returns an http.Handler serving the registry in the text
// exposition format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
