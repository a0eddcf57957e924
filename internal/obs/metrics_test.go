package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/obstest"
)

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}

	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", nil, []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`h_seconds_bucket{le="0.1"} 1`,
		`h_seconds_bucket{le="1"} 3`,
		`h_seconds_bucket{le="10"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
		`h_seconds_sum 56.05`,
		`h_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc", "help", nil, []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if h.Sum() != 4000 {
		t.Fatalf("sum = %g, want 4000", h.Sum())
	}
}

func TestRegistryIdempotentAndScaled(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "help", Labels{"route": "a"})
	b := r.Counter("reqs_total", "help", Labels{"route": "a"})
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c := r.Counter("reqs_total", "help", Labels{"route": "b"})
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Add(3)
	c.Inc()

	ns := r.CounterScaled("wait_seconds_total", "help", nil, 1e-9)
	ns.Add(int64(1500 * time.Millisecond))

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{route="a"} 3`,
		`reqs_total{route="b"} 1`,
		"wait_seconds_total 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("reqs_total", "help", nil)
}

func TestGaugeFuncAndLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("up_seconds", "uptime", nil, func() float64 { return 12.25 })
	r.Counter("odd_total", "help", Labels{"path": "a\"b\\c\nd"}).Inc()

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "up_seconds 12.25") {
		t.Errorf("gauge func missing:\n%s", out)
	}
	if !strings.Contains(out, `odd_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
	// The writer's output must satisfy the package's own parser.
	samples, err := obstest.ParseExposition([]byte(out))
	if err != nil {
		t.Fatalf("self-exposition does not parse: %v\n%s", err, out)
	}
	found := false
	for _, s := range samples {
		if s.Name == "odd_total" && s.Labels["path"] == "a\"b\\c\nd" {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped label did not round-trip: %+v", samples)
	}
}

// TestHookMethodsNilSafe calls every exported method of a nil
// *EngineMetrics and a nil *CorpusMetrics with zero-valued arguments. A
// nil hook means "instrumentation off", and the methods are a hook's
// only surface outside this package, so none may panic on one; a
// method added later is covered without being listed here.
func TestHookMethodsNilSafe(t *testing.T) {
	for _, hook := range []any{(*EngineMetrics)(nil), (*CorpusMetrics)(nil)} {
		v := reflect.ValueOf(hook)
		if v.NumMethod() == 0 {
			t.Fatalf("%T has no exported methods", hook)
		}
		for i := 0; i < v.NumMethod(); i++ {
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%T.%s panics on a nil receiver: %v", hook, v.Type().Method(i).Name, p)
					}
				}()
				m.Call(args)
			}()
		}
	}
}

func TestEngineMetricsRegistersAllStages(t *testing.T) {
	r := NewRegistry()
	m := NewEngineMetrics(r)
	m.StageAdd(StageService, 2*time.Second)
	m.tokenWaitNanos.Add(int64(time.Second / 2))
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for stage := range NumStages {
		if !strings.Contains(out, `engine_stage_seconds_total{stage="`+stage.String()+`"}`) {
			t.Errorf("missing stage %q:\n%s", stage, out)
		}
	}
	if !strings.Contains(out, `engine_stage_seconds_total{stage="service"} 2`) {
		t.Errorf("service stage time wrong:\n%s", out)
	}
	if !strings.Contains(out, "engine_token_wait_seconds_total 0.5") {
		t.Errorf("token wait scaling wrong:\n%s", out)
	}
	if got := m.stageNanos[StageService].Value(); got != int64(2*time.Second) {
		t.Fatalf("stageNanos[service] = %d", got)
	}
	// Model sources: one series per source, present at zero so "share of
	// jobs that still fit per job" is readable before the first job.
	m.ModelFit(false)
	m.ModelFit(true)
	m.ModelFit(true)
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`engine_model_fits_total{source="job"} 1`, `engine_model_fits_total{source="stored"} 2`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q:\n%s", want, buf.String())
		}
	}
}
