package obs

import (
	"strings"
	"testing"

	"repro/internal/obs/obstest"
)

// TestRegisterRuntimeMetrics scrapes the runtime gauges and checks
// they expose live, plausible values in parseable exposition format.
func TestRegisterRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE go_goroutines gauge",
		"# TYPE go_memstats_heap_alloc_bytes gauge",
		"# TYPE go_gc_pause_seconds_total counter",
		"# TYPE go_gomaxprocs gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	samples, err := obstest.ParseExposition([]byte(out))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	if v := byName["go_goroutines"]; v < 1 {
		t.Fatalf("go_goroutines = %v, want >= 1", v)
	}
	if v := byName["go_memstats_heap_alloc_bytes"]; v <= 0 {
		t.Fatalf("heap bytes = %v, want > 0", v)
	}
	if v := byName["go_gomaxprocs"]; v < 1 {
		t.Fatalf("go_gomaxprocs = %v, want >= 1", v)
	}
}
