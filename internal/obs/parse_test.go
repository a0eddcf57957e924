package obs

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/obstest"
)

// TestParseExposition is the table-driven format gate the CI metrics
// smoke relies on: every accept case must parse, every reject case
// must fail.
func TestParseExposition(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantErr bool
		// want asserts one expected sample (name -> value) when set.
		want map[string]float64
	}{
		{
			name: "bare counter",
			in:   "requests_total 10\n",
			want: map[string]float64{"requests_total": 10},
		},
		{
			name: "typed family with labels",
			in: "# HELP reqs_total total\n# TYPE reqs_total counter\n" +
				`reqs_total{route="GET /jobs",code="200"} 3` + "\n",
			want: map[string]float64{"reqs_total": 3},
		},
		{
			name: "histogram series",
			in: "# TYPE lat_seconds histogram\n" +
				`lat_seconds_bucket{le="0.1"} 1` + "\n" +
				`lat_seconds_bucket{le="+Inf"} 2` + "\n" +
				"lat_seconds_sum 0.25\nlat_seconds_count 2\n",
			want: map[string]float64{"lat_seconds_sum": 0.25},
		},
		{
			name: "float and special values",
			in:   "a 1.5e-3\nb +Inf\nc NaN\n",
		},
		{
			name: "sample with timestamp",
			in:   "a 1 1700000000000\n",
			want: map[string]float64{"a": 1},
		},
		{
			name: "escaped label value",
			in:   `path_total{p="a\"b\\c\nd"} 1` + "\n",
			want: map[string]float64{"path_total": 1},
		},
		{
			name: "blank lines and stray comments",
			in:   "\n# just a note\na 1\n\n",
			want: map[string]float64{"a": 1},
		},
		{name: "missing value", in: "a\n", wantErr: true},
		{name: "bad value", in: "a twelve\n", wantErr: true},
		{name: "bad metric name", in: "9a 1\n", wantErr: true},
		{name: "unterminated labels", in: `a{x="1" 2` + "\n", wantErr: true},
		{name: "unquoted label value", in: "a{x=1} 2\n", wantErr: true},
		{name: "duplicate label", in: `a{x="1",x="2"} 3` + "\n", wantErr: true},
		{name: "bad escape", in: `a{x="\q"} 1` + "\n", wantErr: true},
		{name: "unknown type", in: "# TYPE a widget\na 1\n", wantErr: true},
		{name: "duplicate type", in: "# TYPE a counter\n# TYPE a counter\na 1\n", wantErr: true},
		{name: "type after samples", in: "a 1\n# TYPE a counter\n", wantErr: true},
		{name: "type after histogram samples", in: `a_bucket{le="+Inf"} 1` + "\n# TYPE a histogram\n", wantErr: true},
		{name: "bad timestamp", in: "a 1 soon\n", wantErr: true},
		{name: "trailing garbage", in: "a 1 2 3\n", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			samples, err := obstest.ParseExposition([]byte(tc.in))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parsed %q without error: %+v", tc.in, samples)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse %q: %v", tc.in, err)
			}
			for name, want := range tc.want {
				found := false
				for _, s := range samples {
					if s.Name == name {
						found = true
						if s.Value != want {
							t.Errorf("%s = %g, want %g", name, s.Value, want)
						}
					}
				}
				if !found {
					t.Errorf("sample %s missing from %+v", name, samples)
				}
			}
		})
	}
}

func TestParseExpositionSpecialValues(t *testing.T) {
	samples, err := obstest.ParseExposition([]byte("a +Inf\nb -Inf\nc NaN\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(samples[0].Value, 1) || !math.IsInf(samples[1].Value, -1) || !math.IsNaN(samples[2].Value) {
		t.Fatalf("special values parsed wrong: %+v", samples)
	}
}

// TestParseOwnExposition locks writer/parser agreement over the whole
// metric surface the daemon exposes.
func TestParseOwnExposition(t *testing.T) {
	r := NewRegistry()
	em := NewEngineMetrics(r)
	em.StageAdd(StagePlan, 1)
	NewCorpusMetrics(r).IngestObserve(100, 5, true)
	hm := NewHTTPMetrics(r, "d")
	hm.observe("GET /jobs/{id}", 200, 10*time.Millisecond)
	r.GaugeFunc("uptime_seconds", "up", nil, func() float64 { return 3 })

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obstest.ParseExposition([]byte(buf.String())); err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, buf.String())
	}
}
