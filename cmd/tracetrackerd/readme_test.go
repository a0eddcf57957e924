package main

// The README's reference half, rendered from the tables the daemon
// serves: routes, stable codes, methods, targets and their knobs,
// formats, span vocabulary, /metrics series, the benchmark's gates and
// the daemon's flags. Each block must match byte for byte;
// `go test -p 1 -run '^TestReadmeBlocks$' ./cmd/... -update` rewrites
// them.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/apicode"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/readmetest"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite README.md's generated blocks from this build")

func TestReadmeBlocks(t *testing.T) {
	srv := dataServer(t, filepath.Join(t.TempDir(), "data"))
	defer srv.Close()
	blocks := []struct {
		name   string
		render func(*testing.T, *server) string
	}{
		{"routes", readmeRoutes},
		{"codes", readmeCodes},
		{"methods", readmeMethods},
		{"devices", readmeDevices},
		{"formats", readmeFormats},
		{"spans", readmeSpans},
		{"metrics", readmeMetrics},
		{"bench", readmeBench},
	}
	for _, b := range blocks {
		t.Run(b.name, func(t *testing.T) {
			readmetest.Check(t, b.name, b.render(t, srv), *updateGolden)
		})
	}
	t.Run("flags-tracetrackerd", func(t *testing.T) {
		readmetest.CheckFlags(t, "tracetrackerd", func() string {
			fs, _ := flags("tracetrackerd")
			var b strings.Builder
			fs.SetOutput(&b)
			fs.Usage()
			return b.String()
		}, *updateGolden)
	})
}

// readmeRoutes is the route table, plus the two endpoints mounted at
// the root outside it.
func readmeRoutes(_ *testing.T, srv *server) string {
	var b strings.Builder
	b.WriteString("| Endpoint | Meaning |\n| --- | --- |\n")
	for _, rt := range srv.routes() {
		fmt.Fprintf(&b, "| `%s /v1%s` | %s |\n", rt.method, rt.path, cell(rt.doc))
	}
	b.WriteString("| `GET /healthz` | Liveness, queue depth, `executed` / `cache_hits` / `corpus` counters, `uptime_seconds`, build `revision` |\n")
	b.WriteString("| `GET /metrics` | Prometheus text exposition (the series below) |\n")
	return b.String()
}

// readmeCodes lists every stable code, in apicode's order. This is the
// client contract: the envelope writers and engine.ValidationError
// accept only an apicode.Code.
func readmeCodes(t *testing.T, _ *server) string {
	names := apicode.Names()
	table := slices.Sorted(slices.Values(names[:]))
	if slices.Contains(table, "") || len(slices.Compact(slices.Clone(table))) != len(table) {
		t.Fatalf("apicode table has an empty or duplicate name: %v", table)
	}
	return ticks(names[:], ", ") + "\n"
}

func readmeMethods(_ *testing.T, _ *server) string {
	return ticks(engine.Methods(), ", ") + " (the first is the default)\n"
}

// readmeDevices is engine.Devices(), the table GET /v1/devices serves:
// the targets, then every knob of their nested configs.
func readmeDevices(_ *testing.T, _ *server) string {
	var b strings.Builder
	b.WriteString("| `device` | aliases | pipeline | config | what |\n| --- | --- | --- | --- | --- |\n")
	for _, d := range engine.Devices() {
		name := "`" + d.Name + "`"
		if d.Default {
			name += " (default)"
		}
		config := ""
		if d.ConfigField != "" {
			config = "`" + d.ConfigField + "`"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", name, ticks(d.Aliases, " "), d.Pipeline, config, cell(d.Summary))
	}
	b.WriteString("\n| knob | type | default | what |\n| --- | --- | --- | --- |\n")
	for _, d := range engine.Devices() {
		for _, k := range d.Knobs {
			fmt.Fprintf(&b, "| `%s.%s` | %s | %s | %s |\n", d.ConfigField, k.Name, k.Type, k.Default, cell(k.Help))
		}
	}
	return b.String()
}

func readmeFormats(_ *testing.T, _ *server) string {
	var b strings.Builder
	b.WriteString("| role | formats | read by |\n| --- | --- | --- |\n")
	for _, r := range []struct {
		name, where string
		role        trace.Role
	}{
		{"input", "every `-informat`, a spec's `informat`; `auto` sniffs", trace.Input},
		{"output", "every `-outformat`, a spec's `outformat`", trace.Output},
		{"generated", "`tracegen -format`", trace.Generated},
	} {
		fmt.Fprintf(&b, "| %s | %s | %s |\n", r.name, ticks(trace.Formats(r.role), " "), r.where)
	}
	return b.String()
}

// readmeSpans lists obs's span names and attribute keys, in table order.
func readmeSpans(_ *testing.T, _ *server) string {
	spans := vocabulary(func(i int) string { return obs.SpanName(i).String() })
	attrs := vocabulary(func(i int) string { return obs.AttrKey(i).String() })
	return fmt.Sprintf("Span names: %s (the first %d are the engine stages).\nAttribute keys: %s.\n",
		ticks(spans, ", "), obs.NumStages, ticks(attrs, ", "))
}

// vocabulary collects name(0), name(1), … up to the first index past
// the end of its table, where String panics.
func vocabulary(name func(int) string) (names []string) {
	defer func() { recover() }()
	for i := 0; ; i++ {
		names = append(names, name(i))
	}
}

// readmeMetrics renders every family the daemon registers, sorted by
// name, from its # HELP and # TYPE lines, with the label keys its
// samples carry. The families made on first use are made first: a
// request's, a rejection's and the global rate limit's.
func readmeMetrics(t *testing.T, srv *server) string {
	srv.setRateLimits(1000, 0)
	srv.rejected("queue_full", anonTenant)
	srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	var exp bytes.Buffer
	if err := srv.reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	samples, err := obstest.ParseExposition(exp.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	help, typ := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(exp.String(), "\n") {
		if f := strings.SplitN(line, " ", 4); len(f) == 4 && f[1] == "HELP" {
			help[f[2]] = f[3]
		} else if len(f) == 4 && f[1] == "TYPE" {
			typ[f[2]] = f[3]
		}
	}
	labels := map[string][]string{}
	for _, s := range samples {
		fam := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(s.Name, suffix); ok && typ[base] == "histogram" {
				fam = base
			}
		}
		for k := range s.Labels {
			if k != "le" && !slices.Contains(labels[fam], k) {
				labels[fam] = append(labels[fam], k)
			}
		}
	}
	var b strings.Builder
	b.WriteString("| series | type | meaning |\n| --- | --- | --- |\n")
	for _, name := range slices.Sorted(maps.Keys(help)) {
		if keys := labels[name]; len(keys) > 0 {
			slices.Sort(keys)
			name += "{" + strings.Join(keys, ",") + "}"
		}
		fam, _, _ := strings.Cut(name, "{")
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", name, typ[fam], cell(help[fam]))
	}
	return b.String()
}

// readmeBench is the benchmark's gate, read from BENCHMARK.json: every
// end-to-end metric with the share by which it may worsen, and how many
// per-layer rows explain them.
func readmeBench(t *testing.T, _ *server) string {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("| metric | unit | better | may worsen by |\n| --- | --- | --- | --- |\n")
	for _, m := range bench.EndToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %.4g%% |\n", m.Name, m.Unit, m.Better, m.Bound*100)
	}
	fmt.Fprintf(&b, "\n%d per-layer rows, none gated, explain them.\n", len(bench.PerLayer))
	return b.String()
}

// cell escapes text for a markdown table cell.
func cell(text string) string { return strings.ReplaceAll(text, "|", `\|`) }

// ticks joins names, each in backticks, with sep.
func ticks(names []string, sep string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = "`" + n + "`"
	}
	return strings.Join(quoted, sep)
}
