package main

// The README's reference half, rendered from the tables the daemon
// serves: routes, stable codes, methods, targets and their knobs,
// formats, span vocabulary, /metrics series, the benchmark's gates and
// the daemon's flags. Each block must match byte for byte;
// `go test -p 1 -run '^TestReadmeBlocks$' ./cmd/... -update` rewrites
// them.

import (
	"bytes"
	"cmp"
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
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/readmetest"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite README.md's generated blocks from this build")

func TestReadmeBlocks(t *testing.T) {
	// A global rate limit, so readmeMetrics sees that series.
	o := testOptions(t)
	o.rate = 1000
	srv := startServer(t, o)
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

// readmeSpans lists obs's span names and attribute keys, in table
// order, then the span tree of a real timeline: a job that misses the
// result cache and fits its own model, on the server's store with the
// models its ingest fitted hidden.
func readmeSpans(t *testing.T, srv *server) string {
	spans := vocabulary(func(i int) string { return obs.SpanName(i).String() })
	attrs := vocabulary(func(i int) string { return obs.AttrKey(i).String() })
	e, _, err := srv.store.Ingest(bytes.NewReader(webmailCSV(t, 2000)), "csv")
	if err != nil {
		t.Fatal(err)
	}
	in, err := srv.store.BlobPath(e.Digest)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer("readme", 0, obs.TraceContext{})
	cfg := srv.base
	cfg.Trace = tracer
	if _, hit, err := engine.RunJobCached(cfg, engine.JobSpec{In: in}, e.Digest, unfitted{srv.store}); err != nil || hit {
		t.Fatalf("the timeline's job: hit %v, err %v; want a miss", hit, err)
	}
	tracer.Finish()
	tree := spanTree(t, tracer.Snapshot(), attrs, map[string]string{
		"store": "on a miss", "fit": "no stored model", "epoch": "sampled",
	})
	return fmt.Sprintf("Span names: %s (the first %d are the engine stages).\nAttribute keys: %s.\n\n```text\n%s```\n",
		ticks(spans, ", "), obs.NumStages, ticks(attrs, ", "), tree)
}

// unfitted is a result cache that keeps no fitted models, so a job on
// it fits its own.
type unfitted struct{ *corpus.Store }

func (unfitted) FittedModel(string) *infer.Model { return nil }

// spanTree draws jt's span tree with each span name once under its
// parent: same-named siblings (the sampled epochs) fold into one line
// with the attribute keys any of them carries, in attrs' order, and
// their children merge. Siblings go in the order they first started.
// notes annotates a name; each must name a span of the tree.
func spanTree(t *testing.T, jt *obs.JobTrace, attrs []string, notes map[string]string) string {
	kids := map[string][]obs.SpanOut{}
	for _, s := range jt.Spans[1:] {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	seen := map[string]bool{}
	var b strings.Builder
	b.WriteString("job root\n")
	var draw func(parents []obs.SpanOut, indent string)
	draw = func(parents []obs.SpanOut, indent string) {
		var names []string
		group := map[string][]obs.SpanOut{}
		for _, p := range parents {
			for _, s := range kids[p.ID] {
				if group[s.Name] == nil {
					names = append(names, s.Name)
				}
				group[s.Name] = append(group[s.Name], s)
			}
		}
		start := func(name string) int64 {
			return slices.MinFunc(group[name], func(a, b obs.SpanOut) int { return cmp.Compare(a.StartNS, b.StartNS) }).StartNS
		}
		slices.SortStableFunc(names, func(a, b string) int { return cmp.Compare(start(a), start(b)) })
		for i, name := range names {
			seen[name] = true
			branch, next := "├─ ", "│  "
			if i == len(names)-1 {
				branch, next = "└─ ", "   "
			}
			line := name
			if note := notes[name]; note != "" {
				line += ", " + note
			}
			var keys []string
			for _, k := range attrs {
				if slices.ContainsFunc(group[name], func(s obs.SpanOut) bool { _, ok := s.Attrs[k]; return ok }) {
					keys = append(keys, k)
				}
			}
			if len(keys) > 0 {
				line += " (" + strings.Join(keys, ", ") + ")"
			}
			b.WriteString(indent + branch + line + "\n")
			draw(group[name], indent+next)
		}
	}
	draw(jt.Spans[:1], "")
	for name := range notes {
		if !seen[name] {
			t.Fatalf("the timeline has no %s span:\n%s", name, b.String())
		}
	}
	return b.String()
}

// vocabulary collects name(0), name(1), … up to the first index past
// the end of its table, where String panics.
func vocabulary(name func(int) string) (names []string) {
	defer func() { recover() }()
	for i := 0; ; i++ {
		names = append(names, name(i))
	}
}

// TestFreshScrapeNamesEveryFamily scrapes a daemon that has served
// nothing yet: every family of the README's metrics block is there, with
// its # HELP and # TYPE lines, including those whose series are made on
// first use (a request's, a rejection's, the global rate limit's).
func TestFreshScrapeNamesEveryFamily(t *testing.T) {
	srv := dataServer(t, filepath.Join(t.TempDir(), "data"))
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	exp := rec.Body.String()
	rows := 0
	for _, row := range strings.Split(readmetest.Block(t, "metrics"), "\n") {
		f := strings.Split(row, " | ")
		name, ok := strings.CutPrefix(f[0], "| `")
		if !ok || len(f) < 2 {
			continue
		}
		name, _, _ = strings.Cut(strings.TrimSuffix(name, "`"), "{")
		rows++
		for _, want := range []string{"# HELP " + name + " ", "# TYPE " + name + " " + f[1] + "\n"} {
			if !strings.Contains(exp, want) {
				t.Errorf("a fresh scrape lacks %q", want)
			}
		}
	}
	if rows == 0 {
		t.Fatal("the README's metrics block lists no series")
	}
}

// readmeMetrics renders every family the daemon registers, sorted by
// name, from its # HELP and # TYPE lines, with the label keys its
// samples carry. A series is made first in each family that has none
// until first use (a request's and a rejection's), so its label keys
// show; srv has a global rate limit, so that series is there.
func readmeMetrics(t *testing.T, srv *server) string {
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
