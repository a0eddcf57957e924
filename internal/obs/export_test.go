package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace-export fixtures")

// exportFixture is a hand-built JobTrace with fixed IDs and times, so
// both export formats are byte-deterministic. It exercises the lane
// packer: decode/plan/encode fit one lane, the two overlapping epochs
// need two more, and decompose/merge nest inside their epoch.
func exportFixture() *JobTrace {
	return &JobTrace{
		TraceID:       "0af7651916cd43dd8448eb211c80319c",
		ParentSpanID:  "b7ad6b7169203331",
		Name:          "job-1 web_0",
		Start:         time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		DurationNS:    5_000_000,
		DroppedEpochs: 2,
		Spans: []SpanOut{
			{ID: "00f067aa0ba902b7", Name: "job-1 web_0", StartNS: 0, EndNS: 5_000_000},
			{ID: "0000000000000002", Parent: "00f067aa0ba902b7", Name: "decode", StartNS: 10_000, EndNS: 1_000_000},
			{ID: "0000000000000003", Parent: "00f067aa0ba902b7", Name: "plan", StartNS: 1_000_000, EndNS: 4_500_000, Attrs: map[string]int64{"token_wait_ns": 1234}},
			{ID: "0000000000000004", Parent: "00f067aa0ba902b7", Name: "epoch", StartNS: 1_200_000, EndNS: 2_000_000, Attrs: map[string]int64{"epoch": 0, "requests": 512}},
			{ID: "0000000000000005", Parent: "0000000000000004", Name: "decompose", StartNS: 1_200_000, EndNS: 1_400_000},
			{ID: "0000000000000006", Parent: "00f067aa0ba902b7", Name: "epoch", StartNS: 1_500_000, EndNS: 2_600_000, Attrs: map[string]int64{"epoch": 1}},
			{ID: "0000000000000007", Parent: "0000000000000004", Name: "merge", StartNS: 1_900_000, EndNS: 2_000_000},
			{ID: "0000000000000008", Parent: "00f067aa0ba902b7", Name: "encode", StartNS: 4_500_000, EndNS: 5_000_000},
		},
	}
}

// checkGolden compares got against the fixture file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create fixtures)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden fixture (re-run with -update if intended)\n got: %s\nwant: %s", name, got, want)
	}
}

// TestJobTraceGoldenJSON locks the JSON shape GET /v1/jobs/{id}/trace
// serves.
func TestJobTraceGoldenJSON(t *testing.T) {
	got, err := json.MarshalIndent(exportFixture(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "job_trace.json", append(got, '\n'))
}

// TestWriteChromeTraceGolden locks the ?format=perfetto byte output.
func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, exportFixture()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_trace.json", buf.Bytes())
}

// TestWriteChromeTraceValid parses the export as the Chrome
// trace-event JSON Array Format and checks the display invariants the
// golden bytes alone don't explain: one complete event per span,
// sorted timestamps, named lanes, and overlapping epochs on distinct
// lanes with their children alongside them.
func TestWriteChromeTraceValid(t *testing.T) {
	jt := exportFixture()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, jt); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.OtherData["trace_id"] != jt.TraceID {
		t.Fatalf("otherData: %v", doc.OtherData)
	}

	var xs, ms int
	lastTS := -1.0
	lanes := map[string][]int{} // span name -> tids
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			ms++
		case "X":
			xs++
			if ev.Ts < lastTS {
				t.Fatalf("events not sorted by ts: %v", doc.TraceEvents)
			}
			lastTS = ev.Ts
			if ev.Dur < 0 || ev.Pid != 1 {
				t.Fatalf("bad event: %+v", ev)
			}
			lanes[ev.Name] = append(lanes[ev.Name], ev.Tid)
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if xs != len(jt.Spans) {
		t.Fatalf("%d X events for %d spans", xs, len(jt.Spans))
	}
	if ms < 2 {
		t.Fatalf("missing metadata events (%d)", ms)
	}
	if lanes["job-1 web_0"][0] != 0 {
		t.Fatalf("root not on lane 0: %v", lanes)
	}
	ep := lanes["epoch"]
	if len(ep) != 2 || ep[0] == ep[1] {
		t.Fatalf("overlapping epochs share lane %v", ep)
	}
	if lanes["decompose"][0] != ep[0] || lanes["merge"][0] != ep[0] {
		t.Fatalf("epoch children not on their epoch's lane: %v", lanes)
	}
	// decode (ends 1ms) and plan (starts 1ms) can share a lane.
	if lanes["decode"][0] != lanes["plan"][0] {
		t.Fatalf("adjacent spans not packed onto one lane: %v", lanes)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export invalid: %v: %s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace produced events: %s", buf.String())
	}
}
