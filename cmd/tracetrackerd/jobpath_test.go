package main

// Tests for the one job path through the daemon: whatever the target,
// output format or method, a job on an uploaded trace streams into its
// result-cache entry, the result endpoint serves that file's bytes — the
// sequential pipeline's bytes — and the file outlives the process.

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

// encodeAs renders tr the way a job does: the streaming encoder of the
// named format, with the defaulted fio replay device.
func encodeAs(t *testing.T, format string, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := trace.NewEncoder(format, &buf, "/dev/nvme0n1")
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeTrace(enc, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reportOfCore is the job report the daemon published when jobs ran in
// memory: the projection of the sequential pipeline's core.Report. The
// stream report must not lose a field of it.
func reportOfCore(rep *core.Report, requests int) jobReport {
	jr := jobReport{
		Requests:    int64(requests),
		IdleCount:   rep.IdleCount,
		IdleTotalUS: float64(rep.IdleTotal) / float64(time.Microsecond),
		AsyncCount:  rep.AsyncCount,
		DeviceStats: rep.DeviceStats,
	}
	if rep.Model != nil {
		jr.BetaMicros, jr.EtaMicros = rep.Model.BetaMicros, rep.Model.EtaMicros
	}
	return jr
}

// TestDaemonIdentityTable runs every device × output format × engine
// method, and the three baselines, as corpus jobs, and holds the served
// bytes to the sequential reference encoded with trace.EncodeTrace and
// the job report to the sequential report (the baselines': to their
// idle rule).
func TestDaemonIdentityTable(t *testing.T) {
	dir := t.TempDir()
	raw, _ := inputTrace(t)
	// The inference path: the same records with the latencies dropped.
	known := decodeCSV(t, raw)
	unknown := *known
	unknown.TsdevKnown = false
	unknown.Requests = append([]trace.Request(nil), known.Requests...)
	for i := range unknown.Requests {
		unknown.Requests[i].Latency = 0
	}
	var unknownCSV bytes.Buffer
	if err := trace.WriteCSV(&unknownCSV, &unknown); err != nil {
		t.Fatal(err)
	}

	srv := dataServer(t, filepath.Join(dir, "data"))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	inputs := []struct {
		name   string
		raw    []byte
		digest string
	}{
		{"recorded", raw, uploadCorpus(t, ts, raw, "csv")},
		{"inferred", unknownCSV.Bytes(), uploadCorpus(t, ts, unknownCSV.Bytes(), "csv")},
	}

	formats := []string{"csv", "bin", "blktrace", "fio"}
	for _, in := range inputs {
		old := decodeCSV(t, in.raw)
		for _, dev := range []string{"array", "ssd", "hdd", "ftl", "host"} {
			mk, err := engine.DeviceFactory(dev)
			if err != nil {
				t.Fatal(err)
			}
			for _, method := range []string{"tracetracker", "dynamic"} {
				want, rep, err := core.Reconstruct(old, mk(), core.Options{SkipPostProcess: method == "dynamic"})
				if err != nil {
					t.Fatal(err)
				}
				if in.name == "inferred" && rep.Model == nil {
					t.Fatal("fixture: the inferred input fitted no model")
				}
				for _, format := range formats {
					label := fmt.Sprintf("%s/%s/%s/%s", in.name, dev, method, format)
					id := postJob(t, ts, engine.JobSpec{
						In: "corpus:" + in.digest, Device: dev, Method: method, OutFormat: format,
					})
					j := waitDone(t, ts, id)
					if j.Cached {
						t.Fatalf("%s: cache hit; every cell is a distinct key", label)
					}
					if got := getBody(t, ts.URL+j.ResultURL); !bytes.Equal(got, encodeAs(t, format, want)) {
						t.Fatalf("%s: served bytes diverge from the sequential pipeline", label)
					}
					if j.Report == nil {
						t.Fatalf("%s: no report", label)
					}
					got, wantRep := *j.Report, reportOfCore(rep, want.Len())
					// Scheduling facts the sequential pipeline has no say in.
					got.Shards, got.Workers = 0, 0
					if !reflect.DeepEqual(got, wantRep) {
						t.Fatalf("%s: job report diverges from the sequential report:\n got %+v\nwant %+v", label, got, wantRep)
					}
				}
			}
		}
	}

	// The baselines: the same job path and sink; fixed-th and revision
	// return the graph's report under their own idle rule.
	old := decodeCSV(t, raw)
	mkArray, _ := engine.DeviceFactory("array")
	mkFTL, _ := engine.DeviceFactory("ftl")
	for _, tc := range []struct {
		spec engine.JobSpec
		want *trace.Trace
	}{
		{engine.JobSpec{Method: "fixed-th"}, baseline.FixedTh(old, mkArray(), baseline.DefaultFixedThreshold)},
		{engine.JobSpec{Method: "revision"}, baseline.Revision(old, mkArray())},
		{engine.JobSpec{Method: "revision", Device: "ftl"}, baseline.Revision(old, mkFTL())},
		{engine.JobSpec{Method: "acceleration"}, baseline.Acceleration(old, baseline.DefaultAccelerationFactor)},
	} {
		label := tc.spec.Method + "/" + tc.spec.Device
		tc.spec.In, tc.spec.OutFormat = corpusScheme+inputs[0].digest, "bin"
		id := postJob(t, ts, tc.spec)
		j := waitDone(t, ts, id)
		if got := getBody(t, ts.URL+j.ResultURL); !bytes.Equal(got, encodeAs(t, "bin", tc.want)) {
			t.Fatalf("%s: served bytes diverge from the baseline reference", label)
		}
		switch rep := j.Report; {
		case tc.spec.Method == "acceleration":
			if rep != nil {
				t.Fatalf("%s: acceleration runs no graph, got report %+v", label, rep)
			}
		case rep == nil:
			t.Fatalf("%s: no report", label)
		default:
			if rep.Requests != int64(old.Len()) || rep.AsyncCount != 0 || rep.BetaMicros != 0 || rep.EtaMicros != 0 {
				t.Fatalf("%s: report %+v, want %d requests, nothing asynchronous, no model", label, rep, old.Len())
			}
			if (tc.spec.Method == "revision") != (rep.IdleCount == 0) {
				t.Fatalf("%s: %d idles; revision finds none, this input has gaps above fixed-th's threshold", label, rep.IdleCount)
			}
			waf := false
			for _, st := range rep.DeviceStats {
				waf = waf || st.Name == "waf"
			}
			if waf != (tc.spec.Device == "ftl") {
				t.Fatalf("%s: device_stats %+v, want waf exactly on ftl", label, rep.DeviceStats)
			}
		}
	}
}

func decodeCSV(t *testing.T, raw []byte) *trace.Trace {
	t.Helper()
	tr, err := trace.ReadFormat("csv", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRacingIdenticalCorpusJobs submits the same corpus job to two
// executors at once: both finish done with identical bytes, and the
// result cache holds exactly one file for the key.
func TestRacingIdenticalCorpusJobs(t *testing.T) {
	srv := testServer(t, engine.Config{Workers: 2, MaxShardRequests: 256}, 2)
	defer srv.Close()
	dataDir := srv.store.Root()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	digest := uploadCorpus(t, ts, corpusBlob(t, "raced", 20_000), "")

	spec := engine.JobSpec{In: "corpus:" + digest, OutFormat: "bin"}
	id1, id2 := postJob(t, ts, spec), postJob(t, ts, spec)
	j1, j2 := waitDone(t, ts, id1), waitDone(t, ts, id2)
	b1, b2 := getBody(t, ts.URL+j1.ResultURL), getBody(t, ts.URL+j2.ResultURL)
	if len(b1) == 0 || !bytes.Equal(b1, b2) {
		t.Fatalf("racing jobs served %d and %d bytes that differ", len(b1), len(b2))
	}
	if j1.Report == nil || j2.Report == nil || j1.Report.Requests != 20_000 || j2.Report.Requests != 20_000 {
		t.Fatalf("racing jobs' reports: %+v / %+v", j1.Report, j2.Report)
	}
	files, err := os.ReadDir(filepath.Join(dataDir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	var results []string
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".json") {
			results = append(results, f.Name())
		}
	}
	if len(results) != 1 {
		t.Fatalf("result cache holds %v, want exactly one file", results)
	}
	if n := tmpEntryCount(t, dataDir); n != 0 {
		t.Fatalf("%d staged files left behind by the losing writer", n)
	}
	h := health(t, ts)
	if h["executed"].(float64)+h["cache_hits"].(float64) != 2 {
		t.Fatalf("outcomes: executed=%v cache_hits=%v, want two in total", h["executed"], h["cache_hits"])
	}
}
