package engine

import (
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/obs"
)

// reconstructWithTracer runs one traced reconstruction and returns
// the exported span tree.
func reconstructWithTracer(t *testing.T, cfg Config) *obs.JobTrace {
	t.Helper()
	tr := genOld(t, "MSNFS", 4000, true)
	tracer := obs.NewTracer("traced-job", 0, obs.TraceContext{})
	cfg.Trace = tracer
	out, _, err := New(cfg).Reconstruct(tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != tr.Len() {
		t.Fatalf("reconstructed %d of %d requests", out.Len(), tr.Len())
	}
	tracer.Finish()
	return tracer.Snapshot()
}

// verifySpanTree checks the invariants every run must produce: the
// root span covers every other span, exactly one stream span hangs off
// the root, the plan span hangs off the stream span, and the sampled
// epoch spans beside it carry their index plus the executor's
// per-stage children.
func verifySpanTree(t *testing.T, jt *obs.JobTrace, wantEpochChildren []string) {
	t.Helper()
	if len(jt.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	root := jt.Spans[0]
	if root.Parent != "" {
		t.Fatalf("first span is not the root: %+v", root)
	}
	children := map[string][]obs.SpanOut{}
	for _, s := range jt.Spans[1:] {
		if s.StartNS < root.StartNS || s.EndNS > root.EndNS {
			t.Fatalf("span %s [%d,%d] escapes the root [%d,%d]",
				s.Name, s.StartNS, s.EndNS, root.StartNS, root.EndNS)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}

	var streams []obs.SpanOut
	for _, s := range children[root.ID] {
		if s.Name == "stream" {
			streams = append(streams, s)
		}
	}
	if len(streams) != 1 {
		t.Fatalf("found %d stream spans under the root, want 1", len(streams))
	}
	var plan, epochs []obs.SpanOut
	for _, s := range children[streams[0].ID] {
		switch s.Name {
		case "plan":
			plan = append(plan, s)
		case "epoch":
			epochs = append(epochs, s)
		}
	}
	if len(plan) != 1 {
		t.Fatalf("found %d plan spans under the stream span, want 1", len(plan))
	}
	if _, ok := plan[0].Attrs["token_wait_ns"]; !ok {
		t.Fatalf("plan span missing token_wait_ns attr: %+v", plan[0])
	}
	if len(epochs) < 2 {
		t.Fatalf("found %d epoch spans, want several (small-shard config)", len(epochs))
	}
	for _, ep := range epochs {
		if ep.Attrs["requests"] <= 0 {
			t.Fatalf("epoch span missing request count: %+v", ep)
		}
		if ep.Duration() <= 0 {
			t.Fatalf("epoch span has no duration: %+v", ep)
		}
		var names []string
		for _, c := range children[ep.ID] {
			names = append(names, c.Name)
			if c.StartNS < ep.StartNS || c.EndNS > ep.EndNS {
				t.Fatalf("stage %s [%d,%d] escapes its epoch [%d,%d]",
					c.Name, c.StartNS, c.EndNS, ep.StartNS, ep.EndNS)
			}
		}
		sort.Strings(names)
		want := append([]string(nil), wantEpochChildren...)
		sort.Strings(want)
		if len(names) != len(want) {
			t.Fatalf("epoch %d children %v, want %v", ep.Attrs["epoch"], names, want)
		}
		for i := range names {
			if names[i] != want[i] {
				t.Fatalf("epoch %d children %v, want %v", ep.Attrs["epoch"], names, want)
			}
		}
	}
	// Epoch indexes are distinct and ascending (stride sampling).
	for i := 1; i < len(epochs); i++ {
		if epochs[i].Attrs["epoch"] <= epochs[i-1].Attrs["epoch"] {
			t.Fatalf("epoch indexes not ascending: %+v", epochs)
		}
	}
}

// Both kinds of target run the same graph, so their epochs carry the
// same four stage children: the two worker stages around the serial
// middle stage, then the merge.
var epochStages = []string{"decompose", "service", "emulate", "merge"}

// TestTraceSpanTreeShardSafe covers the array, where the middle stage
// is only the chain.
func TestTraceSpanTreeShardSafe(t *testing.T) {
	jt := reconstructWithTracer(t, testConfig(4))
	verifySpanTree(t, jt, epochStages)
}

// TestTraceSpanTreePipelined covers the HDD, where the middle stage is
// the device pass.
func TestTraceSpanTreePipelined(t *testing.T) {
	cfg := testConfig(4)
	cfg.Device = func() device.Device { return device.NewHDD(device.DefaultHDDConfig()) }
	jt := reconstructWithTracer(t, cfg)
	verifySpanTree(t, jt, epochStages)
}
