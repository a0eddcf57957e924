package core

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestPipelineInvariantsAcrossCorpus runs the full reconstruction on
// one small trace per workload family and checks the invariants that
// must hold regardless of workload shape.
func TestPipelineInvariantsAcrossCorpus(t *testing.T) {
	for _, p := range workload.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			old := workload.Collect(p, workload.GenOptions{Ops: 800, Seed: workload.TraceSeed(p.Name, 0)}, device.NewHDD(device.DefaultHDDConfig())).Trace
			got, rep, err := Reconstruct(old, device.NewArray(device.DefaultArrayConfig()), Options{})
			if err != nil {
				t.Fatal(err)
			}
			// 1. Instruction identity: count, order of content fields.
			if got.Len() != old.Len() {
				t.Fatalf("request count %d != %d", got.Len(), old.Len())
			}
			for i := range got.Requests {
				g, o := got.Requests[i], old.Requests[i]
				if g.LBA != o.LBA || g.Sectors != o.Sectors || g.Op != o.Op || g.Device != o.Device {
					t.Fatalf("instruction %d identity lost", i)
				}
			}
			// 2. Monotone arrivals, valid trace.
			if err := got.Validate(); err != nil {
				t.Fatalf("output invalid: %v", err)
			}
			// 3. Idle accounting: report totals match the per-entry data.
			var total time.Duration
			count := 0
			for _, d := range rep.Idle {
				if d > 0 {
					total += d
					count++
				}
			}
			if total != rep.IdleTotal || count != rep.IdleCount {
				t.Fatalf("idle accounting mismatch: %v/%d vs %v/%d",
					total, count, rep.IdleTotal, rep.IdleCount)
			}
			// 4. Output duration includes at least the injected idle.
			if got.Duration() < rep.IdleTotal/2 {
				t.Fatalf("duration %v lost idle mass %v", got.Duration(), rep.IdleTotal)
			}
			// 5. Reconstruction is deterministic.
			got2, _, err := Reconstruct(old, device.NewArray(device.DefaultArrayConfig()), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.Requests {
				if got.Requests[i] != got2.Requests[i] {
					t.Fatalf("nondeterministic at %d", i)
				}
			}
		})
	}
}

// TestPostProcessOnlyRemovesTime verifies the pass's contract on a
// spectrum of workloads: arrivals never move later, never reorder.
func TestPostProcessOnlyRemovesTime(t *testing.T) {
	for _, name := range []string{"Exchange", "homes", "prxy"} {
		p, ok := workload.Lookup(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		app := workload.Generate(p, workload.GenOptions{Ops: 1500, Seed: 77})
		old := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
		old.TsdevKnown = p.TsdevKnown
		target := device.NewArray(device.DefaultArrayConfig())
		dyn, _, err := Reconstruct(old, target, Options{SkipPostProcess: true})
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := Reconstruct(old, target, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range full.Requests {
			if full.Requests[i].Arrival > dyn.Requests[i].Arrival {
				t.Fatalf("%s: post-processing moved instruction %d later", name, i)
			}
		}
	}
}

// TestReconstructOntoDifferentTargets: a slower target yields a trace
// at least as long as a faster one (service times only grow).
func TestReconstructTargetOrdering(t *testing.T) {
	p, _ := workload.Lookup("CFS")
	app := workload.Generate(p, workload.GenOptions{Ops: 1500, Seed: 5})
	old := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	old.TsdevKnown = true

	fast, _, err := Reconstruct(old, &device.Null{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := Reconstruct(old, device.NewHDD(device.DefaultHDDConfig()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Duration() <= fast.Duration() {
		t.Fatalf("HDD target (%v) should be slower than null target (%v)",
			slow.Duration(), fast.Duration())
	}
}

// recordedDevice serves request i, one at a time, in the latency the
// capture recorded for it (fallback when it recorded none).
type recordedDevice struct {
	lat      []time.Duration
	fallback time.Duration
	next     int
	busy     time.Duration
}

func (r *recordedDevice) Name() string { return "recorded" }
func (r *recordedDevice) Reset()       { r.next, r.busy = 0, 0 }

func (r *recordedDevice) Submit(at time.Duration, _ trace.Request) device.Result {
	lat := r.fallback
	if r.next < len(r.lat) && r.lat[r.next] > 0 {
		lat = r.lat[r.next]
	}
	r.next++
	r.busy = max(r.busy, at) + lat
	return device.Result{Start: r.busy - lat, Complete: r.busy}
}

// TestReconstructRecordedDevice: replaying onto a device that serves
// each request in the old trace's own latency reproduces the old
// trace's service structure — the identity-target sanity check.
func TestReconstructRecordedDeviceIdentity(t *testing.T) {
	p, _ := workload.Lookup("CFS")
	app := workload.Generate(p, workload.GenOptions{Ops: 1200, Seed: 6})
	old := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	old.TsdevKnown = true

	rec := &recordedDevice{fallback: time.Millisecond}
	for _, r := range old.Requests {
		rec.lat = append(rec.lat, r.Latency)
	}
	got, rep, err := Reconstruct(old, rec, Options{SkipPostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	// Emulated duration ~= Σ latency + Σ idle: within 20% of the old
	// trace's span (async timing differs, everything else matches).
	var latSum time.Duration
	for _, r := range old.Requests {
		latSum += r.Latency
	}
	want := latSum + rep.IdleTotal
	ratio := float64(got.Duration()) / float64(want)
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("identity replay duration %v vs expected %v (ratio %.2f)",
			got.Duration(), want, ratio)
	}
}
