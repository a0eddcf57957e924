package infer

// The model golden pins the fitted model bit for bit: every coefficient
// of every workload family, printed with %x, at two trace sizes and
// both ΔTintt estimators. A change to the fit kernel (sorting, group
// scheduling, classification) must leave this file untouched; a change
// that moves the model on purpose regenerates it with:
//
//	go test ./internal/infer -run TestModelGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/models.txt")

// goldenOps are the two trace sizes: one where most groups sit near
// MinGroupSamples and the 512-knot thinning rarely applies, one where
// the large groups are thinned.
var goldenOps = []int{4000, 50000}

// renderModelGolden fits every family. It cycles GOMAXPROCS through 1–4
// across the families, so the group examinations run on one to four
// goroutines: a model that depended on their schedule could not match
// the golden at every count.
func renderModelGolden(t *testing.T) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var buf bytes.Buffer
	for i, p := range workload.Profiles() {
		runtime.GOMAXPROCS(1 + i%4)
		for _, ops := range goldenOps {
			app := workload.Generate(p, workload.GenOptions{Ops: ops, Seed: workload.TraceSeed(p.Name, 0)})
			tr := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
			c := NewStreamClassifier()
			c.AddBatch(tr.Requests)
			for _, diff := range []bool{false, true} {
				fmt.Fprintf(&buf, "%s ops=%d cdfdiff=%v", p.Name, ops, diff)
				m, err := c.Estimate(p.Name, EstimateOptions{DeltaFromCDFDiff: diff})
				if err != nil {
					fmt.Fprintf(&buf, " err=%v\n", err)
					continue
				}
				fmt.Fprintf(&buf, " beta=%x eta=%x tcdelR=%x tcdelW=%x tmovd=%x flatR=%x flatW=%x read=%v write=%v\n",
					m.BetaMicros, m.EtaMicros, m.TcdelReadMicros, m.TcdelWriteMicros,
					m.TmovdMicros, m.FlatReadMicros, m.FlatWriteMicros, m.ReadSizes, m.WriteSizes)
			}
		}
	}
	return buf.Bytes()
}

// TestModelGolden fits every workload family and compares the models
// with the committed golden, line by line.
func TestModelGolden(t *testing.T) {
	got := renderModelGolden(t)
	path := filepath.Join("testdata", "golden", "models.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/infer -run TestModelGolden -update` to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("fitted model drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("fitted model drifted from %s: %d lines, want %d", path, len(gl), len(wl))
}
