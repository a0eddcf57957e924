package ftl_test

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/workload"
)

// BenchmarkFTLDeviceSubmit is the benchmark's device.submit_ns_per_req
// row for cold-ftl-bin without the daemon around it: the same MSNFS
// 100k trace (generated and executed on the old HDD the way
// benchmark/workloads.go builds its inputs), each request issued at its
// arrival or the previous completion, on a device of the engine's
// default ftl geometry, Reset per op as a job starts one fresh.
func BenchmarkFTLDeviceSubmit(b *testing.B) {
	p, ok := workload.Lookup("MSNFS")
	if !ok {
		b.Fatal("no MSNFS profile")
	}
	const family = "benchmark/MSNFS/100000"
	app := workload.Generate(p, workload.GenOptions{Ops: 100_000, Seed: workload.TraceSeed(family, 0)})
	reqs := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace.Requests
	d := device.NewFTLDevice(device.DefaultFTLDeviceConfig())

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset()
		var now time.Duration
		for _, r := range reqs {
			now = d.Submit(max(now, r.Arrival), r).Complete
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
}
