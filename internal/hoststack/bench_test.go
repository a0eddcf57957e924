package hoststack_test

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/hoststack"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkStackSubmit is the benchmark's device.submit_ns_per_req row
// for cold-host-bin without the daemon around it: the same MSNFS 30k
// trace (generated and executed on the old HDD the way
// benchmark/workloads.go builds its inputs) through a default stack
// over an HDD with the block log off, as an engine target runs it.
func BenchmarkStackSubmit(b *testing.B) {
	p, ok := workload.Lookup("MSNFS")
	if !ok {
		b.Fatal("no MSNFS profile")
	}
	const family = "benchmark/MSNFS/30000"
	app := workload.Generate(p, workload.GenOptions{Ops: 30_000, Seed: workload.TraceSeed(family, 0)})
	reqs := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace.Requests

	cfg := hoststack.DefaultConfig()
	cfg.NoBlockLog = true
	s := hoststack.New(cfg, device.NewHDD(device.DefaultHDDConfig()))
	pageSectors := uint64(cfg.PageKB) * 1024 / trace.SectorSize
	var pages uint64
	for _, r := range reqs {
		pages += (r.End()-1)/pageSectors - r.LBA/pageSectors + 1
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		var now time.Duration
		for _, r := range reqs {
			now = s.Submit(max(now, r.Arrival), r).Complete
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
	b.ReportMetric(float64(pages)/float64(len(reqs)), "pages/req")
}
