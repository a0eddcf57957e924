package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestFIOLogRoundTrip(t *testing.T) {
	orig := &Trace{Name: "f", Requests: []Request{
		{Arrival: 0, LBA: 8, Sectors: 8, Op: Read},
		{Arrival: 1500 * time.Microsecond, LBA: 64, Sectors: 16, Op: Write},
		{Arrival: 1500 * time.Microsecond, LBA: 128, Sectors: 8, Op: Read}, // zero gap: no wait line
	}}
	var buf bytes.Buffer
	if err := WriteFIOLog(&buf, orig, "/dev/sdb"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "fio version 2 iolog\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "/dev/sdb wait 1500") {
		t.Fatalf("missing wait line:\n%s", out)
	}
	if !strings.Contains(out, "/dev/sdb write 32768 8192") {
		t.Fatalf("missing write line (offset 64*512, len 16*512):\n%s", out)
	}
	got, err := ReadFIOLog(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("len = %d", got.Len())
	}
	for i := range orig.Requests {
		o, g := orig.Requests[i], got.Requests[i]
		if g.LBA != o.LBA || g.Sectors != o.Sectors || g.Op != o.Op || g.Arrival != o.Arrival {
			t.Fatalf("request %d: %+v vs %+v", i, g, o)
		}
	}
}

func TestFIOLogWaitAccumulates(t *testing.T) {
	in := strings.Join([]string{
		"fio version 2 iolog",
		"/dev/x add",
		"/dev/x open",
		"/dev/x read 0 4096",
		"/dev/x wait 100",
		"/dev/x wait 200",
		"/dev/x read 4096 4096",
		"/dev/x close",
	}, "\n")
	got, err := ReadFIOLog(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Requests[1].Arrival != 300*time.Microsecond {
		t.Fatalf("arrival = %v", got.Requests[1].Arrival)
	}
}

func TestFIOLogErrors(t *testing.T) {
	bad := []string{
		"/dev/x wait",        // short wait
		"/dev/x wait abc",    // bad wait
		"/dev/x read 0",      // short io
		"/dev/x read x 4096", // bad offset
		"/dev/x write 0 x",   // bad length
	}
	for _, c := range bad {
		if _, err := ReadFIOLog(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
	// Unknown actions are skipped, not errors (fio emits trims etc).
	if tr, err := ReadFIOLog(strings.NewReader("/dev/x trim 0 4096")); err != nil || tr.Len() != 0 {
		t.Fatalf("trim handling: %v %d", err, tr.Len())
	}
}

func TestWriteFIOJob(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFIOJob(&buf, "n", "trace.log", "/dev/nvme0n1"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"[replay]", "read_iolog=trace.log", "filename=/dev/nvme0n1", `"n"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
