package trace

import (
	"bytes"
	"strings"
	"testing"
)

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
