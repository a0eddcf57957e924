package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const (
	msrcSample = `128166372003061629,web,0,Write,8192,4096,501
128166372002869395,web,0,Read,0,4096,1003
128166372013321843,web,1,Write,12288,8192,702
`
	spcSample = `0,20941264,8192,W,0.000000
0,20939840,8192,W,0.001020
1,3072,1024,R,0.000511
`
)

// TestDetectFormat detects each supported format from real encoder
// output or corpus-shaped samples.
func TestDetectFormat(t *testing.T) {
	var csvBuf, binBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, streamSample()); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&binBuf, streamSample()); err != nil {
		t.Fatal(err)
	}
	// A headerless native CSV body (hand-written data only).
	native := "12.500,0,100,8,R,90.000,0\n13.000,1,108,16,W,250.000,1\n"

	cases := []struct {
		name, want string
		head       []byte
	}{
		{"csv-header", "csv", csvBuf.Bytes()},
		{"csv-bare", "csv", []byte(native)},
		{"bin", "bin", binBuf.Bytes()},
		{"msrc", "msrc", []byte(msrcSample)},
		{"spc", "spc", []byte(spcSample)},
		{"spc-extra-fields", "spc", []byte("0,20941264,8192,W,0.000000,extra\n")},
		{"leading-comments", "msrc", []byte("# exported\n\n" + msrcSample)},
	}
	for _, c := range cases {
		got, err := DetectFormat(c.head)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: got %q want %q", c.name, got, c.want)
		}
	}
}

// TestDetectFormatErrors rejects undecidable input.
func TestDetectFormatErrors(t *testing.T) {
	for name, head := range map[string][]byte{
		"empty":        nil,
		"comments":     []byte("# nothing but comments\n"),
		"garbage":      []byte("hello,world\n"),
		"binary-noise": {0x7f, 'E', 'L', 'F', 0, 0, 0, 0},
	} {
		if got, err := DetectFormat(head); err == nil {
			t.Errorf("%s: detected %q, want error", name, got)
		}
	}
}

// TestSniffFormatReplaysBytes checks that decoding after a sniff sees
// the full stream, including inputs shorter and longer than the sniff
// window.
func TestSniffFormatReplaysBytes(t *testing.T) {
	orig := streamSample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	// Pad with trailing comment lines so the input exceeds SniffLen
	// and the decode must continue past the sniffed prefix.
	pad := strings.Repeat("# padding comment line to push the file past the sniff window\n", SniffLen/60+1)
	data := append(buf.Bytes(), []byte(pad)...)

	format, rd, err := ResolveFormat("auto", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if format != "csv" {
		t.Fatalf("format: %q", format)
	}
	got, err := ReadFormat(format, rd)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Requests, orig.Requests) {
		t.Fatal("sniffed decode lost or reordered requests")
	}
	if got.Meta() != orig.Meta() {
		t.Fatalf("sniffed decode meta: %+v", got.Meta())
	}
}

// TestDetectFile detects from a file head (ResolveFile).
func TestDetectFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(f, streamSample()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ResolveFile(path, "auto")
	if err != nil {
		t.Fatal(err)
	}
	if got != "bin" {
		t.Fatalf("got %q", got)
	}
	if _, err := ResolveFile(filepath.Join(dir, "missing"), "auto"); err == nil {
		t.Fatal("missing file: want error")
	}
}
