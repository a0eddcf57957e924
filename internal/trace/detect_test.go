package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"testing/iotest"
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

// TestSniffFormatReplaysBytes checks that a decode that sniffs its
// format (ReadFormat("auto")) sees the full stream: inputs shorter and
// longer than the sniff window, read whole or a byte at a time as a
// pipe may deliver them.
func TestSniffFormatReplaysBytes(t *testing.T) {
	orig := streamSample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	// Pad with trailing comment lines so the input exceeds SniffLen
	// and the decode must continue past the sniffed prefix.
	pad := strings.Repeat("# padding comment line to push the file past the sniff window\n", SniffLen/60+1)
	long := append(bytes.Clone(buf.Bytes()), pad...)
	for name, data := range map[string][]byte{"short": buf.Bytes(), "long": long} {
		for _, piecewise := range []bool{false, true} {
			var r io.Reader = bytes.NewReader(data)
			if piecewise {
				r = iotest.OneByteReader(r)
			}
			got, err := ReadFormat("auto", r)
			if err != nil {
				t.Fatalf("%s, piecewise %v: %v", name, piecewise, err)
			}
			if !reflect.DeepEqual(got.Requests, orig.Requests) {
				t.Fatalf("%s, piecewise %v: sniffed decode lost or reordered requests", name, piecewise)
			}
			if got.Meta() != orig.Meta() {
				t.Fatalf("%s, piecewise %v: sniffed decode meta: %+v", name, piecewise, got.Meta())
			}
		}
	}
}

// TestDetectFile resolves a file's format from its head (InputFile): a
// regular file is handed back by path, stdin is spooled to a temporary
// file that holds every byte and goes at done, and a missing file or a
// directory is an error.
func TestDetectFile(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	var data bytes.Buffer
	if err := WriteBinary(&data, streamSample()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "t.bin")
	if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	file, got, done, err := InputFile(path, "auto", nil, "detect-*")
	if err != nil {
		t.Fatal(err)
	}
	done()
	if file != path || got != "bin" {
		t.Fatalf("regular file: got %q as %q, want %q as bin", file, got, path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("done touched the regular file: %v", err)
	}

	file, got, done, err = InputFile("", "auto", bytes.NewReader(data.Bytes()), "detect-*")
	if err != nil {
		t.Fatal(err)
	}
	if spooled, err := os.ReadFile(file); err != nil || !bytes.Equal(spooled, data.Bytes()) || got != "bin" {
		t.Fatalf("stdin: spooled %d of %d bytes as %q, %v", len(spooled), data.Len(), got, err)
	}
	done()
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Fatalf("spool %s left after done: %v", file, err)
	}

	if _, _, _, err := InputFile(filepath.Join(dir, "missing"), "auto", nil, "detect-*"); err == nil {
		t.Fatal("missing file: want error")
	}
	if _, _, _, err := InputFile(dir, "csv", nil, "detect-*"); err == nil || !strings.Contains(err.Error(), "is a directory") {
		t.Fatalf("directory: %v, want an is-a-directory error", err)
	}
}

// fifoOf makes a FIFO in a test directory and writes data into it on a
// goroutine of its own once a reader opens it. wait reports the write's
// error; a reader that stops early makes it fail with EPIPE.
func fifoOf(t *testing.T, data []byte) (path string, wait func() error) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "fifo")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err == nil {
			_, err = f.Write(data)
			f.Close()
		}
		wrote <- err
	}()
	return path, func() error { return <-wrote }
}

// TestSniffFIFO: a FIFO gives each byte once, so a sniff that read its
// head apart from the decoder would lose it. OpenFileDecoder and
// FileMeta resolve "auto" over the decoder's own read buffer and return
// every record and the header's metadata; InputFile spools the FIFO
// whole.
func TestSniffFIFO(t *testing.T) {
	want := benchTrace(1000)
	var data bytes.Buffer
	if err := WriteCSV(&data, want); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"auto", "csv"} {
		path, wait := fifoOf(t, data.Bytes())
		dec, got, err := OpenFileDecoder(path, format)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := drain(dec)
		dec.Close()
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if got != "csv" || !reflect.DeepEqual(tr.Requests, want.Requests) || tr.Meta() != want.Meta() {
			t.Fatalf("%s: OpenFileDecoder read %d of 1000 records as %q, meta %+v", format, len(tr.Requests), got, tr.Meta())
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}

		path, wait = fifoOf(t, data.Bytes())
		m, err := FileMeta(path, format)
		if err != nil || m != want.Meta() {
			t.Fatalf("%s: FileMeta = %+v, %v; want %+v", format, m, err, want.Meta())
		}
		wait() // the probe stops after one record, so the writer may see EPIPE

		t.Setenv("TMPDIR", t.TempDir())
		path, wait = fifoOf(t, data.Bytes())
		file, got, done, err := InputFile(path, format, nil, "fifo-*")
		if err != nil {
			t.Fatal(err)
		}
		spooled, err := os.ReadFile(file)
		done()
		if err != nil || got != "csv" || file == path || !bytes.Equal(spooled, data.Bytes()) {
			t.Fatalf("%s: InputFile spooled %d of %d bytes to %q as %q, %v", format, len(spooled), data.Len(), file, got, err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
}
