package trace

// Content sniffing: every supported input format is recognizable from
// its leading bytes — the binary format by its magic, the text formats
// by which decoder's grammar accepts the first data record — so tools
// can accept "-informat auto" and the corpus store can ingest uploads
// without a format hint. Sniffs is the only place the name "auto" is spelled;
// ResolveFormat and ResolveFile are the only places it is resolved.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
)

// SniffLen is the longest prefix DetectFormat ever needs: enough to
// cover leading comments plus one complete data record in any
// supported text format.
const SniffLen = 64 << 10

// DetectFormat inspects the leading bytes of a trace (the first
// SniffLen bytes, or the whole input when shorter) and returns the
// name of the input format they are in.
//
// The binary magic and the native header comment are unambiguous; bare
// data records are decided by the first data line, which each text
// row's decoder is asked to parse with its line function, the grammar
// it decodes with. Degenerate all-numeric lines that more than one
// grammar accepts resolve in the codec table's order: native CSV, then
// MSRC, then SPC.
func DetectFormat(head []byte) (string, error) {
	if len(head) >= len(binaryMagic) && bytes.Equal(head[:len(binaryMagic)], binaryMagic[:]) {
		return "bin", nil
	}
	rest := head
	for len(rest) > 0 {
		line, tail, complete := cutLine(rest)
		rest = tail
		s := strings.TrimSpace(string(line))
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, "#") {
			// The native metadata header identifies the format before
			// any data; other comments are format-neutral.
			if strings.HasPrefix(s, "# tracetracker ") {
				return "csv", nil
			}
			continue
		}
		if !complete && len(head) >= SniffLen {
			// The record was cut by the sniff window, not by EOF —
			// don't guess from a truncated line.
			break
		}
		var r Request
		for i := range codecs {
			if c := &codecs[i]; c.text {
				if ok, _ := c.decode(source{}).(textDecoder).line(line, &r); ok {
					return c.name, nil
				}
			}
		}
		return "", fmt.Errorf("trace: unrecognized trace data %q", clip(s, 80))
	}
	return "", fmt.Errorf("trace: cannot detect format: no data record in the first %d bytes", SniffLen)
}

// Sniffs reports whether a format name asks for content sniffing.
func Sniffs(format string) bool { return format == "auto" || format == "" }

// ResolveFormat is the one resolver of the format name "auto" (or "")
// over a stream: any other name comes back unchanged with r. For
// "auto" it reads at most SniffLen bytes, detects, and returns a reader
// that replays the consumed prefix followed by the rest of r.
func ResolveFormat(format string, r io.Reader) (string, io.Reader, error) {
	if !Sniffs(format) {
		return format, r, nil
	}
	head := make([]byte, SniffLen)
	n, err := io.ReadFull(r, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return "", nil, err
	}
	head = head[:n]
	if format, err = DetectFormat(head); err != nil {
		return "", nil, err
	}
	return format, io.MultiReader(bytes.NewReader(head), r), nil
}

// ResolveFile is ResolveFormat for the file at path, which it opens
// only to sniff.
func ResolveFile(path, format string) (string, error) {
	if !Sniffs(format) {
		return format, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	format, _, err = ResolveFormat(format, f)
	return format, err
}

// cutLine splits off the first line of b; complete reports whether the
// line was terminated by a newline (false only for a trailing
// fragment).
func cutLine(b []byte) (line, tail []byte, complete bool) {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

// clip bounds s for error messages.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
