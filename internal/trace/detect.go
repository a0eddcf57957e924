package trace

// Content sniffing: every supported input format is recognizable from
// its leading bytes — the binary format by its magic, the text formats
// by which decoder's grammar accepts the first data record — so tools
// can accept "-informat auto" and the corpus store can ingest uploads
// without a format hint. Sniffs is the only place the name "auto" is
// spelled, and ResolveFormat the only place it is resolved: over bytes
// the caller has already read (a decoder's read buffer, peeked, or an
// upload's first chunk), so no input is read twice to learn its format.

import (
	"bufio"
	"bytes"
	"cmp"
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
		line, tail, complete := bytes.Cut(rest, []byte("\n"))
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

// ResolveFormat is the one resolver of the format name "auto" (or ""):
// any other name comes back unchanged. "auto" is detected from head,
// the input's leading bytes, of which it looks at SniffLen at most.
func ResolveFormat(format string, head []byte) (string, error) {
	if !Sniffs(format) {
		return format, nil
	}
	return DetectFormat(head[:min(len(head), SniffLen)])
}

// resolveHead is ResolveFormat over the head of br, which it peeks
// without consuming: the decoder that reads br next sees every byte.
func resolveHead(format string, br *bufio.Reader) (string, error) {
	if !Sniffs(format) {
		return format, nil
	}
	head, err := br.Peek(SniffLen)
	if err != nil && err != io.EOF {
		return "", err
	}
	return ResolveFormat(format, head)
}

// InputFile gives a command its input as a regular file, to open by
// path and read twice: the file at path, or a temporary copy, named
// after pattern (as os.CreateTemp takes it), of stdin (path "") or of
// a path that is not a regular file (a pipe). done removes the copy.
// The format comes back concrete, sniffed as the input is read.
func InputFile(path, format string, stdin io.Reader, pattern string) (file, resolved string, done func(), err error) {
	src, regular := stdin, false
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return "", "", nil, err
		}
		defer f.Close()
		st, err := f.Stat()
		if err == nil && st.IsDir() {
			err = fmt.Errorf("read %s: is a directory", path)
		}
		if err != nil {
			return "", "", nil, err
		}
		src, regular = f, st.Mode().IsRegular()
	}
	br := borrowReader(src)
	defer returnReader(br)
	if format, err = resolveHead(format, br); err != nil {
		return "", "", nil, err
	}
	if regular {
		return path, format, func() {}, nil
	}
	tmp, err := os.CreateTemp("", pattern)
	if err != nil {
		return "", "", nil, err
	}
	_, err = br.WriteTo(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", "", nil, fmt.Errorf("spooling %s: %w", cmp.Or(path, "stdin"), err)
	}
	return tmp.Name(), format, func() { os.Remove(tmp.Name()) }, nil
}

// clip bounds s for error messages.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
