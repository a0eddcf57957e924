package trace

// Content sniffing: every supported input format is recognizable from
// its leading bytes — the binary format by its magic, the text formats
// by the field layout of the first data record — so tools can accept
// "-informat auto" and the corpus store can ingest uploads without a
// format hint. Sniffs is the only place the name "auto" is spelled;
// ResolveFormat and ResolveFile are the only places it is resolved.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
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
// data records are decided by the first line that parses under exactly
// the field layout one decoder expects. Degenerate all-numeric lines
// that would parse under more than one layout resolve in the codec
// table's order: native CSV, then MSRC, then SPC.
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
		f := strings.Split(s, ",")
		for i := range codecs {
			if c := &codecs[i]; c.sniff != nil && c.sniff(f) {
				return c.name, nil
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

// isNativeLine reports whether f is a native CSV record
// (arrival_us,device,lba,sectors,op,latency_us,async). It funnels
// through the decoder's own parser so the sniff cannot drift from
// what CSVDecoder actually accepts.
func isNativeLine(f []string) bool {
	if len(f) != 7 {
		return false
	}
	var fb [7][]byte
	for i, s := range f {
		fb[i] = []byte(s)
	}
	_, err := parseNativeLine(fb[:])
	return err == nil
}

// isMSRCLine reports whether f is an MSRC record
// (timestamp,host,disk,op,offset,size,response): the same checks
// MSRCDecoder.Next applies, without building the request.
func isMSRCLine(f []string) bool {
	if len(f) != 7 {
		return false
	}
	if _, err := strconv.ParseInt(f[0], 10, 64); err != nil {
		return false
	}
	if _, err := strconv.ParseUint(f[2], 10, 32); err != nil {
		return false
	}
	if _, err := ParseOp(f[3]); err != nil {
		return false
	}
	if _, err := strconv.ParseUint(f[4], 10, 64); err != nil {
		return false
	}
	if _, err := strconv.ParseUint(f[5], 10, 64); err != nil {
		return false
	}
	_, err := strconv.ParseInt(f[6], 10, 64)
	return err == nil
}

// isSPCLine reports whether f is an SPC-1 record
// (asu,lba,size,op,timestamp[,...]); SPCDecoder trims each field, so
// the sniff does too.
func isSPCLine(f []string) bool {
	if len(f) < 5 {
		return false
	}
	if _, err := strconv.ParseUint(strings.TrimSpace(f[0]), 10, 32); err != nil {
		return false
	}
	if _, err := strconv.ParseUint(strings.TrimSpace(f[1]), 10, 64); err != nil {
		return false
	}
	if _, err := strconv.ParseUint(strings.TrimSpace(f[2]), 10, 64); err != nil {
		return false
	}
	if _, err := ParseOp(strings.TrimSpace(f[3])); err != nil {
		return false
	}
	_, err := strconv.ParseFloat(strings.TrimSpace(f[4]), 64)
	return err == nil
}

// clip bounds s for error messages.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
