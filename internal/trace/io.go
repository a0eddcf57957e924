package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// The native CSV format is the repository's canonical interchange
// format, one request per line:
//
//	arrival_us,device,lba,sectors,op,latency_us,async
//
// arrival_us and latency_us are decimal microseconds (fractional
// allowed), written as exact nanoseconds and read back exactly
// (scanFixed). Digits finer than 1 ns round to the nearest nanosecond,
// ties away from zero (0.0004 reads 0 ns, 0.0005 reads 1 ns), and a
// time outside time.Duration is an error. op is R or W, async is 0/1.
// Lines beginning with '#' are comments; the writer emits a header
// comment carrying trace metadata.

// WriteCSV writes t in the native CSV format.
func WriteCSV(w io.Writer, t *Trace) error {
	return EncodeTrace(NewCSVEncoder(w), t)
}

func parseHeaderComment(t *Trace, line string) {
	if !strings.HasPrefix(line, "# tracetracker ") {
		return
	}
	for _, kv := range strings.Fields(line[len("# tracetracker "):]) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		switch k {
		case "name":
			t.Name = v
		case "workload":
			t.Workload = v
		case "set":
			t.Set = v
		case "tsdev_known":
			t.TsdevKnown = v == "true"
		}
	}
}

// parseNativeFast parses the native CSV record at the start of b into
// *r in a single pass, with no field slicing: the overwhelmingly common
// shape (plain decimal numbers, single-letter op, 0/1 async). It
// returns the length of the record text, through the async flag, and
// 0 when b does not start with this shape; the caller checks what
// follows — the end of the line, or its '\n' in a read buffer. A line
// it does not take is re-parsed via splitComma + parseNativeLine, which
// accepts every form the format ever accepted (exponent floats, word
// ops) and produces the canonical error otherwise; both read a time
// with scanFixed. A record it takes starts with a digit, sign or '.'
// and ends in '0' or '1', so trimming its line first would change
// nothing. *r is written only when it returns non-zero.
func parseNativeFast(b []byte, r *Request) int {
	arr, p, err := scanFixed(b, microPlaces)
	if err != nil || p >= len(b) || b[p] != ',' {
		return 0
	}
	p++
	// Device, LBA and sectors: plain decimal runs of at most 19 digits,
	// which the accumulator holds without wrapping (10^19 < 2^64), so
	// the digit loop carries no overflow check. A longer run (leading
	// zeros, or an overflow) is the slow path's.
	var u [3]uint64
	for f := range u {
		i := p
		var v uint64
		for ; i < len(b); i++ {
			d := uint64(b[i] - '0')
			if d > 9 {
				break
			}
			v = v*10 + d
		}
		if i == p || i-p > 19 || i >= len(b) || b[i] != ',' {
			return 0
		}
		u[f] = v
		p = i + 1
	}
	dev, lba, sec := u[0], u[1], u[2]
	if dev > math.MaxUint32 || sec > math.MaxUint32 {
		return 0
	}
	if p+2 > len(b) || b[p+1] != ',' {
		return 0
	}
	var op Op
	switch b[p] {
	case 'R', 'r':
		op = Read
	case 'W', 'w':
		op = Write
	default:
		// "0"/"1" op spellings collide with digits; let the slow path
		// disambiguate the rare traces that use them.
		return 0
	}
	lat, n, err := scanFixed(b[p+2:], microPlaces)
	if p += 2 + n; err != nil || p+1 >= len(b) || b[p] != ',' || b[p+1] != '0' && b[p+1] != '1' {
		return 0
	}
	*r = Request{
		Arrival: arr,
		Device:  uint32(dev),
		LBA:     lba,
		Sectors: uint32(sec),
		Op:      op,
		Latency: lat,
		Async:   b[p+1] == '1',
	}
	return p + 2
}

// parseNativeLine parses the 7 comma-split fields of one native CSV
// record. Fields alias the decoder's line buffer; nothing escapes.
func parseNativeLine(f [][]byte) (Request, error) {
	var r Request
	arr, err := parseFixed(f[0], microPlaces)
	if err != nil {
		return r, fmt.Errorf("arrival: %w", err)
	}
	dev, err := parseUintBytes(f[1], 32)
	if err != nil {
		return r, fmt.Errorf("device: %w", err)
	}
	lba, err := parseUintBytes(f[2], 64)
	if err != nil {
		return r, fmt.Errorf("lba: %w", err)
	}
	sec, err := parseUintBytes(f[3], 32)
	if err != nil {
		return r, fmt.Errorf("sectors: %w", err)
	}
	op, err := parseOpBytes(f[4])
	if err != nil {
		return r, err
	}
	lat, err := parseFixed(f[5], microPlaces)
	if err != nil {
		return r, fmt.Errorf("latency: %w", err)
	}
	async, err := parseUintBytes(f[6], 1)
	if err != nil {
		return r, fmt.Errorf("async: %w", err)
	}
	r = Request{
		Arrival: arr,
		Device:  uint32(dev),
		LBA:     lba,
		Sectors: uint32(sec),
		Op:      op,
		Latency: lat,
		Async:   async == 1,
	}
	return r, nil
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// binaryMagic identifies the compact binary trace format.
var binaryMagic = [4]byte{'T', 'T', 'R', '1'}

// WriteBinary writes t in the compact binary format: a magic header,
// metadata strings, the request count, then fixed-width little-endian
// request records. The format is ~3x smaller than CSV and much faster
// to parse, which matters for the 577-trace corpus sweeps. A metadata
// string over 65,535 bytes does not fit the header and is an error.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if err := writeBinaryHeader(bw, t.Meta(), uint64(len(t.Requests))); err != nil {
		return err
	}
	var rec [binRecordLen]byte
	for _, r := range t.Requests {
		if err := writeBinaryRecord(bw, &rec, r); err != nil {
			return err
		}
	}
	return bw.Flush()
}
