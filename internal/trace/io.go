package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// The native CSV format is the repository's canonical interchange
// format, one request per line:
//
//	arrival_us,device,lba,sectors,op,latency_us,async
//
// arrival_us and latency_us are decimal microseconds (fractional
// allowed), op is R or W, async is 0/1. Lines beginning with '#' are
// comments; the writer emits a header comment carrying trace metadata.

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

// parseNativeFast parses one native CSV record in a single pass over
// the line, with no field slicing: the overwhelmingly common shape
// (plain decimal numbers, single-letter op, 0/1 async). ok=false
// means "not this shape" — the caller re-parses via splitComma +
// parseNativeLine, which accepts every form the format ever accepted
// (exponent floats, word ops) and produces the canonical error
// otherwise. The numeric conversions are bit-identical to the slow
// path: both funnel through floatFromDecimal under the same cutoffs.
func parseNativeFast(line []byte) (Request, bool) {
	var r Request
	p := 0
	arr, ok := scanMicrosField(line, &p)
	if !ok {
		return r, false
	}
	dev, ok := scanUintField(line, &p, 1<<32-1)
	if !ok {
		return r, false
	}
	lba, ok := scanUintField(line, &p, ^uint64(0))
	if !ok {
		return r, false
	}
	sec, ok := scanUintField(line, &p, 1<<32-1)
	if !ok {
		return r, false
	}
	if p+2 > len(line) || line[p+1] != ',' {
		return r, false
	}
	switch line[p] {
	case 'R', 'r':
		r.Op = Read
	case 'W', 'w':
		r.Op = Write
	default:
		// "0"/"1" op spellings collide with digits; let the slow path
		// disambiguate the rare traces that use them.
		return r, false
	}
	p += 2
	lat, ok := scanMicrosField(line, &p)
	if !ok {
		return r, false
	}
	if p+1 != len(line) {
		return r, false
	}
	switch line[p] {
	case '0':
	case '1':
		r.Async = true
	default:
		return r, false
	}
	r.Arrival = fromMicros(arr)
	r.Device = uint32(dev)
	r.LBA = lba
	r.Sectors = uint32(sec)
	r.Latency = fromMicros(lat)
	return r, true
}

// scanMicrosField scans a plain decimal float at *p terminated by ','
// and advances *p past the comma. ok=false leaves the caller to the
// slow path.
func scanMicrosField(line []byte, p *int) (float64, bool) {
	i := *p
	neg := false
	if i < len(line) && (line[i] == '-' || line[i] == '+') {
		neg = line[i] == '-'
		i++
	}
	var (
		mant   uint64
		exp    int
		digits int
	)
	for ; i < len(line); i++ {
		d := uint64(line[i] - '0')
		if d > 9 {
			break
		}
		if mant >= mantCutoff {
			return 0, false
		}
		mant = mant*10 + d
		digits++
	}
	if i < len(line) && line[i] == '.' {
		for i++; i < len(line); i++ {
			d := uint64(line[i] - '0')
			if d > 9 {
				break
			}
			if mant >= mantCutoff {
				return 0, false
			}
			mant = mant*10 + d
			digits++
			exp--
		}
	}
	if digits == 0 || exp < -22 || i >= len(line) || line[i] != ',' {
		return 0, false
	}
	*p = i + 1
	return floatFromDecimal(mant, exp, neg), true
}

// scanUintField scans a decimal unsigned integer at *p terminated by
// ',' and advances *p past the comma.
func scanUintField(line []byte, p *int, maxVal uint64) (uint64, bool) {
	i := *p
	var v uint64
	digits := 0
	for ; i < len(line); i++ {
		d := uint64(line[i] - '0')
		if d > 9 {
			break
		}
		if v > maxVal/10 {
			return 0, false
		}
		if v = v*10 + d; v > maxVal {
			return 0, false
		}
		digits++
	}
	if digits == 0 || i >= len(line) || line[i] != ',' {
		return 0, false
	}
	*p = i + 1
	return v, true
}

// parseNativeLine parses the 7 comma-split fields of one native CSV
// record. Fields alias the decoder's line buffer; nothing escapes.
func parseNativeLine(f [][]byte) (Request, error) {
	var r Request
	arr, err := parseFloatBytes(f[0])
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
	lat, err := parseFloatBytes(f[5])
	if err != nil {
		return r, fmt.Errorf("latency: %w", err)
	}
	async, err := parseUintBytes(f[6], 1)
	if err != nil {
		return r, fmt.Errorf("async: %w", err)
	}
	r = Request{
		Arrival: fromMicros(arr),
		Device:  uint32(dev),
		LBA:     lba,
		Sectors: uint32(sec),
		Op:      op,
		Latency: fromMicros(lat),
		Async:   async == 1,
	}
	return r, nil
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func fromMicros(us float64) time.Duration {
	return time.Duration(us * float64(time.Microsecond))
}

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
