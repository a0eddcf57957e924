package trace

// Low-level scanning and formatting primitives for the text codecs.
// The hot path never converts record bytes to strings: lines are
// yielded as slices into the read buffer, fields alias the line, and
// the numeric parsers work on bytes with a strconv fallback that is
// only taken on malformed or exotic input (where its allocation buys
// the canonical error message, or the full parsing generality).

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"time"
)

// maxLineLen bounds a single text line, like the bufio.Scanner limit
// the codecs used before: a pathological unterminated line must not
// grow the scratch buffer without bound.
const maxLineLen = 1 << 20

// source is what a sequential codec decodes out of: its read buffer
// and, for a decoder OpenFileDecoder built, the file under it. The text
// codecs scan it line by line (nextLine).
type source struct {
	br *bufio.Reader
	// file is the input OpenFileDecoder opened; br is then borrowed
	// (borrowReader) and goes back when the decoder is closed.
	file    io.Closer
	closed  bool
	scratch []byte // nextLine's assembly buffer for over-long lines
}

// Close implements Decoder.
func (s *source) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.file != nil {
		returnReader(s.br)
		s.file.Close()
	}
}

// readBufLen is the size of the read buffer every decoder scans its
// input out of, lines and binary records alike.
const readBufLen = 128 << 10

func newReadBuffer(r io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(r, readBufLen)
}

// nextLine returns the next line without its '\n' terminator, or
// io.EOF when the input is exhausted. The slice stays valid until the
// next call: a line that fits the read buffer is a view into it (zero
// copy), a longer one is assembled in a reusable scratch buffer.
func (s *source) nextLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == nil {
		return line[:len(line)-1], nil
	}
	if err == io.EOF {
		if len(line) == 0 {
			return nil, io.EOF
		}
		return line, nil // final unterminated line
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	s.scratch = append(s.scratch[:0], line...)
	for {
		line, err = s.br.ReadSlice('\n')
		s.scratch = append(s.scratch, line...)
		if len(s.scratch) > maxLineLen {
			return nil, fmt.Errorf("trace: line longer than %d bytes", maxLineLen)
		}
		switch err {
		case nil:
			return s.scratch[:len(s.scratch)-1], nil
		case io.EOF:
			return s.scratch, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return nil, err
		}
	}
}

// splitComma splits line at commas into dst (fields alias line) and
// returns the total field count, which may exceed len(dst); excess
// fields are counted but not stored. A plain byte loop beats repeated
// bytes.IndexByte calls at trace-field widths.
func splitComma(dst [][]byte, line []byte) int {
	n := 0
	start := 0
	for i := 0; i < len(line); i++ {
		if line[i] == ',' {
			if n < len(dst) {
				dst[n] = line[start:i]
			}
			n++
			start = i + 1
		}
	}
	if n < len(dst) {
		dst[n] = line[start:]
	}
	n++
	return n
}

// parseUintBytes is strconv.ParseUint(string(b), 10, bits) without the
// string conversion on the digits-only fast path.
func parseUintBytes(b []byte, bits int) (uint64, error) {
	if len(b) == 0 {
		return strconv.ParseUint("", 10, bits)
	}
	maxVal := uint64(1)<<uint(bits) - 1
	var v uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || v > (maxVal-d)/10 {
			// Non-digit, sign, or v*10 + d past maxVal: strconv
			// produces the canonical NumError (syntax or range).
			return strconv.ParseUint(string(b), 10, bits)
		}
		// The test above is exact, and v*10 + d cannot wrap, whenever
		// d <= maxVal; below 4 bits a digit can exceed maxVal, so
		// maxVal-d wraps and this check catches it instead.
		if v = v*10 + d; v > maxVal {
			return strconv.ParseUint(string(b), 10, bits)
		}
	}
	return v, nil
}

// parseIntBytes is strconv.ParseInt(string(b), 10, bits) with a
// digits-only fast path; signed or malformed input falls back.
func parseIntBytes(b []byte, bits int) (int64, error) {
	if len(b) == 0 || b[0] == '-' || b[0] == '+' {
		return strconv.ParseInt(string(b), 10, bits)
	}
	v, err := parseUintBytes(b, bits-1)
	if err != nil {
		return strconv.ParseInt(string(b), 10, bits)
	}
	return int64(v), nil
}

// A text time is a decimal of a unit some places above the nanosecond:
// 3 for csv's microseconds, 9 for spc's seconds.
const (
	microPlaces  = 3
	secondPlaces = 9
)

// scanFixed scans a plain decimal (sign, digits, '.', fraction digits)
// of a unit places above the nanosecond at the start of b, and returns
// it in nanoseconds, exactly, and the number of bytes it read. Digits
// finer than 1 ns round to the nearest nanosecond, ties away from zero.
// At most 19 digits are kept (10^19 < 2^64), so the loops need no
// overflow check; leading zeros add nothing to v and take none of that
// budget. err is strconv.ErrRange outside time.Duration, and
// strconv.ErrSyntax for no digits or too many integer digits after the
// leading zeros (which parseFixed leaves to strconv).
func scanFixed(b []byte, places int) (d time.Duration, n int, err error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		i, neg = 1, b[0] == '-'
	}
	start := i
	var v uint64
	for ; i < len(b); i++ {
		c := uint64(b[i] - '0')
		if c > 9 {
			break
		}
		v = v*10 + c
	}
	digits, kept := i-start, 0
	if digits > 19-places {
		z := start
		for z < i && b[z] == '0' {
			z++
		}
		if i-z > 19-places {
			return 0, i, strconv.ErrSyntax
		}
	}
	if i < len(b) && b[i] == '.' {
		frac, stop := i+1, min(len(b), i+1+places)
		for i = frac; i < stop; i++ {
			c := uint64(b[i] - '0')
			if c > 9 {
				break
			}
			v = v*10 + c
		}
		if kept = i - frac; kept == places && i < len(b) && b[i]-'5' <= 4 {
			v++ // the first dropped digit rounds half away from zero
		}
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		digits += i - frac
	}
	if digits == 0 {
		return 0, i, strconv.ErrSyntax
	}
	if kept < places {
		v *= pow10u64[places-kept]
	}
	if v > math.MaxInt64 && !(neg && v == 1<<63) {
		return 0, i, strconv.ErrRange
	}
	if d = time.Duration(v); neg {
		d = -d
	}
	return d, i, nil
}

// parseFixed is scanFixed over the whole of b. Any other form
// strconv.ParseFloat reads (exponents, hex, Inf, NaN, long digit runs)
// is strconv's value, rounded likewise; outside time.Duration it is a
// range error.
func parseFixed(b []byte, places int) (time.Duration, error) {
	d, n, err := scanFixed(b, places)
	if n != len(b) || err == strconv.ErrSyntax {
		var f float64
		if f, err = strconv.ParseFloat(string(b), 64); err != nil {
			return 0, err
		}
		ns := math.Round(f * float64(pow10u64[places]))
		if d = time.Duration(ns); !(-(1<<63) <= ns && ns < 1<<63) {
			err = strconv.ErrRange
		}
	}
	if err != nil {
		return 0, &strconv.NumError{Func: "ParseFloat", Num: string(b), Err: err}
	}
	return d, nil
}

// parseOpBytes is ParseOp without the string conversion: the
// single-letter spellings and the word spellings the MSRC corpus uses
// are matched on bytes; anything else falls back for the canonical
// error.
func parseOpBytes(b []byte) (Op, error) {
	switch len(b) {
	case 1:
		switch b[0] {
		case 'R', 'r', '0':
			return Read, nil
		case 'W', 'w', '1':
			return Write, nil
		}
	case 4:
		if string(b) == "Read" || string(b) == "READ" || string(b) == "read" {
			return Read, nil
		}
	case 5:
		if string(b) == "Write" || string(b) == "WRITE" || string(b) == "write" {
			return Write, nil
		}
	}
	return ParseOp(string(b))
}

// pow10u64 holds the powers of ten that fit in a uint64.
var pow10u64 = [...]uint64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// digitPairs is "00" through "99": putDecimal writes two digits a step.
var digitPairs = func() (t [100][2]byte) {
	for i := range t {
		t[i] = [2]byte{'0' + byte(i/10), '0' + byte(i%10)}
	}
	return t
}()

// decimalLen returns the number of decimal digits of v. The bit length
// gives it to within one — bits·1233/4096 is floor(bits·log10 2), at
// most one short of the count — which one table compare settles; v|1
// has v's digit count, and one digit for zero.
func decimalLen(v uint64) int {
	x := v | 1
	n := bits.Len64(x) * 1233 >> 12
	if x >= pow10u64[n] {
		n++
	}
	return n
}

// putDecimal writes the low len(b) decimal digits of v into b, zero
// padded on the left, two digits per division.
func putDecimal(b []byte, v uint64) {
	i := len(b)
	for ; i >= 2; i -= 2 {
		p := &digitPairs[v%100]
		v /= 100
		b[i-2], b[i-1] = p[0], p[1]
	}
	if i == 1 {
		b[0] = byte('0' + v%10)
	}
}

// maxUintLen is the most digits a uint64 has.
const maxUintLen = 20

// putUint writes v in decimal at the start of b, which must have room
// for its digits, and returns the digit count: the one integer writer
// of the text encoders, byte for byte strconv.AppendUint(nil, v, 10).
//
//tracelint:hotpath
func putUint(b []byte, v uint64) int {
	if v < 10 {
		// Mostly device numbers: no length lookup for one digit.
		b[0] = byte('0' + v)
		return 1
	}
	n := decimalLen(v)
	putDecimal(b[:n], v)
	return n
}

// appendUint appends v as putUint renders it.
//
//tracelint:hotpath
func appendUint(b []byte, v uint64) []byte {
	n := len(b)
	b = slices.Grow(b, maxUintLen)
	return b[:n+putUint(b[n:n+maxUintLen], v)]
}

// appendOp renders an Op exactly like fmt's %s of Op.String(). It is
// small enough to inline into the record writers.
func appendOp(b []byte, o Op) []byte {
	switch o {
	case Read:
		return append(b, 'R')
	case Write:
		return append(b, 'W')
	}
	return appendOpNumber(b, o)
}

// appendOpNumber is appendOp's Op(n) spelling of an unknown op, kept
// out of line so that appendOp inlines.
//
//go:noinline
func appendOpNumber(b []byte, o Op) []byte {
	b = append(b, "Op("...)
	b = strconv.AppendUint(b, uint64(o), 10)
	return append(b, ')')
}

// The timestamp fields of the text encoders are durations printed as a
// decimal of a coarser unit: strconv.AppendFloat(float64 value, 'f',
// digits, 64). For durations inside a proven bound the same bytes come
// from integer arithmetic alone — d/unit, '.', d%unit zero-padded —
// which is what putMicros and putSeconds do, falling back to
// AppendFloat outside the bound (negatives included). The argument, for
// a value printed to k decimals: the true quotient d/unit is a multiple
// of 10^-k, and AppendFloat prints the multiple of 10^-k nearest the
// float it is handed, so the two agree whenever that float lies within
// half of 10^-k of the true quotient — FuzzAppendMicros and
// FuzzAppendSeconds check it differentially over all of int64.
const (
	// maxFixedMicros bounds putMicros' integer path. For
	// 0 <= d < 2^52 ns, float64(d) is exact and micros(d) is one
	// correctly rounded division, so it is within ulp/2 of d/1000; the
	// quotient is below 2^43, where ulp <= 2^-10 < 0.001, so the error is
	// below 0.0005 and rounding to 3 decimals recovers d/1000.
	maxFixedMicros = time.Duration(1) << 52
	// maxFixedSeconds bounds putSeconds' integer path. Duration.Seconds
	// rounds twice: float64(d/1e9) + float64(d%1e9)/1e9, both conversions
	// exact. The division is within 2^-54 of its quotient (below 1) and,
	// for d under 2^23 s, the sum is below 2^23, where ulp <= 2^-30, so
	// the total error is at most 2^-31 + 2^-54 < 0.5e-9 and rounding to 9
	// decimals recovers d/1e9. (One binade up, ulp/2 alone is 0.93e-9.)
	maxFixedSeconds = time.Duration(1) << 23 * time.Second
)

// maxFixedLen bounds what putMicros and putSeconds write: the
// AppendFloat fallback at the int64 extremes, "-9223372036854776.000"
// and "-9223372036.854775808", both 21 bytes.
const maxFixedLen = 21

// putMicros writes d as decimal microseconds with three decimals at the
// start of b, which must have room for maxFixedLen bytes, and returns
// the length: byte for byte strconv.AppendFloat(nil, micros(d), 'f', 3,
// 64). The fallback appends into b's own room, so it never reallocates.
//
//tracelint:hotpath
func putMicros(b []byte, d time.Duration) int {
	if d < 0 || d >= maxFixedMicros {
		return len(strconv.AppendFloat(b[:0:maxFixedLen], micros(d), 'f', 3, 64))
	}
	u := uint64(d)
	n := putUint(b, u/1e3)
	frac := u % 1e3
	p := &digitPairs[frac%100]
	b[n], b[n+1], b[n+2], b[n+3] = '.', byte('0'+frac/100), p[0], p[1]
	return n + 4
}

// putSeconds is putMicros for decimal seconds with nine decimals, byte
// for byte strconv.AppendFloat(nil, d.Seconds(), 'f', 9, 64).
//
//tracelint:hotpath
func putSeconds(b []byte, d time.Duration) int {
	if d < 0 || d >= maxFixedSeconds {
		return len(strconv.AppendFloat(b[:0:maxFixedLen], d.Seconds(), 'f', 9, 64))
	}
	u := uint64(d)
	n := putUint(b, u/1e9)
	b[n] = '.'
	putDecimal(b[n+1:n+10], u%1e9)
	return n + 10
}

// appendSeconds appends d as putSeconds renders it.
//
//tracelint:hotpath
func appendSeconds(b []byte, d time.Duration) []byte {
	n := len(b)
	b = slices.Grow(b, maxFixedLen)
	return b[:n+putSeconds(b[n:n+maxFixedLen], d)]
}

// appendPadded right-aligns num in a field of the given width, padding
// with spaces — fmt's %*d / %*f padding for the blktrace layout.
func appendPadded(b, num []byte, width int) []byte {
	for i := len(num); i < width; i++ {
		b = append(b, ' ')
	}
	return append(b, num...)
}
