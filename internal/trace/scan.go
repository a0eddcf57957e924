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
	"math/bits"
	"slices"
	"strconv"
	"time"
)

// maxLineLen bounds a single text line, like the bufio.Scanner limit
// the codecs used before: a pathological unterminated line must not
// grow the scratch buffer without bound.
const maxLineLen = 1 << 20

// lineScanner yields lines as byte slices that stay valid until the
// following next call. Lines that fit the read buffer are returned as
// views into it (zero copy); longer ones are assembled in a reusable
// scratch buffer.
type lineScanner struct {
	br      *bufio.Reader
	scratch []byte
}

// readBufLen is the size of the read buffer every decoder scans its
// input out of, lines and binary records alike.
const readBufLen = 128 << 10

func newReadBuffer(r io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(r, readBufLen)
}

// next returns the next line without its '\n' terminator, or io.EOF
// when the input is exhausted. The returned slice is only valid until
// the next call.
func (s *lineScanner) next() ([]byte, error) {
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

// pow10tab holds the powers of ten exactly representable in float64.
var pow10tab = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanFloat scans a plain decimal float — an optional sign, digits,
// then an optional '.' and fraction digits — at b[i:] and returns its
// value and the index after it. ok is false when floatFromDecimal would
// not convert it exactly: no digits, more than 19 (the accumulator may
// have wrapped, as 10^19 < 2^64 bounds it — which is why the digit
// loops carry no overflow check), a mantissa over 2^53, or more than 22
// fraction digits.
func scanFloat(b []byte, i int) (f float64, end int, ok bool) {
	neg := false
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg = b[i] == '-'
		i++
	}
	start := i
	var mant uint64
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 {
			break
		}
		mant = mant*10 + d
	}
	digits, exp := i-start, 0
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b); i++ {
			d := uint64(b[i] - '0')
			if d > 9 {
				break
			}
			mant = mant*10 + d
		}
		exp = frac - i
		digits -= exp
	}
	if digits == 0 || digits > 19 || mant > 1<<53 || exp < -22 {
		return 0, i, false
	}
	return floatFromDecimal(mant, exp, neg), i, true
}

// floatFromDecimal converts a scanned decimal (mant · 10^exp, exp in
// [-22, 0], mant <= 2^53) to float64. This is the classic
// exact-arithmetic shortcut: both operands are exactly representable,
// so the single division rounds once and the result is identical to
// strconv's correctly-rounded parse.
func floatFromDecimal(mant uint64, exp int, neg bool) float64 {
	f := float64(mant)
	if exp < 0 {
		f /= pow10tab[-exp]
	}
	if neg {
		f = -f
	}
	return f
}

// parseFloatBytes is strconv.ParseFloat(string(b), 64) without the
// string conversion for plain decimal forms. Anything outside the
// exact fast path (exponent notation, hex floats, Inf/NaN, huge
// mantissas, deep fractions, malformed input) falls back to strconv.
func parseFloatBytes(b []byte) (float64, error) {
	if f, end, ok := scanFloat(b, 0); ok && end == len(b) {
		return f, nil
	}
	return fallbackFloat(b)
}

func fallbackFloat(b []byte) (float64, error) {
	return strconv.ParseFloat(string(b), 64)
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
