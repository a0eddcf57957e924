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

func newLineScanner(r io.Reader) *lineScanner {
	return &lineScanner{br: bufio.NewReaderSize(r, 128<<10)}
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
		if d > 9 || v > maxVal/10 {
			// Non-digit, sign, or overflow: strconv produces the
			// canonical NumError (syntax or range).
			return strconv.ParseUint(string(b), 10, bits)
		}
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

// mantCutoff is the largest mantissa accumulator value that can take
// one more decimal digit and stay exactly representable in float64.
const mantCutoff = (1<<53 - 9) / 10

// floatFromDecimal converts a scanned decimal (mant · 10^exp, exp in
// [-22, 0], mant < 2^53) to float64. This is the classic
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
	s := b
	neg := false
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		neg = s[0] == '-'
		s = s[1:]
	}
	var (
		mant   uint64
		exp    int
		digits int
	)
	i := 0
	for ; i < len(s); i++ {
		d := uint64(s[i] - '0')
		if d > 9 {
			break
		}
		if mant >= mantCutoff {
			return fallbackFloat(b)
		}
		mant = mant*10 + d
		digits++
	}
	if i < len(s) && s[i] == '.' {
		for i++; i < len(s); i++ {
			d := uint64(s[i] - '0')
			if d > 9 {
				break
			}
			if mant >= mantCutoff {
				return fallbackFloat(b)
			}
			mant = mant*10 + d
			digits++
			exp--
		}
	}
	if i != len(s) || digits == 0 || exp < -22 {
		return fallbackFloat(b)
	}
	return floatFromDecimal(mant, exp, neg), nil
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

// appendOp renders an Op exactly like fmt's %s of Op.String().
func appendOp(b []byte, o Op) []byte {
	switch o {
	case Read:
		return append(b, 'R')
	case Write:
		return append(b, 'W')
	}
	b = append(b, "Op("...)
	b = strconv.AppendUint(b, uint64(o), 10)
	return append(b, ')')
}

// The timestamp fields of the text encoders are durations printed as a
// decimal of a coarser unit: strconv.AppendFloat(float64 value, 'f',
// digits, 64). For durations inside a proven bound the same bytes come
// from integer arithmetic alone — d/unit, '.', d%unit zero-padded —
// which is what appendMicros and appendSeconds do, falling back to
// AppendFloat outside the bound (negatives included). The argument, for
// a value printed to k decimals: the true quotient d/unit is a multiple
// of 10^-k, and AppendFloat prints the multiple of 10^-k nearest the
// float it is handed, so the two agree whenever that float lies within
// half of 10^-k of the true quotient — FuzzAppendMicros and
// FuzzAppendSeconds check it differentially over all of int64.
const (
	// maxFixedMicros bounds appendMicros' integer path. For
	// 0 <= d < 2^52 ns, float64(d) is exact and micros(d) is one
	// correctly rounded division, so it is within ulp/2 of d/1000; the
	// quotient is below 2^43, where ulp <= 2^-10 < 0.001, so the error is
	// below 0.0005 and rounding to 3 decimals recovers d/1000.
	maxFixedMicros = time.Duration(1) << 52
	// maxFixedSeconds bounds appendSeconds' integer path. Duration.Seconds
	// rounds twice: float64(d/1e9) + float64(d%1e9)/1e9, both conversions
	// exact. The division is within 2^-54 of its quotient (below 1) and,
	// for d under 2^23 s, the sum is below 2^23, where ulp <= 2^-30, so
	// the total error is at most 2^-31 + 2^-54 < 0.5e-9 and rounding to 9
	// decimals recovers d/1e9. (One binade up, ulp/2 alone is 0.93e-9.)
	maxFixedSeconds = time.Duration(1) << 23 * time.Second
)

// appendFixed renders whole '.' frac, frac zero-padded to digits places.
//
//tracelint:hotpath
func appendFixed(b []byte, whole, frac uint64, digits int) []byte {
	b = strconv.AppendUint(b, whole, 10)
	b = append(b, ".000000000"[:1+digits]...)
	for i := len(b) - 1; frac > 0; i-- {
		b[i] = byte('0' + frac%10)
		frac /= 10
	}
	return b
}

// appendMicros renders d as decimal microseconds with three decimals,
// byte for byte strconv.AppendFloat(b, micros(d), 'f', 3, 64).
//
//tracelint:hotpath
func appendMicros(b []byte, d time.Duration) []byte {
	if d < 0 || d >= maxFixedMicros {
		return strconv.AppendFloat(b, micros(d), 'f', 3, 64)
	}
	return appendFixed(b, uint64(d)/1e3, uint64(d)%1e3, 3)
}

// appendSeconds renders d as decimal seconds with nine decimals, byte
// for byte strconv.AppendFloat(b, d.Seconds(), 'f', 9, 64).
//
//tracelint:hotpath
func appendSeconds(b []byte, d time.Duration) []byte {
	if d < 0 || d >= maxFixedSeconds {
		return strconv.AppendFloat(b, d.Seconds(), 'f', 9, 64)
	}
	return appendFixed(b, uint64(d)/1e9, uint64(d)%1e9, 9)
}

// appendPadded right-aligns num in a field of the given width, padding
// with spaces — fmt's %*d / %*f padding for the blktrace layout.
func appendPadded(b, num []byte, width int) []byte {
	for i := len(num); i < width; i++ {
		b = append(b, ' ')
	}
	return append(b, num...)
}
