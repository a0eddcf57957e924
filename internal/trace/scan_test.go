package trace

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestParseUintBytesBoundaries pins the fast parser to strconv at the
// edges of each width it is called with: the largest value parses, and
// every value one to four past it fails with strconv's range error
// instead of wrapping (at 64 bits "18446744073709551616" once became 0).
func TestParseUintBytesBoundaries(t *testing.T) {
	cases := []struct {
		in   string
		bits int
		ok   bool
	}{
		{"18446744073709551615", 64, true},
		{"18446744073709551616", 64, false},
		{"18446744073709551617", 64, false},
		{"18446744073709551618", 64, false},
		{"18446744073709551619", 64, false},
		{"18446744073709551620", 64, false},
		{"99999999999999999999", 64, false},
		{"9223372036854775807", 63, true},
		{"9223372036854775808", 63, false},
		{"4294967295", 32, true},
		{"4294967296", 32, false},
		{"4294967299", 32, false},
		{"1", 1, true},
		{"2", 1, false},
	}
	for _, c := range cases {
		got, err := parseUintBytes([]byte(c.in), c.bits)
		want, wantErr := strconv.ParseUint(c.in, 10, c.bits)
		if (err == nil) != c.ok || got != want {
			t.Errorf("parseUintBytes(%q, %d) = %d, %v; strconv gives %d, %v", c.in, c.bits, got, err, want, wantErr)
			continue
		}
		if !c.ok && !errors.Is(err, strconv.ErrRange) {
			t.Errorf("parseUintBytes(%q, %d): error %v, want strconv.ErrRange", c.in, c.bits, err)
		}
	}
}

// TestDecodeRejectsWrappedLBA runs the 64-bit boundary through the
// decoders that reach parseUintBytes with it: the csv slow path (the
// fast path hands an LBA of 20 digits to it) and the msrc offset.
func TestDecodeRejectsWrappedLBA(t *testing.T) {
	for _, c := range []struct{ format, in string }{
		{"csv", "0,0,18446744073709551616,8,R,0,0\n"},
		{"msrc", "128166372003061629,hm,0,Read,18446744073709551617,4096,1\n"},
	} {
		tr, err := ReadFormat(c.format, strings.NewReader(c.in))
		if !errors.Is(err, strconv.ErrRange) {
			t.Errorf("%s %q: got %v, err %v; want strconv.ErrRange", c.format, c.in, tr, err)
		}
	}
	// The largest value still decodes.
	tr, err := ReadFormat("csv", strings.NewReader("0,0,18446744073709551615,8,R,0,0\n"))
	if err != nil || tr.Len() != 1 || tr.Requests[0].LBA != 1<<64-1 {
		t.Fatalf("csv max LBA: %v, err %v", tr, err)
	}
}

// TestParseFixed pins the time reader's rules: a plain decimal is read
// exactly, digits finer than 1 ns round to the nearest nanosecond with
// ties away from zero, every other strconv form is strconv's value
// rounded the same way, and a value outside time.Duration, or no number
// at all, is an error.
func TestParseFixed(t *testing.T) {
	cases := []struct {
		in     string
		places int
		want   time.Duration
		err    error // nil, strconv.ErrRange or strconv.ErrSyntax
	}{
		{"4260020.594", microPlaces, 4_260_020_594, nil},
		{"0.0004", microPlaces, 0, nil},
		{"0.0005", microPlaces, 1, nil},
		{"0.00049999999999", microPlaces, 0, nil},
		{"-0.0005", microPlaces, -1, nil},
		{"-0.0004", microPlaces, 0, nil},
		{"2.4995", microPlaces, 2_500, nil},
		{"+12", microPlaces, 12_000, nil},
		{"12.", microPlaces, 12_000, nil},
		{".5", microPlaces, 500, nil},
		{"0.000511", secondPlaces, 511_000, nil},
		{"1.5", secondPlaces, 1_500_000_000, nil},
		{"9223372036.854775807", secondPlaces, math.MaxInt64, nil},
		{"9223372036854775.807", microPlaces, math.MaxInt64, nil},
		{"9223372036854775.8074", microPlaces, math.MaxInt64, nil},
		{"-9223372036854775.808", microPlaces, math.MinInt64, nil},
		// Leading zeros take none of the integer path's digit budget.
		{"09223372036854775.807", microPlaces, math.MaxInt64, nil},
		{"-0009223372036854775.808", microPlaces, math.MinInt64, nil},
		{"000000000009223372036.854775807", secondPlaces, math.MaxInt64, nil},
		{"00000000000000000001.5", microPlaces, 1_500, nil},
		{"000", microPlaces, 0, nil},
		{"-00.", secondPlaces, 0, nil},
		// strconv's forms, rounded.
		{"1e3", microPlaces, 1_000_000, nil},
		{"1.5e-3", microPlaces, 2, nil},
		{"0x1p4", microPlaces, 16_000, nil},
		// Out of range.
		{"9223372036854775.8075", microPlaces, 0, strconv.ErrRange},
		{"9223372036854775.808", microPlaces, 0, strconv.ErrRange},
		{"09223372036854775.808", microPlaces, 0, strconv.ErrRange},
		{"-9223372036854775.809", microPlaces, 0, strconv.ErrRange},
		{"9223372036.854775808", secondPlaces, 0, strconv.ErrRange},
		{"99999999999999999999", microPlaces, 0, strconv.ErrRange},
		{"1e300", microPlaces, 0, strconv.ErrRange},
		{"1e400", microPlaces, 0, strconv.ErrRange},
		{"Inf", microPlaces, 0, strconv.ErrRange},
		{"-Inf", secondPlaces, 0, strconv.ErrRange},
		{"NaN", microPlaces, 0, strconv.ErrRange},
		// Not a number.
		{"", microPlaces, 0, strconv.ErrSyntax},
		{"-", microPlaces, 0, strconv.ErrSyntax},
		{".", microPlaces, 0, strconv.ErrSyntax},
		{"1.2.3", microPlaces, 0, strconv.ErrSyntax},
		{"1,5", microPlaces, 0, strconv.ErrSyntax},
		{"x", microPlaces, 0, strconv.ErrSyntax},
	}
	for _, c := range cases {
		got, err := parseFixed([]byte(c.in), c.places)
		if got != c.want || !errors.Is(err, c.err) || (err == nil) != (c.err == nil) {
			t.Errorf("parseFixed(%q, %d) = %d, %v; want %d, %v", c.in, c.places, got, err, c.want, c.err)
		}
	}
}

// TestParseFixedExact holds the integer path to exact arithmetic over
// random plain decimals of every length and magnitude, both units and
// both signs, around the time.Duration bounds too, each also with its
// integer part zero-padded: big.Rat rounds the decimal's true value to
// the nearest nanosecond, ties away from zero.
func TestParseFixedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 50_000; i++ {
		places := microPlaces
		if i%2 == 1 {
			places = secondPlaces
		}
		var b []byte
		if rng.Intn(4) == 0 {
			b = append(b, '-')
		}
		if rng.Intn(8) == 0 {
			// Near the bounds: the largest integer part that fits, or one
			// more.
			b = strconv.AppendInt(b, math.MaxInt64/int64(pow10u64[places])+int64(rng.Intn(2)), 10)
		} else {
			b = strconv.AppendUint(b, rng.Uint64()>>uint(rng.Intn(64)+places*10/3), 10)
		}
		if n := rng.Intn(14); n > 0 {
			b = append(b, '.')
			for range n - 1 {
				b = append(b, byte('0'+rng.Intn(10)))
			}
		}
		want, inRange := exactNanos(string(b), places)
		unsigned, neg := strings.CutPrefix(string(b), "-")
		padded := strings.Repeat("0", 1+i%20) + unsigned
		if neg {
			padded = "-" + padded
		}
		for _, in := range [][]byte{b, []byte(padded)} {
			got, err := parseFixed(in, places)
			switch {
			case !inRange && !errors.Is(err, strconv.ErrRange):
				t.Fatalf("parseFixed(%q, %d) = %d, %v; want a range error", in, places, got, err)
			case inRange && (err != nil || got != want):
				t.Fatalf("parseFixed(%q, %d) = %d, %v; want %d", in, places, got, err, want)
			}
		}
	}
}

// exactNanos is the decimal s, in a unit places above the nanosecond,
// rounded to the nearest nanosecond with ties away from zero, in exact
// arithmetic, and whether that fits a time.Duration.
func exactNanos(s string, places int) (time.Duration, bool) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		panic(s)
	}
	r.Mul(r, new(big.Rat).SetInt(new(big.Int).SetUint64(pow10u64[places])))
	q, m := new(big.Int).QuoRem(r.Num(), r.Denom(), new(big.Int))
	if m.Abs(m).Lsh(m, 1).Cmp(r.Denom()) >= 0 {
		q.Add(q, big.NewInt(int64(r.Num().Sign())))
	}
	return time.Duration(q.Int64()), q.IsInt64()
}
