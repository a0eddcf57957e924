package trace

import (
	"errors"
	"strconv"
	"strings"
	"testing"
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
