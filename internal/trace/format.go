package trace

// The codec table. Which on-disk formats exist, and how each one
// decodes, splits for the parallel decoder, sorts and encodes, is
// decided here and nowhere else: NewDecoder, NewEncoder, NeedsSort,
// ReadFormat, WriteFormat, the segment planner, DetectFormat's record
// sniffing, job validation (Formats) and every command's format flag
// (Usage) derive from this one table. A row is looked up once per
// stream, never per record.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// codec is one row of the table.
type codec struct {
	name string
	// decode opens a sequential decoder over a read buffer; nil for
	// output-only formats.
	decode func(*bufio.Reader) Decoder
	// segment opens the decoder of one parallel-decode segment over a
	// read buffer, preset with the segment's carry context (segment.go).
	segment func(*bufio.Reader, segCtx) Decoder
	// text formats are split at line boundaries after a prelude scan;
	// the others at fixed-width record strides.
	text bool
	// prelude folds one non-blank line of a text input's prelude — a
	// comment, or the first data line (data) — into the context the
	// parallel decoder's segments start from; nil when the format
	// carries no per-stream state (segment.go).
	prelude func(p *preludeState, line []byte, data bool) error
	// needsSort marks the corpora that are only near-sorted in file
	// order (event tracing reorders completions): whole-trace readers
	// sort after draining, streaming consumers need a reorder window.
	needsSort bool
	// meta is what the decoder reports before any header or record.
	meta Meta
	// sniff reports whether the comma-split fields of a bare data line
	// have this format's record layout (DetectFormat).
	sniff func([]string) bool
	// encode opens an encoder; fioDevice is the replay target fio output
	// names. nil for input-only formats.
	encode func(w io.Writer, fioDevice string) Encoder
	// write renders a whole trace in a format the decoders read back
	// (WriteFormat). bin's carries the request count its streaming
	// encoder cannot know up front.
	write func(io.Writer, *Trace) error
}

// codecs is the table, in the order DetectFormat tries the text
// layouts and the format lists name them.
var codecs = [...]codec{
	{
		name:   "csv",
		decode: func(br *bufio.Reader) Decoder { return newCSVDecoder(br) },
		segment: func(br *bufio.Reader, ctx segCtx) Decoder {
			d := &CSVDecoder{ls: &lineScanner{br: br}, meta: ctx.meta, sawData: ctx.sawData}
			d.t.applyMeta(ctx.meta)
			return d
		},
		text:    true,
		prelude: (*preludeState).csvPrelude,
		sniff:   isNativeLine,
		encode:  func(w io.Writer, _ string) Encoder { return NewCSVEncoder(w) },
		write:   WriteCSV,
	},
	{
		name:   "bin",
		decode: func(br *bufio.Reader) Decoder { return newBinaryDecoder(br) },
		segment: func(br *bufio.Reader, ctx segCtx) Decoder {
			return &BinaryDecoder{br: br, meta: ctx.meta,
				counted: ctx.binCounted, remaining: ctx.binRemaining, idx: ctx.binStart}
		},
		encode: func(w io.Writer, _ string) Encoder { return NewBinaryEncoder(w) },
		write:  WriteBinary,
	},
	{
		name:   "msrc",
		decode: func(br *bufio.Reader) Decoder { return newMSRCDecoder(br) },
		segment: func(br *bufio.Reader, ctx segCtx) Decoder {
			return &MSRCDecoder{ls: &lineScanner{br: br}, meta: ctx.meta, base: ctx.msrcBase}
		},
		text:      true,
		prelude:   (*preludeState).msrcPrelude,
		needsSort: true,
		meta:      msrcMeta,
		sniff:     isMSRCLine,
	},
	{
		name:      "spc",
		decode:    func(br *bufio.Reader) Decoder { return newSPCDecoder(br) },
		segment:   func(br *bufio.Reader, _ segCtx) Decoder { return &SPCDecoder{ls: &lineScanner{br: br}} },
		text:      true,
		needsSort: true,
		sniff:     isSPCLine,
	},
	{
		name:   "blktrace",
		encode: func(w io.Writer, _ string) Encoder { return NewBlktraceEncoder(w) },
	},
	{
		name:   "fio",
		encode: func(w io.Writer, fioDevice string) Encoder { return NewFIOEncoder(w, fioDevice) },
	},
}

// lookup returns the row named name, nil when there is none.
func lookup(name string) *codec {
	for i := range codecs {
		if codecs[i].name == name {
			return &codecs[i]
		}
	}
	return nil
}

// input returns the row of an input format, or the error every
// decoding entry point reports for a name that is none.
func input(name string) (*codec, error) {
	if c := lookup(name); c != nil && c.decode != nil {
		return c, nil
	}
	return nil, fmt.Errorf("trace: unknown input format %q", name)
}

// Role is the part a format plays for the tools.
type Role uint8

const (
	// Input formats are read: NewDecoder, ReadFormat, a job's informat.
	Input Role = iota
	// Output formats are written: NewEncoder, a job's outformat.
	Output
	// Generated formats are written whole and read back: WriteFormat,
	// tracegen's -format.
	Generated
)

// Formats lists the formats that play role r, in table order.
func Formats(r Role) []string {
	var names []string
	for _, c := range codecs {
		if r == Input && c.decode != nil || r == Output && c.encode != nil || r == Generated && c.write != nil {
			names = append(names, c.name)
		}
	}
	return names
}

// Usage is the help text of a command flag that names a format for
// role r, e.g. `output format: "csv" or "bin"`. An Input flag also
// takes "auto", which resolves by content sniffing.
func Usage(r Role) string {
	names, kind, tail := Formats(r), "output", ""
	if r == Input {
		names, kind, tail = append(names, "auto"), "input", " (content sniffing)"
	}
	for i := range names {
		names[i] = strconv.Quote(names[i])
	}
	last, or := len(names)-1, ", or "
	if last == 1 {
		or = " or "
	}
	return kind + " format: " + strings.Join(names[:last], ", ") + or + names[last] + tail
}

// NewDecoder returns a streaming decoder for the named input format.
func NewDecoder(format string, r io.Reader) (Decoder, error) {
	c, err := input(format)
	if err != nil {
		return nil, err
	}
	return c.decode(newReadBuffer(r)), nil
}

// NeedsSort reports whether the named input format is only
// near-sorted in file order (event-traced corpora), so materializing
// readers must sort after draining and streaming consumers need a
// reorder window.
func NeedsSort(format string) bool {
	c := lookup(format)
	return c != nil && c.needsSort
}

// NewEncoder returns a streaming encoder for the named output format.
// fioDevice is the replay target path the fio format embeds (ignored
// by the others).
func NewEncoder(format string, w io.Writer, fioDevice string) (Encoder, error) {
	if c := lookup(format); c != nil && c.encode != nil {
		return c.encode(w, fioDevice), nil
	}
	return nil, fmt.Errorf("trace: unknown output format %q", format)
}

// ReadFormat materializes a whole trace of the named input format —
// "auto" (or "") resolves by content sniffing — applying the arrival
// sort the near-sorted corpora need.
func ReadFormat(format string, r io.Reader) (*Trace, error) {
	format, r, err := ResolveFormat(format, r)
	if err != nil {
		return nil, err
	}
	c, err := input(format)
	if err != nil {
		return nil, err
	}
	t, err := Drain(c.decode(newReadBuffer(r)))
	if err != nil {
		return nil, err
	}
	if c.needsSort {
		t.Sort()
	}
	return t, nil
}

// WriteFormat writes a whole trace in one of the Generated formats.
func WriteFormat(format string, w io.Writer, t *Trace) error {
	if c := lookup(format); c != nil && c.write != nil {
		return c.write(w, t)
	}
	return fmt.Errorf("trace: unknown format %q", format)
}
