package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The paper notes TraceTracker "can be implemented by using
// publicly-available benchmark tools such as FIO". This file emits a
// reconstructed trace in fio's replay formats so the output of this
// library can drive a real device through fio:
//
//   - WriteFIOLog produces an iolog version-2 file for
//     `fio --read_iolog=...` (one filename, block-addressed);
//   - WriteFIOJob produces the matching job file with replay options.
//
// iolog v2 grammar (fio's own spec):
//
//	fio version 2 iolog
//	<filename> add
//	<filename> open
//	<filename> <action> <offset> <length>
//	<filename> close
//
// fio replays entries back to back; inter-arrival pacing is carried by
// "wait" lines (usec) which fio honours with --read_iolog + the
// per-entry delay extension. Idle gaps therefore survive the export.

// WriteFIOLog writes t as a fio iolog v2. device is the target file
// or block device path fio should replay against. Inter-arrival gaps
// are emitted as wait lines in microseconds.
func WriteFIOLog(w io.Writer, t *Trace, device string) error {
	return EncodeTrace(NewFIOEncoder(w, device), t)
}

// WriteFIOJob writes the job file that replays the iolog at logPath
// (produced by WriteFIOLog or the fio encoder); name labels the trace
// in the file's leading comment.
func WriteFIOJob(w io.Writer, name, logPath, device string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; generated by tracetracker-go for trace %q\n", name)
	fmt.Fprintln(bw, "[replay]")
	fmt.Fprintf(bw, "filename=%s\n", device)
	fmt.Fprintf(bw, "read_iolog=%s\n", logPath)
	fmt.Fprintln(bw, "direct=1")
	fmt.Fprintln(bw, "ioengine=libaio")
	fmt.Fprintln(bw, "iodepth=32")
	fmt.Fprintln(bw, "replay_no_stall=0")
	return bw.Flush()
}

// ReadFIOLog parses an iolog v2 back into a trace (read/write/wait
// lines; add/open/close and unknown actions are skipped). It is the
// inverse of WriteFIOLog up to the µs resolution of wait lines.
func ReadFIOLog(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var now time.Duration
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "fio version") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[1] {
		case "add", "open", "close":
			continue
		case "wait":
			if len(f) < 3 {
				return nil, fmt.Errorf("trace: fio line %d: short wait", lineno)
			}
			us, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: fio line %d: %w", lineno, err)
			}
			now += time.Duration(us) * time.Microsecond
		case "read", "write":
			if len(f) < 4 {
				return nil, fmt.Errorf("trace: fio line %d: short io", lineno)
			}
			off, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: fio line %d: offset: %w", lineno, err)
			}
			length, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: fio line %d: length: %w", lineno, err)
			}
			op := Read
			if f[1] == "write" {
				op = Write
			}
			sectors := uint32((length + SectorSize - 1) / SectorSize)
			if sectors == 0 {
				sectors = 1
			}
			t.Requests = append(t.Requests, Request{
				Arrival: now,
				LBA:     uint64(off) / SectorSize,
				Sectors: sectors,
				Op:      op,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
