package trace

import (
	"bufio"
	"fmt"
	"io"
)

// The paper notes TraceTracker "can be implemented by using
// publicly-available benchmark tools such as FIO". The fio encoder
// (FIOEncoder) writes a reconstructed trace as an iolog; WriteFIOJob
// writes the job file that replays it.

// WriteFIOJob writes the job file that replays the iolog at logPath
// (produced by the fio encoder); name labels the trace in the file's
// leading comment.
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
