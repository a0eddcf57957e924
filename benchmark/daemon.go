package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
)

// cleanups holds what must not outlive the benchmark — running
// daemons and their data directories — so every exit path (return,
// failed assert, panic, signal) can release them through runCleanups.
var cleanups struct {
	sync.Mutex
	next int
	fns  map[int]func()
}

// onExit registers fn and returns the call that runs and unregisters
// it; the caller defers that.
func onExit(fn func()) (release func()) {
	cleanups.Lock()
	defer cleanups.Unlock()
	if cleanups.fns == nil {
		cleanups.fns = map[int]func(){}
	}
	id := cleanups.next
	cleanups.next++
	cleanups.fns[id] = fn
	return func() {
		cleanups.Lock()
		fn, ok := cleanups.fns[id]
		delete(cleanups.fns, id)
		cleanups.Unlock()
		if ok {
			fn()
		}
	}
}

func runCleanups() {
	cleanups.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// buildDaemon compiles cmd/tracetrackerd from the tree the benchmark
// runs in, so the numbers always describe the checked-out source.
func buildDaemon(workdir string) (bin string, took time.Duration, err error) {
	start := time.Now()
	bin, err = filepath.Abs(filepath.Join(workdir, "tracetrackerd"))
	if err != nil {
		return "", 0, err
	}
	// The checkout a driver runs in is not a git repository.
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/tracetrackerd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/tracetrackerd: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// daemon is one running tracetrackerd on a fresh data directory.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	dataDir string
	stderr  bytes.Buffer
	startup time.Duration
	exited  chan struct{}
	release func()
}

// freePort asks the kernel for an unused loopback port. Another
// process can take it before the daemon binds, so startDaemon retries.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startDaemon(bin, workdir string, parallel int) (*daemon, error) {
	var last error
	for attempt := 0; attempt < 5; attempt++ {
		d, err := startDaemonOnce(bin, workdir, parallel)
		if err == nil {
			return d, nil
		}
		last = err
	}
	return nil, last
}

func startDaemonOnce(bin, workdir string, parallel int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(workdir, "data-")
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{url: "http://" + addr, dataDir: dataDir, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-data", dataDir,
		"-parallel", strconv.Itoa(parallel), "-log-level", "error")
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	d.release = onExit(d.kill)
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.startup = time.Since(start)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.release()
			return nil, fmt.Errorf("daemon exited during start-up: %s", d.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 10*time.Second {
			d.release()
			return nil, fmt.Errorf("daemon not healthy after 10s: %s", d.stderr.String())
		}
	}
}

// kill stops the daemon, waits until it has exited and removes its
// data directory.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	os.RemoveAll(d.dataDir)
}

// clockTick is the kernel's USER_HZ; /proc reports CPU time in these
// ticks and Linux fixes the value at 100 on every architecture Go runs
// on.
const clockTick = 10 * time.Millisecond

// cpuTime is the daemon's user+system CPU so far (/proc/<pid>/stat).
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis, which starts field 3.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", data)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS is the daemon's resident-set high-water mark (VmHWM) in
// bytes.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// dataBytes sums the regular files under the daemon's data directory.
func (d *daemon) dataBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(d.dataDir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// client is the benchmark's one closed-loop HTTP client: a single
// keep-alive connection, one request in flight.
type client struct {
	url string
	hc  *http.Client
	// body is the download scratch, reused so steady-state cycles do
	// not allocate result-sized buffers in the client.
	body bytes.Buffer
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON answer into out (when
// non-nil). The body is always read to the end so the connection is
// reused.
func (c *client) do(method, path string, body io.Reader, out any) (status int, err error) {
	req, err := http.NewRequest(method, c.url+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// uploadReply and jobStatus are the fields of the daemon's answers the
// benchmark asserts on.
type uploadReply struct {
	Created bool `json:"created"`
	Entry   struct {
		Digest   string `json:"digest"`
		Name     string `json:"name"`
		Requests int64  `json:"requests"`
	} `json:"entry"`
}

type jobStatus struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Cached bool   `json:"cached"`
	Report *struct {
		Requests    int64   `json:"requests"`
		Shards      int     `json:"shards"`
		IdleTotalUS float64 `json:"idle_total_us"`
	} `json:"report"`
}

func (c *client) upload(blob []byte) (uploadReply, error) {
	var r uploadReply
	_, err := c.do(http.MethodPost, "/v1/corpus", bytes.NewReader(blob), &r)
	return r, err
}

func (c *client) submit(spec engine.JobSpec) (id string, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	var r struct {
		ID string `json:"id"`
	}
	if _, err := c.do(http.MethodPost, "/v1/jobs", bytes.NewReader(body), &r); err != nil {
		return "", err
	}
	return r.ID, nil
}

// pollInterval is the pause between job status polls.
const pollInterval = 2 * time.Millisecond

// await polls the job until it leaves the queue and the executor,
// returning its final status and the number of polls it took.
func (c *client) await(id string) (st jobStatus, polls int, err error) {
	for {
		st = jobStatus{}
		polls++
		if _, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
			return st, polls, err
		}
		switch st.State {
		case "done":
			return st, polls, nil
		case "failed":
			return st, polls, fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(pollInterval)
	}
}

// result downloads the job's output into c.body, to the last byte.
func (c *client) result(id string) ([]byte, error) {
	resp, err := c.hc.Get(c.url + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET result of %s: %d %s", id, resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	return c.body.Bytes(), nil
}

// filesystemOf names the filesystem type holding path, from
// /proc/self/mountinfo (longest mount-point prefix wins); "unknown"
// where that is unavailable.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fstype := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		// "36 35 98:0 /mnt1 /mnt2 rw,noatime - ext3 /dev/root rw": the
		// mount point is field 5, the type follows the " - " separator.
		pre, post, ok := strings.Cut(line, " - ")
		f := strings.Fields(pre)
		if !ok || len(f) < 5 {
			continue
		}
		mp := f[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best = len(mp)
			fstype, _, _ = strings.Cut(post, " ")
		}
	}
	return fstype
}
