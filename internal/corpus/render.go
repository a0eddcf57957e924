package corpus

// Renderings: a text upload is parsed once. Ingest's one decode pass
// also writes the records it decodes — the arrival-order stream
// trace.OpenFileDecoder yields, reorder window applied — as a bin file
// under renders/<digest>, and a job on the blob reads that file
// (JobInput) instead of parsing the text again. The rendering is
// derived data: the digest, the sidecar and every answer about the
// blob stay the uploaded bytes'.

import (
	"os"
	"path/filepath"
	"sync"

	"repro/internal/trace"
)

func (s *Store) rendersDir() string { return filepath.Join(s.root, "renders") }

func (s *Store) renderPath(digest string) string {
	return filepath.Join(s.rendersDir(), digest)
}

// renderRing is how many rendered runs may wait for the rendering's
// writer goroutine: the decode pass blocks only when it is that far
// ahead of the disk.
const renderRing = 4

// renderBufs keeps the rendered-run buffers between ingests.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// renderer is the decoder ingest's summary pass reads when the staged
// upload is text: it hands on every run of the upload's decoder and
// renders the same run as bin records into a buffer of its ring, which
// one writer goroutine appends to a staging file in tmp/ — the write
// beside the decode rather than in front of it, as spoolHashed hashes.
// A failure to render only loses the rendering, never the ingest.
type renderer struct {
	trace.Decoder
	f     *os.File
	enc   *trace.BinaryEncoder
	begun bool
	err   error // the decode side's: the header did not fit
	free  chan *[]byte
	full  chan *[]byte
	done  chan struct{}
	werr  error // the writer's first error; read after done
}

// newRenderer opens a staging file for dec's rendering and starts its
// writer; with none (err != nil) the ingest goes on without one. A
// renderer must be finished.
func (s *Store) newRenderer(dec trace.Decoder) (*renderer, error) {
	f, err := os.CreateTemp(s.tmpDir(), "render-*")
	if err != nil {
		return nil, err
	}
	r := &renderer{
		Decoder: dec, f: f, enc: trace.NewBinaryEncoder(f),
		free: make(chan *[]byte, renderRing), full: make(chan *[]byte, renderRing), done: make(chan struct{}),
	}
	for range renderRing {
		r.free <- renderBufs.Get().(*[]byte)
	}
	go r.write()
	return r, nil
}

// write is the writer goroutine: it appends each rendered run to the
// staging file until the first error, and hands every buffer back.
func (r *renderer) write() {
	defer close(r.done)
	for b := range r.full {
		if r.werr == nil {
			r.werr = r.enc.WriteRaw(*b)
		}
		r.free <- b
	}
}

// Read implements trace.Decoder.
func (r *renderer) Read(dst []trace.Request) ([]trace.Request, error) {
	run, err := r.Decoder.Read(dst)
	if len(run) > 0 && r.err == nil {
		if !r.begun {
			// Metadata is complete by the first run, and a text format
			// cannot change it later (a csv header behind data rows is a
			// decode error), so the header is written once, up front,
			// before the writer is handed anything.
			r.begun = true
			r.err = r.enc.Begin(r.Decoder.Meta())
		}
		if r.err == nil {
			b := <-r.free
			*b = r.enc.AppendRecords((*b)[:0], run)
			r.full <- b
		}
	}
	return run, err
}

// finish joins the writer, flushes and closes the staging file and
// returns its name, or "" (file removed) when a write failed or a
// metadata string did not fit the bin header.
func (r *renderer) finish() string {
	close(r.full)
	<-r.done
	close(r.free)
	for b := range r.free {
		renderBufs.Put(b)
	}
	if r.err == nil {
		r.err = r.werr
	}
	if r.err == nil {
		r.err = r.enc.Close()
	}
	if cerr := r.f.Close(); r.err == nil {
		r.err = cerr
	}
	if r.err != nil {
		os.Remove(r.f.Name())
		return ""
	}
	return r.f.Name()
}

// JobInput returns a file a job may read in place of the blob with the
// given full digest read as format: its rendering, in bin, holding
// exactly the records trace.OpenFileDecoder yields for the blob. It
// offers one only for a text entry of that format whose rendering's
// size is exactly what the entry implies (trace.BinSize of its
// metadata and request count); a store written before renderings, a
// blob whose metadata did not fit the bin header, a torn or foreign
// file — the job reads the blob. It implements the engine's
// result-cache hook.
func (s *Store) JobInput(digest, format string) (path, pathFormat string, ok bool) {
	s.mu.Lock()
	e, held := s.entries[digest]
	s.mu.Unlock()
	if !held || e.Format != format || format == "bin" {
		return "", "", false
	}
	path = s.renderPath(digest)
	st, err := os.Stat(path)
	if err != nil || !st.Mode().IsRegular() {
		return "", "", false
	}
	meta := trace.Meta{Name: e.Name, Workload: e.Workload, Set: e.Set, TsdevKnown: e.TsdevKnown}
	if st.Size() != trace.BinSize(meta, e.Requests) {
		return "", "", false
	}
	return path, "bin", true
}
