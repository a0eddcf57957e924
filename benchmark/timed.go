package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
)

// cycleSample is the client-side timing of one upload → reconstruct →
// serve cycle: four intervals cut from five timestamps, nothing else
// is recorded while the clock runs.
type cycleSample struct {
	upload   time.Duration // POST /v1/corpus sent → answer read
	submit   time.Duration // POST /v1/jobs sent → answer read
	job      time.Duration // POST /v1/jobs sent → "done" observed
	download time.Duration // "done" observed → last result byte
	polls    int
}

func (s cycleSample) result() time.Duration { return s.job + s.download }
func (s cycleSample) cycle() time.Duration  { return s.upload + s.job + s.download }

// roundResult is one daemon lifetime: start, (prime,) warm-up, timed
// cycles, kill.
type roundResult struct {
	samples  []cycleSample
	failures []string
	// setup is daemon start + prime pass + warm-up cycles.
	setup     time.Duration
	startup   time.Duration
	cpu       time.Duration // daemon user+sys over the timed cycles
	peakRSS   int64
	dataBytes int64 // data-dir growth over the timed cycles
	// idleUS and thinkUS sum the jobs' inferred idle and their bases'
	// injected think time over the timed cycles.
	idleUS, thinkUS float64
}

// runner drives one workload through its rounds.
type runner struct {
	cfg    config
	spec   workloadSpec
	bases  []*base
	cycles int
	rounds []roundResult
}

// session is the client side of one round.
type session struct {
	r       *runner
	c       *client
	seq     int
	scratch []byte
}

// cycle runs one full cycle against base b under name and checks every
// answer. hot says what the daemon must report: a hot cycle lands no
// blob and runs no reconstruction.
func (s *session) cycle(b *base, name string, hot bool) (sample cycleSample, idleUS float64, err error) {
	s.scratch = b.input.named(s.scratch, name)
	spec := engine.JobSpec{Name: name, OutFormat: s.r.spec.OutFormat, Device: s.r.spec.Device}

	t0 := time.Now()
	up, err := s.c.upload(s.scratch)
	if err != nil {
		return sample, 0, err
	}
	t1 := time.Now()
	spec.In = "corpus:" + up.Entry.Digest
	id, err := s.c.submit(spec)
	if err != nil {
		return sample, 0, err
	}
	t2 := time.Now()
	st, polls, err := s.c.await(id)
	if err != nil {
		return sample, 0, err
	}
	t3 := time.Now()
	got, err := s.c.result(id)
	if err != nil {
		return sample, 0, err
	}
	t4 := time.Now()

	sample = cycleSample{upload: t1.Sub(t0), submit: t2.Sub(t1), job: t3.Sub(t1), download: t4.Sub(t3), polls: polls}
	switch {
	case up.Created == hot:
		return sample, 0, fmt.Errorf("upload answered created=%v, want %v", up.Created, !hot)
	case up.Entry.Name != name:
		return sample, 0, fmt.Errorf("upload landed as %q, want %q", up.Entry.Name, name)
	case up.Entry.Requests != b.requests:
		return sample, 0, fmt.Errorf("upload summarized %d requests, want %d", up.Entry.Requests, b.requests)
	case st.Cached != hot:
		return sample, 0, fmt.Errorf("job %s answered cached=%v, want %v", id, st.Cached, hot)
	case st.Report == nil || st.Report.Requests != b.requests:
		return sample, 0, fmt.Errorf("job %s report does not count %d requests: %+v", id, b.requests, st.Report)
	case !b.expected.matches(got, name):
		return sample, 0, fmt.Errorf("job %s served %d bytes that differ from the serial reference (%d bytes)", id, len(got), len(b.expected.data))
	}
	return sample, st.Report.IdleTotalUS, nil
}

// primeName is the name base i is uploaded under during a hot round's
// prime pass, and again on every hot cycle.
func primeName(i, round int) string { return cycleName(i, round, i) }

// round runs one daemon lifetime of the workload.
func (r *runner) round(bin string, idx int) (err error) {
	setupStart := time.Now()
	d, err := startDaemon(bin, r.cfg.workdir, r.cfg.parallel)
	if err != nil {
		return err
	}
	defer d.release()
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s round %d: %w (daemon stderr: %q)", r.spec.Name, idx, err, d.stderr.String())
		}
	}()
	s := &session{r: r, c: newClient(d.url), seq: len(r.bases)}
	defer s.c.close()

	// next runs the cycle the workload's kind calls for on the next
	// base in rotation.
	next := func() (cycleSample, *base, float64, error) {
		i := s.seq % len(r.bases)
		name := cycleName(i, idx, s.seq)
		if r.spec.Hot {
			name = primeName(i, idx)
		}
		s.seq++
		sample, idle, err := s.cycle(r.bases[i], name, r.spec.Hot)
		return sample, r.bases[i], idle, err
	}

	if r.spec.Hot {
		for i, b := range r.bases {
			if _, _, err := s.cycle(b, primeName(i, idx), false); err != nil {
				return fmt.Errorf("prime cycle %d: %w", i, err)
			}
		}
	}
	for i := 0; i < r.cfg.warmup; i++ {
		if _, _, _, err := next(); err != nil {
			return fmt.Errorf("warm-up cycle %d: %w", i, err)
		}
	}
	res := roundResult{startup: d.startup, setup: time.Since(setupStart)}

	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	data0, err := d.dataBytes()
	if err != nil {
		return err
	}
	for i := 0; i < r.cycles; i++ {
		sample, b, idle, err := next()
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("%s round %d cycle %d: %v", r.spec.Name, idx, i, err))
			continue
		}
		res.samples = append(res.samples, sample)
		res.idleUS += idle
		res.thinkUS += us(b.think)
	}
	cpu1, err := d.cpuTime()
	if err != nil {
		return err
	}
	data1, err := d.dataBytes()
	if err != nil {
		return err
	}
	if res.peakRSS, err = d.peakRSS(); err != nil {
		return err
	}
	res.cpu, res.dataBytes = cpu1-cpu0, data1-data0
	r.rounds = append(r.rounds, res)
	return nil
}

// metric is one reported number. Min and Max are the spread of the
// per-round values behind Value, present on metrics that have one per
// round.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

type metrics map[string]metric

func (m metrics) put(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// putRounds reports the median (or, for high-water marks, the maximum)
// of one value per round, with the rounds' spread.
func (m metrics) putRounds(name, unit string, perRound []float64, useMax bool) {
	lo, hi := minMax(perRound)
	v := median(perRound)
	if useMax {
		v = hi
	}
	m[name] = metric{Value: v, Unit: unit, Min: &lo, Max: &hi}
}

// perRound maps each round's samples through f and takes the round's
// median.
func (r *runner) perRound(f func(cycleSample) float64) []float64 {
	out := make([]float64, 0, len(r.rounds))
	for _, rd := range r.rounds {
		vs := make([]float64, 0, len(rd.samples))
		for _, s := range rd.samples {
			vs = append(vs, f(s))
		}
		out = append(out, median(vs))
	}
	return out
}

func (r *runner) counts() (attempted, failed int, failures []string) {
	for _, rd := range r.rounds {
		attempted += len(rd.samples) + len(rd.failures)
		failed += len(rd.failures)
		failures = append(failures, rd.failures...)
	}
	return attempted, failed, failures
}

// endToEnd folds the rounds into the end-to-end metrics.
func (r *runner) endToEnd() metrics {
	m := metrics{}
	reqs := float64(r.bases[0].requests)
	cyc := r.perRound(func(s cycleSample) float64 { return ms(s.cycle()) })
	kreq := make([]float64, len(cyc))
	for i, c := range cyc {
		kreq[i] = reqs / c // requests per ms = thousand requests per s
	}
	m.putRounds("recon_kreq_per_s", "kreq/s", kreq, false)
	m.putRounds("result_p50_ms", "ms", r.perRound(func(s cycleSample) float64 { return ms(s.result()) }), false)

	var cpu, rss, setup []float64
	for _, rd := range r.rounds {
		cpu = append(cpu, ms(rd.cpu)/float64(r.cycles))
		rss = append(rss, float64(rd.peakRSS)/(1<<20))
		setup = append(setup, rd.setup.Seconds())
	}
	m.putRounds("cpu_ms_per_cycle", "ms", cpu, false)
	m.putRounds("peak_rss_mb", "MB", rss, true)
	attempted, failed, _ := r.counts()
	m.put("failed_share", "share", float64(failed)/float64(max(attempted, 1)))
	// The share of the injected think time the served traces kept; 100
	// minus infer.idle_total_err_pct, in a form that is never near 0
	// so a relative bound on it means something.
	m.put("idle_recovered_pct", "%", 100-r.idleErrPct())
	// Set-up happens once per base and once per round: the medians of
	// those, times their counts, so one stalled base or daemon start
	// does not decide the figure.
	gen := make([]float64, len(r.bases))
	for i, b := range r.bases {
		gen[i] = b.setup.Seconds()
	}
	m.put("setup_s", "s", median(gen)*float64(len(gen))+median(setup)*float64(len(setup)))
	return m
}

// idleErrPct is |Σ inferred idle ÷ Σ injected think − 1| × 100 over
// the timed cycles' job reports. It depends only on the inputs, so it
// repeats exactly for a seed.
func (r *runner) idleErrPct() float64 {
	var idle, think float64
	for _, rd := range r.rounds {
		idle += rd.idleUS
		think += rd.thinkUS
	}
	return math.Abs(idle/think-1) * 100
}

// daemonLayer folds the rounds into the daemon.* per-layer metrics and
// corpus.data_bytes_per_cycle — everything the timed rounds can say
// about single layers from client-side timestamps alone.
func (r *runner) daemonLayer() metrics {
	m := metrics{}
	m.putRounds("daemon.upload_p50_ms", "ms", r.perRound(func(s cycleSample) float64 { return ms(s.upload) }), false)
	m.putRounds("daemon.submit_p50_ms", "ms", r.perRound(func(s cycleSample) float64 { return ms(s.submit) }), false)
	m.putRounds("daemon.job_p50_ms", "ms", r.perRound(func(s cycleSample) float64 { return ms(s.job) }), false)
	m.putRounds("daemon.download_p50_ms", "ms", r.perRound(func(s cycleSample) float64 { return ms(s.download) }), false)
	m.putRounds("daemon.cycle_p50_ms", "ms", r.perRound(func(s cycleSample) float64 { return ms(s.cycle()) }), false)

	var pooled, start, data []float64
	polls, jobs := 0, 0
	for _, rd := range r.rounds {
		start = append(start, ms(rd.startup))
		data = append(data, float64(rd.dataBytes)/float64(r.cycles))
		for _, s := range rd.samples {
			pooled = append(pooled, ms(s.cycle()))
			polls += s.polls
			jobs++
		}
	}
	m.put("daemon.polls_per_job", "count", float64(polls)/float64(max(jobs, 1)))
	m.putRounds("daemon.start_ms", "ms", start, false)
	t, pct := tail(pooled)
	m.put("daemon.cycle_tail_ms", "ms", t)
	m.put("daemon.cycle_tail_pct", "%", float64(pct))
	m.put("daemon.cycles", "count", float64(len(pooled)))
	m.putRounds("corpus.data_bytes_per_cycle", "B", data, false)
	m.put("infer.idle_total_err_pct", "%", r.idleErrPct())
	return m
}
