package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/workload"
)

// traffic feeds the writer loop one op at a time. next returns the bytes
// to put on the socket and how many records they carry; ack sees the
// daemon's reply body (HTTP) or payload (binary).
type traffic interface {
	next() (req []byte, records int, ok bool)
	ack(resp []byte) error
}

// replay walks a precomputed stream.
type replay struct {
	s *stream
	i int
}

func (r *replay) next() ([]byte, int, bool) {
	if r.i == len(r.s.ends) {
		return nil, 0, false
	}
	req := r.s.op(r.i)
	n := r.s.opRecords(r.i)
	r.i++
	return req, n, true
}

func (r *replay) ack([]byte) error { return nil }

// opRecords is the record count of op i: every op is a full frame except
// the one that closes the warm-up and the last.
func (s *stream) opRecords(i int) int {
	switch {
	case s.frame == 1:
		return 1
	case i == s.warmOps-1:
		return s.warmRec - (s.warmOps-1)*s.frame
	case i == len(s.ends)-1:
		return s.records - s.warmRec - (len(s.ends)-1-s.warmOps)*s.frame
	}
	return s.frame
}

// reactive generates http-adapt's traffic from the daemon's replies:
// promotions change the schedule, so completions can only be scheduled
// from the starts each reply announces — what cmd/schedtest's load
// generator does. Arrivals are those of drive's closed system: the
// population arrives at time zero and every completion admits the next
// job.
type reactive struct {
	jobs      []workload.Job
	admitted  int
	runtimeOf map[int]float64
	h         schedcore.EventHeap
	req       []byte
	reply     struct {
		Started []struct {
			ID   int     `json:"id"`
			Time float64 `json:"time"`
		} `json:"started"`
	}
}

func newReactive(jobs []workload.Job, population int) *reactive {
	r := &reactive{jobs: append([]workload.Job(nil), jobs...), runtimeOf: make(map[int]float64, len(jobs))}
	for i := range r.jobs {
		r.runtimeOf[r.jobs[i].ID] = r.jobs[i].Runtime
		r.jobs[i].Submit = 0
		if i < population {
			r.h.Push(schedcore.Event{Time: 0, Kind: schedcore.KindArrival, Ref: i})
			r.admitted++
		}
	}
	return r
}

func (r *reactive) next() ([]byte, int, bool) {
	if r.h.Len() == 0 {
		return nil, 0, false
	}
	ev := r.h.Pop()
	rec := durable.Record{Op: durable.OpComplete, Now: ev.Time, ID: ev.Ref}
	if ev.Kind == schedcore.KindArrival {
		rec = durable.Record{Op: durable.OpSubmit, Now: ev.Time, Job: r.jobs[ev.Ref]}
	} else if r.admitted < len(r.jobs) {
		r.jobs[r.admitted].Submit = ev.Time
		r.h.Push(schedcore.Event{Time: ev.Time, Kind: schedcore.KindArrival, Ref: r.admitted})
		r.admitted++
	}
	r.req = appendHTTPRecord(r.req[:0], &rec)
	return r.req, 1, true
}

func (r *reactive) ack(resp []byte) error {
	r.reply.Started = r.reply.Started[:0]
	if err := json.Unmarshal(resp, &r.reply); err != nil {
		return fmt.Errorf("decoding reply %q: %w", resp, err)
	}
	for _, st := range r.reply.Started {
		r.h.Push(schedcore.Event{Time: st.Time + r.runtimeOf[st.ID], Kind: schedcore.KindCompletion, Ref: st.ID})
	}
	return nil
}

// phase is what one stretch of the writer loop (warm-up or timed)
// measured on the client side.
type phase struct {
	ops, records int
	failed       int
	wallSecs     float64
	latUs        []float64 // one per op, in op order
}

// readPaths is the reader's rotation: the JSON status and metrics
// views and the Prometheus scrape.
var readPaths = []string{"/v1/status", "/v1/metrics", "/metrics"}

// writer runs up to limit ops (all that remain when limit < 0) in a
// closed loop with window 1 and ticks the reader every readEvery ops.
// A reply that is not OK counts as a failed op; a broken connection ends
// the round.
func writer(c *conn, tr traffic, binary bool, limit, readEvery int, ticks chan<- struct{}, capacity int) (phase, error) {
	p := phase{latUs: make([]float64, 0, capacity)}
	t0 := time.Now()
	for limit < 0 || p.ops < limit {
		req, n, ok := tr.next()
		if !ok {
			break
		}
		var (
			resp []byte
			err  error
		)
		t := time.Now()
		if binary {
			resp, err = c.frame(req)
		} else {
			var status int
			status, resp, err = c.http(req)
			if err == nil && status != 200 {
				err = fmt.Errorf("status %d: %s", status, resp)
			}
		}
		p.latUs = append(p.latUs, float64(time.Since(t).Nanoseconds())/1e3)
		p.ops++
		p.records += n
		if err != nil {
			p.failed++
			if resp == nil {
				return p, fmt.Errorf("op %d: %w", p.ops, err)
			}
			fmt.Fprintf(os.Stderr, "bench: op %d failed: %v\n", p.ops, err)
		} else if err := tr.ack(resp); err != nil {
			return p, err
		}
		if ticks != nil && p.ops%readEvery == 0 {
			ticks <- struct{}{}
		}
	}
	p.wallSecs = time.Since(t0).Seconds()
	return p, nil
}

// reads is what the reader goroutine measured.
type reads struct {
	latUs    []float64
	scrapeUs []float64 // the /metrics subset
	failed   int       // replies that were not 200, and the read a broken connection cut
	err      error
}

// reader issues one GET per tick, rotating over readPaths, until ticks
// closes. Reads are tied to stream position, not wall time, so their
// number — and every counter they move in the daemon — repeats exactly.
func reader(c *conn, ticks <-chan struct{}, done chan<- reads) {
	var r reads
	reqs := make([][]byte, len(readPaths))
	for i, p := range readPaths {
		reqs[i] = appendHTTPRequest(nil, "GET", p, nil)
	}
	i := 0
	for range ticks {
		if r.err != nil {
			continue // keep draining so the writer never blocks
		}
		t := time.Now()
		status, _, err := c.http(reqs[i%len(reqs)])
		us := float64(time.Since(t).Nanoseconds()) / 1e3
		if err != nil {
			r.err = fmt.Errorf("read %d: %w", i, err)
			r.failed++
			continue
		}
		if status != 200 {
			r.failed++
		}
		r.latUs = append(r.latUs, us)
		if readPaths[i%len(reqs)] == "/metrics" {
			r.scrapeUs = append(r.scrapeUs, us)
		}
		i++
	}
	done <- r
}

// counters is the daemon-side state sampled around the timed phase.
type counters struct {
	proc procSample
	mem  memStats
	prom *promScrape // traced rounds only
}

// sampleCounters brackets the timed phase: opening takes the scrapes
// that cost the daemon work first and the kernel's own counters last,
// closing reverses the order, so the /proc deltas cover the timed phase
// and nothing else.
func sampleCounters(d *daemon, traced, closing bool) (counters, error) {
	var c counters
	// A fresh connection each time: the daemon closes keep-alive
	// connections that sat idle through a long phase.
	ctl, err := dial(d.httpAddr)
	if err != nil {
		return c, err
	}
	defer ctl.close()
	steps := []func() error{
		func() error {
			if !traced {
				return nil
			}
			body, err := ctl.get("/metrics")
			if err != nil {
				return err
			}
			c.prom, err = parseProm(string(body))
			return err
		},
		func() error {
			body, err := ctl.get("/debug/pprof/allocs?debug=1")
			if err != nil {
				return err
			}
			c.mem, err = parseMemStats(string(body))
			return err
		},
		func() (err error) {
			c.proc, err = sampleProc(d.pid())
			return err
		},
	}
	for i := range steps {
		step := steps[i]
		if closing {
			step = steps[len(steps)-1-i]
		}
		if err := step(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// adaptStatus is the slice of GET /v1/adapt the benchmark checks.
type adaptStatus struct {
	Enabled    bool   `json:"enabled"`
	Rounds     int    `json:"rounds"`
	Promotions int    `json:"promotions"`
	Policy     string `json:"policy"`
	LastError  string `json:"last_error"`
}

// round is everything one fresh daemon measured.
type round struct {
	bootSecs    float64
	setupSecs   float64
	recoverSecs float64
	warm        phase
	timed       phase
	reads       reads
	before      counters
	after       counters
	clientCPUNs int64
	got         view
	adapt       adaptStatus
	attempted   int
	failed      int
	profile     string // path of the CPU profile, traced rounds only
}

func (r *round) events() float64 { return float64(r.timed.records) }

var roundSeq int

// runRound boots a fresh daemon, pushes the warm-up prefix (set-up),
// measures the rest of the stream, checks the daemon's final state
// against the oracle, then crashes the daemon and times its return.
func runRound(w spec, s *stream, bin string, traced bool) (*round, error) {
	r := &round{}
	roundSeq++
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(journals.dir, "round-"+strconv.Itoa(roundSeq))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
	}
	args := w.daemonArgs(dataDir)

	t0 := time.Now()
	d, err := startDaemon(bin, args, w.binary)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	r.bootSecs = d.bootSecs

	waddr := d.httpAddr
	if w.binary {
		waddr = d.binAddr
	}
	wc, err := dial(waddr)
	if err != nil {
		return nil, err
	}
	defer wc.close()

	var tr traffic = &replay{s: s}
	warmOps := s.warmOps
	if w.adapt {
		status, body, err := wc.http(appendHTTPRequest(nil, "POST", "/v1/adapt", adaptStartBody(s.jobs, w.cores)))
		if err != nil || status != 200 {
			return nil, fmt.Errorf("POST /v1/adapt: status %d, %v: %s", status, err, body)
		}
		tr = newReactive(s.jobs, w.population)
		warmOps = 2 * w.warmJobs
	}
	r.warm, err = writer(wc, tr, w.binary, warmOps, 0, nil, warmOps)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.setupSecs = time.Since(t0).Seconds()

	var profDone chan error
	if traced {
		r.profile = filepath.Join(outDir, "cpu-"+w.name+".pb.gz")
		profDone = make(chan error, 1)
		go func() { profDone <- fetchProfile(d.httpAddr, r.profile) }()
		// The profiler is armed once its request is being served.
		time.Sleep(20 * time.Millisecond)
	}
	if r.before, err = sampleCounters(d, traced, false); err != nil {
		return nil, err
	}
	// Sized to the number of sends, so the writer never waits for a
	// reader that is queued behind a slow scrape.
	ticks := make(chan struct{}, 2*len(s.jobs)/w.readEvery+1)
	done := make(chan reads, 1)
	rc, err := dial(d.httpAddr)
	if err != nil {
		return nil, err
	}
	defer rc.close()
	go reader(rc, ticks, done)
	cpu0 := selfCPUNs()
	r.timed, err = writer(wc, tr, w.binary, -1, w.readEvery, ticks, 2*len(s.jobs))
	r.clientCPUNs = selfCPUNs() - cpu0
	close(ticks)
	r.reads = <-done
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	if r.reads.err != nil {
		return nil, r.reads.err
	}
	if r.after, err = sampleCounters(d, traced, true); err != nil {
		return nil, err
	}
	if profDone != nil {
		if err := <-profDone; err != nil {
			return nil, err
		}
	}
	r.attempted = r.warm.ops + r.timed.ops + len(r.reads.latUs)
	r.failed = r.warm.failed + r.timed.failed + r.reads.failed

	ctl, err := dial(d.httpAddr) // checks after the measurement
	if err != nil {
		return nil, err
	}
	defer ctl.close()
	if r.got, err = fetchView(ctl); err != nil {
		return nil, err
	}
	if !w.adapt && r.got != s.want {
		return nil, fmt.Errorf("daemon state differs from the oracle:\n got  %+v\n want %+v", r.got, s.want)
	}
	if w.adapt {
		body, err := ctl.get("/v1/adapt")
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(body, &r.adapt); err != nil {
			return nil, fmt.Errorf("GET /v1/adapt: %w", err)
		}
	}

	// Crash and return: SIGKILL, then the same command line again. A
	// journaled daemon must come back with the state it had; an
	// in-memory one comes back empty, and the time is its boot — a few
	// milliseconds, so it is taken a few times for a steadier minimum.
	d.kill()
	r.recoverSecs = math.Inf(1)
	for spent := 0.0; spent < restartBudgetSecs; {
		secs, back, err := restart(bin, args, w.binary)
		if err != nil {
			return nil, err
		}
		switch {
		case w.durable && back != r.got:
			return nil, fmt.Errorf("recovered state differs from the state before the crash:\n got  %+v\n want %+v", back, r.got)
		case !w.durable && back.Submitted != 0:
			return nil, fmt.Errorf("in-memory daemon restarted with %d submitted jobs", back.Submitted)
		}
		r.recoverSecs = math.Min(r.recoverSecs, secs)
		spent += secs
	}
	return r, nil
}

// restartBudgetSecs is how long a round keeps restarting the crashed
// daemon: one recovery of a journal, about ten boots of an empty daemon.
const restartBudgetSecs = 0.05

// restart executes the daemon again, reads its state back and kills it.
func restart(bin string, args []string, wantBinary bool) (secs float64, back view, err error) {
	t := time.Now()
	d, err := startDaemon(bin, args, wantBinary)
	if err != nil {
		return 0, back, fmt.Errorf("restart: %w", err)
	}
	defer d.kill()
	c, err := dial(d.httpAddr)
	if err != nil {
		return 0, back, err
	}
	defer c.close()
	back, err = fetchView(c)
	return time.Since(t).Seconds(), back, err
}

// fetchView reads /v1/status and /v1/metrics into one view.
func fetchView(c *conn) (view, error) {
	var v view
	for _, path := range []string{"/v1/status", "/v1/metrics"} {
		body, err := c.get(path)
		if err != nil {
			return v, err
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return v, fmt.Errorf("GET %s: %w", path, err)
		}
	}
	return v, nil
}

// fetchProfile takes a CPU profile of the daemon over the nominal length
// of a timed phase and saves it.
func fetchProfile(addr, path string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	body, err := c.get("/debug/pprof/profile?seconds=" + strconv.Itoa(profileSecs))
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
