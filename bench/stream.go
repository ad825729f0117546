package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/lublin"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/tsafrir"
	"github.com/hpcsched/gensched/internal/workload"
)

// genJobs draws the workload's jobs from the seed: Lublin sizes and
// runtimes for one shard's machine (a job must fit on one shard), Tsafrir
// estimates on top. Arrival instants are set by drive's closed system,
// not by the generator. The daemon only ever sees these jobs.
func genJobs(w spec, seed uint64, n int) ([]workload.Job, error) {
	gen, err := lublin.NewGenerator(lublin.DefaultParams(w.cores), w.cores, seed)
	if err != nil {
		return nil, err
	}
	jobs := gen.Jobs(n)
	if err := tsafrir.Apply(tsafrir.Default(), jobs, seed+1); err != nil {
		return nil, err
	}
	return jobs, nil
}

func parseBackfill(s string) (sim.BackfillMode, error) {
	switch s {
	case "none":
		return sim.BackfillNone, nil
	case "easy":
		return sim.BackfillEASY, nil
	case "conservative":
		return sim.BackfillConservative, nil
	}
	return 0, fmt.Errorf("unknown backfill mode %q", s)
}

// fedConfig is the in-process twin of the daemon's configuration. One
// shard of a federation is the single engine (the repo's differential
// tests pin that), so the same twin serves both server kinds. Seed 1 is
// schedd's -fed-seed default.
func (w spec) fedConfig() (fed.Config, error) {
	p, err := sched.ByName(w.policy)
	if err != nil {
		return fed.Config{}, err
	}
	bf, err := parseBackfill(w.backfill)
	if err != nil {
		return fed.Config{}, err
	}
	return fed.Config{
		Shards:     w.shards,
		ShardCores: w.cores,
		Opt:        online.Options{Policy: p, UseEstimates: w.estimates, Backfill: bf},
		Seed:       1,
	}, nil
}

// drive replays jobs through apply the way a resource manager front-end
// would: every job is completed when its runtime has elapsed after the
// start the scheduler announced, completions before arrivals within an
// instant, as in the batch engine. apply returns the starts its record
// caused.
//
// Arrivals are those of a closed system: population jobs arrive at time
// zero and each completion admits the next job at the same instant, so
// the number of jobs in the system — and with it the queue depth, which
// is what a scheduling pass costs — is fixed by construction. With open
// arrivals calibrated to an offered load, the depth follows how a seed's
// heavy-tailed runtimes happen to pile up, and the same workload ran
// 1.5× slower on one seed than on another. drive sets the jobs' Submit.
func drive(jobs []workload.Job, population int, apply func(rec *durable.Record) ([]online.Start, error)) error {
	runtimeOf := make(map[int]float64, len(jobs))
	var h schedcore.EventHeap
	admitted := 0
	for i := range jobs {
		runtimeOf[jobs[i].ID] = jobs[i].Runtime
		jobs[i].Submit = 0
		if i < population {
			h.Push(schedcore.Event{Time: 0, Kind: schedcore.KindArrival, Ref: i})
			admitted++
		}
	}
	var rec durable.Record
	for h.Len() > 0 {
		ev := h.Pop()
		if ev.Kind == schedcore.KindArrival {
			rec = durable.Record{Op: durable.OpSubmit, Now: ev.Time, Job: jobs[ev.Ref]}
		} else {
			rec = durable.Record{Op: durable.OpComplete, Now: ev.Time, ID: ev.Ref}
			if admitted < len(jobs) {
				jobs[admitted].Submit = ev.Time
				h.Push(schedcore.Event{Time: ev.Time, Kind: schedcore.KindArrival, Ref: admitted})
				admitted++
			}
		}
		starts, err := apply(&rec)
		if err != nil {
			return err
		}
		for _, st := range starts {
			h.Push(schedcore.Event{Time: st.Time + runtimeOf[st.ID], Kind: schedcore.KindCompletion, Ref: st.ID})
		}
	}
	return nil
}

// applyFed is drive's apply over an in-process federation.
func applyFed(fd *fed.Federation, buf *[]online.Start) func(rec *durable.Record) ([]online.Start, error) {
	return func(rec *durable.Record) ([]online.Start, error) {
		var err error
		if rec.Op == durable.OpSubmit {
			_, *buf, _, err = fd.Submit(rec.Now, rec.Job, (*buf)[:0])
		} else {
			*buf, _, err = fd.Complete(rec.Now, rec.ID, (*buf)[:0])
		}
		return *buf, err
	}
}

// view is what the benchmark compares between the daemon and the oracle:
// the fields /v1/status and /v1/metrics share across both server kinds.
// Floats compare bit-equal — Go's JSON encoding of a float64 round-trips.
type view struct {
	Now        float64 `json:"now"`
	FreeCores  int     `json:"free_cores"`
	Queued     int     `json:"queued"`
	Running    int     `json:"running"`
	Submitted  int     `json:"submitted"`
	Completed  int     `json:"completed"`
	Policy     string  `json:"policy"`
	Backfilled int     `json:"backfilled"`
	MaxQueue   int     `json:"max_queue_len"`
	AveBsld    float64 `json:"ave_bsld"`
	MeanWait   float64 `json:"mean_wait"`
	MaxBsld    float64 `json:"max_bsld"`
	MaxWait    float64 `json:"max_wait"`
	Util       float64 `json:"utilization"`
}

func fedView(fd *fed.Federation) view {
	st := fd.Status()
	m, _ := fd.Metrics()
	return view{
		Now: st.Now, FreeCores: st.FreeCores, Queued: st.Queued, Running: st.Running,
		Submitted: st.Submitted, Completed: st.Completed, Policy: st.Policy,
		Backfilled: m.Backfilled, MaxQueue: m.MaxQueueLen, AveBsld: m.AveBsld,
		MeanWait: m.MeanWait, MaxBsld: m.MaxBSLD, MaxWait: m.MaxWait, Util: m.Utilization,
	}
}

// stream is one workload's precomputed traffic: every writer op as the
// bytes that go on the socket, and the oracle's view after the last one.
type stream struct {
	jobs    []workload.Job
	buf     []byte // all ops back to back
	ends    []int  // ends[i] is the end offset of op i in buf
	frame   int    // records per full op
	warmOps int    // ops [0, warmOps) are the untimed set-up prefix
	records int    // submit+complete records in the whole stream
	warmRec int    // records in the warm-up prefix
	want    view   // oracle state after the last op
	genSecs float64
}

func (s *stream) op(i int) []byte {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.buf[start:s.ends[i]]
}

// hash identifies the stream's bytes; same seed, same hash.
func (s *stream) hash() string {
	sum := sha256.Sum256(s.buf)
	return hex.EncodeToString(sum[:8])
}

// buildStream generates the jobs, drives the in-process oracle through
// them and encodes each record as the daemon will receive it: one HTTP
// request per record, or binary frames of w.frame records.
func buildStream(w spec, seed uint64, secs float64) (*stream, error) {
	w = w.sized()
	jobs, err := genJobs(w, seed, w.jobs(secs))
	if err != nil {
		return nil, err
	}
	cfg, err := w.fedConfig()
	if err != nil {
		return nil, err
	}
	fd, err := fed.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &stream{jobs: jobs, frame: w.frame}
	var (
		starts  []online.Start
		pending []durable.Record // records of the frame being filled
		payload []byte
		oracle  = applyFed(fd, &starts)
	)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		payload, err = fed.AppendBatchMsg(payload[:0], pending)
		if err != nil {
			return err
		}
		s.buf = fed.AppendFrame(s.buf, payload)
		s.ends = append(s.ends, len(s.buf))
		pending = pending[:0]
		return nil
	}
	warmRecs := 2 * w.warmJobs
	err = drive(jobs, w.population, func(rec *durable.Record) ([]online.Start, error) {
		if s.records == warmRecs {
			// The warm-up ends on an op boundary.
			if err := flush(); err != nil {
				return nil, err
			}
			s.warmOps, s.warmRec = len(s.ends), s.records
		}
		s.records++
		if w.binary {
			pending = append(pending, *rec)
			if len(pending) == w.frame {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		} else {
			s.buf = appendHTTPRecord(s.buf, rec)
			s.ends = append(s.ends, len(s.buf))
		}
		return oracle(rec)
	})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	s.want = fedView(fd)
	return s, nil
}

// appendHTTPRecord renders one record as a complete HTTP/1.1 request on
// a keep-alive connection.
func appendHTTPRecord(dst []byte, rec *durable.Record) []byte {
	var body [192]byte
	b := body[:0]
	path := "/v1/complete"
	if rec.Op == durable.OpSubmit {
		path = "/v1/submit"
		j := rec.Job
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(j.ID), 10)
		b = append(b, `,"cores":`...)
		b = strconv.AppendInt(b, int64(j.Cores), 10)
		b = append(b, `,"runtime":`...)
		b = strconv.AppendFloat(b, j.Runtime, 'g', -1, 64)
		b = append(b, `,"estimate":`...)
		b = strconv.AppendFloat(b, j.Estimate, 'g', -1, 64)
		b = append(b, `,"submit":`...)
		b = strconv.AppendFloat(b, j.Submit, 'g', -1, 64)
	} else {
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(rec.ID), 10)
	}
	b = append(b, `,"now":`...)
	b = strconv.AppendFloat(b, rec.Now, 'g', -1, 64)
	b = append(b, '}')
	return appendHTTPRequest(dst, "POST", path, b)
}

func appendHTTPRequest(dst []byte, method, path string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: schedd\r\n"...)
	if body != nil {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}
