// The daemon's one server: a fed.Federation of -shards shard schedulers
// (one shard is the single engine, bit for bit) behind the HTTP/JSON
// API and the binary wire. The federation does its own locking — the
// router under one mutex, each shard under its own — so there is no
// handler-wide lock and requests for different shards run concurrently.
// /v1/status and /v1/metrics carry the aggregate AND the per-shard
// breakdown.
//
// With -data-dir each shard journals to its own WAL+snapshot store under
// <data-dir>/shard-NNNN/ and recovers independently on boot (a flat
// pre-federation layout is refused). A shard whose store
// fails is quarantined — mutations targeting it return 503 with
// Retry-After while healthy shards keep serving — and /healthz +
// /v1/status report per-shard health.

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/workload"
)

// server serves a federation. Responses are rendered into pooled
// buffers; the federation copies start notifications out of the shard
// schedulers' scratch into pooled slices, so the steady-state mutation
// path allocates only what request decoding needs.
type server struct {
	fd        *fed.Federation
	realClock bool
	epoch     time.Time

	// edge holds the wall-clock per-endpoint latency histograms, fed only
	// at the HTTP boundary (see telemetry.go); nil with -telemetry=false.
	edge    *telemetry.Edge
	pprofOn bool

	bufs   sync.Pool // *[]byte response buffers
	starts sync.Pool // *[]online.Start scratch
}

// newServer serves fd with the daemon-edge options of cfg: the clock
// source, edge latency histograms (with -telemetry) and pprof.
func newServer(fd *fed.Federation, cfg daemonConfig) *server {
	sv := &server{
		fd:        fd,
		realClock: cfg.clock == "real",
		// Under -clock real, wall time continues from a recovered clock
		// instead of restarting at zero, which would stall every stamp
		// until wall time caught up with the recovered state.
		epoch:   time.Now().Add(-time.Duration(fd.Clock() * float64(time.Second))),
		pprofOn: cfg.pprofFlag,
		bufs:    sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }},
		starts:  sync.Pool{New: func() any { s := make([]online.Start, 0, 64); return &s }},
	}
	if cfg.telemetry {
		sv.edge = telemetry.NewEdge(edgeEndpoints...)
	}
	return sv
}

// badRequestError marks a request the client got wrong — shape, syntax,
// unknown names: 400. Other handler errors default to 409 Conflict (the
// request was well-formed but the scheduler state refuses it: duplicate
// ID, backward clock, loop already running).
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error { return &badRequestError{err: err} }

// errStatus maps a handler error to its HTTP status. Degradation errors
// carry their own mapping: a quarantined shard or a drain in progress
// refuses before applying (503, retryable), while a journal failure
// after the mutation applied is a 500.
func errStatus(err error) int {
	var bad *badRequestError
	if errors.As(err, &bad) {
		return http.StatusBadRequest
	}
	var down *fed.ShardDownError
	if errors.As(err, &down) || errors.Is(err, fed.ErrDraining) {
		return http.StatusServiceUnavailable
	}
	var broken *fed.ShardBrokenError
	if errors.As(err, &broken) {
		return http.StatusInternalServerError
	}
	return http.StatusConflict
}

// retryAfterSecs is the Retry-After value on every retryable 503: long
// enough that a polite client's backoff dominates, short enough that a
// drain-then-restart rolls through quickly.
const retryAfterSecs = "1"

// writeHandlerErr renders a handler error, attaching Retry-After to
// retryable refusals so polite clients back off instead of hammering a
// draining or degraded daemon.
func writeHandlerErr(w http.ResponseWriter, err error) {
	if fed.Retryable(err) {
		w.Header().Set("Retry-After", retryAfterSecs)
	}
	writeErr(w, errStatus(err), err.Error())
}

func (sv *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", sv.timed("submit", sv.post(sv.submit)))
	mux.HandleFunc("/v1/complete", sv.timed("complete", sv.post(sv.complete)))
	mux.HandleFunc("/v1/advance", sv.timed("advance", sv.post(sv.advance)))
	mux.HandleFunc("/v1/policy", sv.timed("policy", sv.post(sv.policy)))
	mux.HandleFunc("/v1/adapt", sv.timed("adapt", sv.adapt))
	mux.HandleFunc("/v1/status", sv.timed("status", sv.get(sv.status)))
	mux.HandleFunc("/v1/metrics", sv.timed("metrics", sv.get(sv.metrics)))
	mux.HandleFunc("/v1/trace", sv.trace)
	mux.HandleFunc("/metrics", sv.promMetrics)
	mux.HandleFunc("/healthz", sv.healthz)
	registerPprof(mux, sv.pprofOn)
	return mux
}

// healthz reports whether the daemon should take traffic. A shard whose
// journal failed is quarantined: its memory may be ahead of its disk, so
// it refuses every further mutation. While some shards are healthy the
// daemon stays in the load balancer rotation (per-request 503s steer
// clients off the dead shard); once none is, it reports 503. A clean
// drain is not a failure and keeps reporting 200.
func (sv *server) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeErr(w, http.StatusMethodNotAllowed, "GET or HEAD only")
		return
	}
	health := sv.fd.Health()
	down := 0
	for _, h := range health {
		if h.Quarantined {
			down++
		}
	}
	switch {
	case down == 0:
		_, _ = w.Write([]byte("ok\n")) // a probe that hung up is its own problem
	case down < len(health):
		fmt.Fprintf(w, "degraded (%d/%d shards quarantined)\n", down, len(health))
	default:
		w.Header().Set("Retry-After", retryAfterSecs)
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Sprintf("durable store failed: all %d shard(s) quarantined", len(health)))
	}
}

// request is the body every mutating endpoint accepts; endpoints read the
// fields they need. Now is a pointer so an explicit "now":0 — a real
// instant on the logical clock — is distinguishable from an omitted
// field.
type request struct {
	ID       int      `json:"id"`
	Cores    int      `json:"cores"`
	Runtime  float64  `json:"runtime"`
	Estimate float64  `json:"estimate"`
	Submit   float64  `json:"submit"`
	Now      *float64 `json:"now"`
	Name     string   `json:"name"`
	Expr     string   `json:"expr"`
}

func (sv *server) post(h func(http.ResponseWriter, *request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if err := r.Context().Err(); err != nil {
			// Shutting down or the client is gone: say so rather than
			// letting net/http emit an empty 200 for an unapplied mutation.
			writeErr(w, http.StatusServiceUnavailable, "request cancelled before processing")
			return
		}
		var req request
		r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		if err := h(w, &req); err != nil {
			writeHandlerErr(w, err)
		}
	}
}

func (sv *server) get(h func(http.ResponseWriter)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		h(w)
	}
}

// now resolves the effective clock for a request: wall time since boot
// under -clock real; otherwise the request's "now" (an explicit 0 IS
// instant zero), then "submit" when positive, then the federation clock
// (the maximum shard clock — each shard clamps to its own, so no shard
// clock ever moves backward).
func (sv *server) now(req *request) float64 {
	if sv.realClock {
		return time.Since(sv.epoch).Seconds()
	}
	if req.Now != nil {
		return *req.Now
	}
	if req.Submit > 0 {
		return req.Submit
	}
	return sv.fd.Clock()
}

// apply runs one client record through the federation as a one-record
// batch, committed before it returns: the HTTP endpoints' path. Starts
// are appended to buf; shard is where a submit landed (-1 for other
// ops) and clock that shard's clock — the maximum shard clock for the
// ops that touch every shard.
func (sv *server) apply(rec *durable.Record, buf []online.Start) (shard int, starts []online.Start, clock float64, err error) {
	b := sv.fd.Batch()
	shard, starts, clock, err = sv.applyIn(&b, rec, buf)
	return shard, starts, clock, b.Commit(err)
}

// applyIn applies one client record into batch b, which the caller
// commits: the one mutation path behind the HTTP endpoints and the
// binary wire.
func (sv *server) applyIn(b *fed.Batch, rec *durable.Record, buf []online.Start) (shard int, starts []online.Start, clock float64, err error) {
	shard, starts = -1, buf
	switch rec.Op {
	case durable.OpSubmit:
		// Shape problems — nonpositive cores or runtime, wider than one
		// shard — are the client's fault: 400, before anything mutates.
		// What remains for the scheduler are state conflicts (duplicate
		// ID, future submit), which stay 409.
		if err := rec.Job.Validate(sv.fd.ShardCores()); err != nil {
			return -1, buf, 0, badRequest(err)
		}
		return b.Submit(rec.Now, rec.Job, buf)
	case durable.OpComplete:
		starts, clock, err = b.Complete(rec.Now, rec.ID, buf)
	case durable.OpAdvance:
		starts, clock, err = b.AdvanceTo(rec.Now, buf)
	case durable.OpPolicy:
		_, err = sv.setPolicy(b, rec.Name, rec.Expr)
		clock = sv.fd.Clock()
	case durable.OpAdaptStart:
		err = sv.fd.StartAdapt(*rec.Adapt)
		clock = sv.fd.Clock()
	case durable.OpAdaptStop:
		err = sv.fd.StopAdapt()
		clock = sv.fd.Clock()
	default:
		return -1, buf, 0, badRequest(fmt.Errorf("op %v is not a client request", rec.Op))
	}
	return shard, starts, clock, err
}

// setPolicy resolves a policy descriptor and swaps it in on every shard
// through b; the journal records the descriptor, not the value.
func (sv *server) setPolicy(b *fed.Batch, name, expr string) (sched.Policy, error) {
	p, err := resolvePolicy(name, expr)
	if err != nil {
		return nil, badRequest(err)
	}
	return p, b.SetPolicy(p, name, expr)
}

// mutate applies one scheduling record and renders the
// {"started":[...],"now":..} response from pooled buffers, with the
// landing shard for a submit.
func (sv *server) mutate(w http.ResponseWriter, rec *durable.Record) error {
	sp := sv.starts.Get().(*[]online.Start)
	shard, starts, clock, err := sv.apply(rec, (*sp)[:0])
	*sp = starts
	if err == nil {
		bp := sv.bufs.Get().(*[]byte)
		buf := append((*bp)[:0], `{"started":[`...)
		buf = appendStarts(buf, starts)
		buf = append(buf, `],"now":`...)
		buf = strconv.AppendFloat(buf, clock, 'g', -1, 64)
		if shard >= 0 {
			buf = append(buf, `,"shard":`...)
			buf = strconv.AppendInt(buf, int64(shard), 10)
		}
		buf = append(buf, '}', '\n')
		writeJSON(w, buf)
		*bp = buf
		sv.bufs.Put(bp)
	}
	sv.starts.Put(sp)
	return err
}

func (sv *server) submit(w http.ResponseWriter, req *request) error {
	return sv.mutate(w, &durable.Record{Op: durable.OpSubmit, Now: sv.now(req), Job: workload.Job{
		ID:       req.ID,
		Submit:   req.Submit,
		Runtime:  req.Runtime,
		Estimate: req.Estimate,
		Cores:    req.Cores,
	}})
}

func (sv *server) complete(w http.ResponseWriter, req *request) error {
	return sv.mutate(w, &durable.Record{Op: durable.OpComplete, Now: sv.now(req), ID: req.ID})
}

func (sv *server) advance(w http.ResponseWriter, req *request) error {
	return sv.mutate(w, &durable.Record{Op: durable.OpAdvance, Now: sv.now(req)})
}

func (sv *server) policy(w http.ResponseWriter, req *request) error {
	b := sv.fd.Batch()
	p, err := sv.setPolicy(&b, req.Name, req.Expr)
	if err = b.Commit(err); err != nil {
		return err
	}
	writeJSON(w, append(appendJSONString([]byte(`{"policy":`), p.Name()), '}', '\n'))
	return nil
}

// The read endpoints on the benchmark's reader rotation — /v1/status and
// /v1/metrics — render straight into pooled buffers like the mutation
// responses do: a read queues behind the mutations it interleaves with,
// so its cost shows in read_p50_us, and encoding/json's reflection was a
// third of it. /v1/adapt, a control endpoint, stays on encoding/json.

// status renders the aggregate view and, per shard, its counts, policy
// and — on a journaled daemon — its health and recovery provenance:
// quarantined + store_error report degradation, the rest is where the
// journal stands and how this process came back from it.
func (sv *server) status(w http.ResponseWriter) {
	st := sv.fd.Status()
	var health []fed.ShardHealth
	healthy := st.Shards
	if sv.fd.Durable() {
		health = sv.fd.Health()
		for _, h := range health {
			if h.Quarantined {
				healthy--
			}
		}
	}
	bp := sv.bufs.Get().(*[]byte)
	o := jsonObject{b: (*bp)[:0]}
	o.open()
	o.float("now", st.Now)
	o.int("shards", st.Shards)
	o.int("healthy_shards", healthy)
	o.boolIf("draining", sv.fd.Draining())
	o.boolIf("durable", health != nil)
	o.int("cores", st.Cores)
	o.int("free_cores", st.FreeCores)
	o.int("queued", st.Queued)
	o.int("running", st.Running)
	o.int("submitted", st.Submitted)
	o.int("completed", st.Completed)
	o.int("stolen", st.Stolen)
	o.str("policy", st.Policy)
	if st.Violation != "" {
		o.str("invariant_violation", st.Violation)
	}
	o.key("per_shard")
	o.b = append(o.b, '[')
	for i, s := range st.PerShard {
		if i > 0 {
			o.b = append(o.b, ',')
		}
		o.open()
		o.float("now", s.Now)
		o.int("cores", s.Cores)
		o.int("free_cores", s.FreeCores)
		o.int("queued", s.Queued)
		o.int("running", s.Running)
		o.int("submitted", s.Submitted)
		o.int("completed", s.Completed)
		o.str("policy", s.Policy)
		if health != nil {
			h := &health[i]
			o.boolIf("quarantined", h.Quarantined)
			if h.StoreErr != "" {
				o.str("store_error", h.StoreErr)
			}
			o.uint("journal_seq", h.Seq)
			o.float("last_checkpoint_clock", h.LastCheckpoint)
			o.boolIf("recovered", h.Recovered)
			if h.FromSnapshot {
				o.boolIf("from_snapshot", true)
				o.uint("snapshot_seq", h.SnapshotSeq)
				o.float("snapshot_clock", h.SnapshotClock)
			}
			o.int("replayed_records", h.Replayed)
			o.int("segments_scanned", h.Segments)
		}
		o.close()
	}
	o.b = append(o.b, ']')
	o.close()
	sv.writeObject(w, bp, o.b)
}

// metrics renders the merged metrics with the per-shard list.
func (sv *server) metrics(w http.ResponseWriter) {
	merged, per := sv.fd.Metrics()
	bp := sv.bufs.Get().(*[]byte)
	o := jsonObject{b: (*bp)[:0]}
	o.open()
	o.metrics(merged)
	o.key("per_shard")
	o.b = append(o.b, '[')
	for i := range per {
		if i > 0 {
			o.b = append(o.b, ',')
		}
		o.open()
		o.metrics(per[i])
		o.close()
	}
	o.b = append(o.b, ']')
	o.close()
	sv.writeObject(w, bp, o.b)
}

// writeObject sends a rendered object as one line and returns its
// buffer to the pool.
func (sv *server) writeObject(w http.ResponseWriter, bp *[]byte, buf []byte) {
	buf = append(buf, '\n')
	writeJSON(w, buf)
	*bp = buf
	sv.bufs.Put(bp)
}

// jsonObject appends the members of JSON objects to b. Floats render
// exactly as encoding/json renders them; strings are escaped.
type jsonObject struct {
	b     []byte
	first bool // no member written yet in the innermost open object
}

func (o *jsonObject) open()  { o.b, o.first = append(o.b, '{'), true }
func (o *jsonObject) close() { o.b, o.first = append(o.b, '}'), false }

func (o *jsonObject) key(k string) {
	if !o.first {
		o.b = append(o.b, ',')
	}
	o.first = false
	o.b = append(o.b, '"')
	o.b = append(o.b, k...)
	o.b = append(o.b, '"', ':')
}

func (o *jsonObject) int(k string, v int) {
	o.key(k)
	o.b = strconv.AppendInt(o.b, int64(v), 10)
}

func (o *jsonObject) uint(k string, v uint64) {
	o.key(k)
	o.b = strconv.AppendUint(o.b, v, 10)
}

func (o *jsonObject) float(k string, v float64) {
	o.key(k)
	o.b = appendJSONFloat(o.b, v)
}

func (o *jsonObject) str(k, v string) {
	o.key(k)
	o.b = appendJSONString(o.b, v)
}

// boolIf writes a true flag and omits a false one.
func (o *jsonObject) boolIf(k string, v bool) {
	if v {
		o.key(k)
		o.b = append(o.b, "true"...)
	}
}

func (o *jsonObject) metrics(m online.Metrics) {
	o.int("submitted", m.Submitted)
	o.int("completed", m.Completed)
	o.int("backfilled", m.Backfilled)
	o.int("max_queue_len", m.MaxQueueLen)
	o.float("ave_bsld", m.AveBsld)
	o.float("mean_wait", m.MeanWait)
	o.float("max_bsld", m.MaxBSLD)
	o.float("max_wait", m.MaxWait)
	o.float("utilization", m.Utilization)
}

// appendJSONFloat renders f the way encoding/json does — shortest
// round-trip digits, exponent form outside [1e-6, 1e21) — except that
// a non-finite value, which JSON cannot carry, renders as null.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString renders s as a JSON string: quotes, backslashes and
// control characters escaped, everything else as is.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, `\u00`...)
			b = append(b, "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// marshalJSON renders a cold-path response through encoding/json.
func marshalJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, append(buf, '\n'))
}

// appendStarts renders start notifications into the response buffer.
func appendStarts(buf []byte, starts []online.Start) []byte {
	for i, st := range starts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(st.ID), 10)
		buf = append(buf, `,"time":`...)
		buf = strconv.AppendFloat(buf, st.Time, 'g', -1, 64)
		buf = append(buf, `,"wait":`...)
		buf = strconv.AppendFloat(buf, st.Wait, 'g', -1, 64)
		buf = append(buf, `,"backfilled":`...)
		buf = strconv.AppendBool(buf, st.Backfilled)
		buf = append(buf, '}')
	}
	return buf
}

// Response-body write errors mean the client went away mid-reply; the
// mutation (if any) already applied and there is nothing actionable
// server-side, so the discard is deliberate and explicit.

func writeJSON(w http.ResponseWriter, buf []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(appendJSONString([]byte(`{"error":`), msg), '}', '\n'))
}
