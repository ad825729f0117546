// Telemetry surface: the Prometheus text-exposition /metrics endpoint,
// the /v1/trace decision-trace export, the per-endpoint wall-clock
// latency histograms, and optional net/http/pprof.
//
// The determinism split lives here: everything below the HTTP boundary
// (the Sink the scheduler stack writes) runs on the logical clock, and
// the only wall-clock reads are in the timed() wrapper — measured at
// the daemon edge, fed into an Edge the genschedvet detlint rule bans
// from deterministic zones. A fixed-seed workload therefore produces a
// byte-identical /v1/trace stream no matter how it was timed.

package main

import (
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"time"

	"github.com/hpcsched/gensched/internal/telemetry"
)

// edgeEndpoints is the fixed per-endpoint latency label set. /metrics,
// /v1/trace and /healthz stay untimed: scrapes and probes measuring
// themselves add noise, not signal.
var edgeEndpoints = []string{
	"submit", "complete", "advance", "policy", "adapt", "status", "metrics",
}

// timed wraps a handler with edge latency measurement. This is the one
// place the daemon reads a wall clock for telemetry; with telemetry
// disabled (edge nil) the wrapper is a plain call.
func (sv *server) timed(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if sv.edge == nil {
			h(w, r)
			return
		}
		t0 := time.Now()
		h(w, r)
		sv.edge.Observe(name, time.Since(t0).Seconds())
	}
}

// promMetrics serves GET /metrics in the Prometheus text exposition
// format: federation-level gauges, the per-shard sinks folded into one
// (counters sum, histograms merge bucket-wise), the shards' trace
// counters, then the daemon-edge latency histograms. Each shard's sink
// is single-writer state read under that shard's lock — a bounded
// in-memory copy, microseconds — and the edge histograms are internally
// locked.
func (sv *server) promMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var merged telemetry.Sink
	traced, dropped, ok := sv.fd.MergeSinks(&merged)
	if !ok {
		writeErr(w, http.StatusNotFound, "telemetry is disabled (-telemetry=false)")
		return
	}
	var ew telemetry.ExpositionWriter
	st := sv.fd.Status()
	ew.Gauge("gensched_clock_seconds", "Maximum shard logical clock.", st.Now)
	ew.Gauge("gensched_shards", "Shard count.", float64(st.Shards))
	ew.Gauge("gensched_cores", "Total cores across shards.", float64(st.Cores))
	ew.Gauge("gensched_free_cores", "Cores currently idle across shards.", float64(st.FreeCores))
	ew.Gauge("gensched_queued_jobs", "Jobs currently waiting across shards.", float64(st.Queued))
	ew.Gauge("gensched_running_jobs", "Jobs currently running across shards.", float64(st.Running))
	ew.Gauge("gensched_fed_stolen_placements", "Placements diverted off their hash-primary shard.", float64(st.Stolen))
	if sv.fd.Durable() {
		down := 0
		for _, h := range sv.fd.Health() {
			if h.Quarantined {
				down++
			}
		}
		ew.Gauge("gensched_quarantined_shards", "Shards whose journal latched a failure.", float64(down))
	}
	telemetry.WriteSink(&ew, &merged)
	ew.Counter("gensched_trace_events_total", "Decision-trace events recorded.", traced)
	ew.Counter("gensched_trace_events_dropped_total", "Decision-trace events overwritten before export.", dropped)
	if sv.edge != nil {
		sv.edge.WriteExposition(&ew)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = ew.WriteTo(w) // a scraper that hung up mid-body is its own problem
}

// parseTraceQuery validates the /v1/trace query parameters. The
// semantics, in one place:
//
//   - sample=K keeps every K-th event by sequence number (seq%K == 0).
//     K must be a positive integer; sample=0 (and any K < 1) is rejected
//     with the same 400 on every daemon configuration.
//   - limit=N caps to the most recent N events AFTER sampling — sampling
//     first, then the recency cap — so sample=10&limit=100 means "the
//     last 100 of the 1-in-10 thinned stream", never "1 in 10 of the
//     last 100". telemetry.Tracer.Events and fed.MergedTrace both
//     implement this order, and TestTraceSampleThenLimit pins it.
//
// A non-empty errMsg is a 400 the caller must report.
func parseTraceQuery(q url.Values) (sample, limit int, format, errMsg string) {
	sample, limit = 1, 0
	if s := q.Get("sample"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			return 0, 0, "", "sample must be a positive integer"
		}
		sample = v
	}
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return 0, 0, "", "limit must be a non-negative integer"
		}
		limit = v
	}
	format = q.Get("format")
	if format != "" && format != "jsonl" && format != "chrome" {
		return 0, 0, "", "format must be jsonl or chrome"
	}
	return sample, limit, format, ""
}

// trace serves GET /v1/trace: the shards' decision traces merged into
// the canonical (clock, shard, seq) order, as JSONL (default) or Chrome
// trace-event JSON (?format=chrome), with ?sample=K keeping every K-th
// event by sequence (per shard) and ?limit=N capping the merged stream
// to the most recent N after sampling (see parseTraceQuery for the full
// contract). JSONL lines carry a leading "shard" field spliced onto the
// event encoding; the Chrome rendering drops the shard tag (the viewer's
// timeline has no lane for it) but keeps the merged order.
func (sv *server) trace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if sv.fd.ShardSink(0) == nil {
		writeErr(w, http.StatusNotFound, "telemetry is disabled (-telemetry=false)")
		return
	}
	sample, limit, format, errMsg := parseTraceQuery(r.URL.Query())
	if errMsg != "" {
		writeErr(w, http.StatusBadRequest, errMsg)
		return
	}
	evs := sv.fd.MergedTrace(sample, limit)
	if format == "chrome" {
		plain := make([]telemetry.Event, len(evs))
		for i, e := range evs {
			plain[i] = e.Event
		}
		w.Header().Set("Content-Type", "application/json")
		_ = telemetry.WriteEventsChrome(w, plain) // client went away mid-stream; nothing actionable
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	var line, ej []byte
	for _, e := range evs {
		line = append(line[:0], `{"shard":`...)
		line = strconv.AppendInt(line, int64(e.Shard), 10)
		line = append(line, ',')
		ej = telemetry.AppendEventJSON(ej[:0], e.Event)
		line = append(line, ej[1:]...) // splice past the event's '{'
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return // client went away mid-stream; nothing actionable
		}
	}
}

// registerPprof exposes net/http/pprof under /debug/pprof/ when the
// daemon was started with -pprof. Explicit registration (not the
// package's init side effect on DefaultServeMux) so the profiler is
// opt-in on the daemon's own mux.
func registerPprof(mux *http.ServeMux, on bool) {
	if !on {
		return
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
