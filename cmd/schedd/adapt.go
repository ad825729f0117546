package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"github.com/hpcsched/gensched/internal/adaptive"
	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/fed"
)

// The /v1/adapt endpoint controls the daemon's closed-loop adaptive
// retrainer (internal/adaptive), one loop per shard (internal/fed:
// adapt.go):
//
//	POST /v1/adapt {"action":"start","interval":3600,...}  attach the loops
//	POST /v1/adapt {"action":"stop"}                       detach them
//	GET  /v1/adapt                                         loop status
//
// While a loop is attached, every successful submit feeds its shard's
// observation window, and every mutating request that moves a shard's
// logical clock also runs any adaptation round that came due there — the
// periodic trigger rides on the clock the requests already carry, so the
// daemon stays free of background goroutines and the loop stays
// deterministic for a given request stream. Promotions apply through the
// same policy hot-swap the /v1/policy endpoint uses, on that shard.
//
// A round retrains from the observed window and shadow-evaluates the
// candidates, which costs a few hundred milliseconds at the default
// sizing (BenchmarkAdaptiveLoop); it runs under its shard's lock — the
// request that trips an interval boundary stalls for the round, and the
// shard serves nothing else meanwhile (other shards do) — so shrink
// tuples/trials if that latency spike matters.

// adaptRequest is the /v1/adapt POST body. Zero sizing fields select the
// adaptive package defaults; interval is required for "start".
type adaptRequest struct {
	Action    string  `json:"action"` // start | stop
	Window    int     `json:"window"`
	MinWindow int     `json:"min_window"`
	Interval  float64 `json:"interval"`
	MinDrift  float64 `json:"min_drift"`
	SSize     int     `json:"ssize"`
	QSize     int     `json:"qsize"`
	Tuples    int     `json:"tuples"`
	Trials    int     `json:"trials"`
	TopK      int     `json:"topk"`
	Margin    float64 `json:"margin"`
	Cooldown  float64 `json:"cooldown"`
	Workers   int     `json:"workers"`
	Seed      uint64  `json:"seed"`
}

func (sv *server) adapt(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		sv.adaptStatus(w)
	case http.MethodPost:
		sv.adaptControl(w, r)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// validateAdapt requires a positive interval and caps the sizing fields
// a start request may carry: the window is backed by a real allocation
// and every round runs inline under a shard lock, so one unbounded
// request must not be able to OOM the daemon or wedge it in an
// hours-long round. Deliberately larger experiments belong in the
// library API, not at the network boundary.
func validateAdapt(req *adaptRequest) error {
	if !(req.Interval > 0) {
		return adaptive.ErrNoInterval
	}
	for _, f := range []struct {
		name string
		got  int
		max  int
	}{
		{"window", req.Window, 1 << 16},
		{"min_window", req.MinWindow, 1 << 16},
		{"tuples", req.Tuples, 64},
		{"trials", req.Trials, 1 << 16},
		{"ssize", req.SSize, 4096},
		{"qsize", req.QSize, 4096},
		{"topk", req.TopK, 32},
		{"workers", req.Workers, 256},
	} {
		if f.got < 0 || f.got > f.max {
			return fmt.Errorf("%s %d outside [0, %d]", f.name, f.got, f.max)
		}
	}
	return nil
}

func (sv *server) adaptControl(w http.ResponseWriter, r *http.Request) {
	var req adaptRequest
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	var rec durable.Record
	switch req.Action {
	case "start":
		if err := validateAdapt(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		rec = durable.Record{Op: durable.OpAdaptStart, Adapt: &durable.AdaptConfig{
			Window:    req.Window,
			MinWindow: req.MinWindow,
			Interval:  req.Interval,
			MinDrift:  req.MinDrift,
			SSize:     req.SSize,
			QSize:     req.QSize,
			Tuples:    req.Tuples,
			Trials:    req.Trials,
			TopK:      req.TopK,
			Margin:    req.Margin,
			Cooldown:  req.Cooldown,
			Workers:   req.Workers,
			Seed:      req.Seed,
		}}
	case "stop":
		rec = durable.Record{Op: durable.OpAdaptStop}
	default:
		writeErr(w, http.StatusBadRequest, "action must be \"start\" or \"stop\"")
		return
	}
	if _, _, _, err := sv.apply(&rec, nil); err != nil {
		writeHandlerErr(w, err)
		return
	}
	sv.adaptStatus(w)
}

// adaptDecision is the status rendering of one adaptation round.
type adaptDecision struct {
	At            float64          `json:"at"`
	Round         int              `json:"round,omitempty"`
	Window        int              `json:"window"`
	Drift         float64          `json:"drift,omitempty"`
	Skipped       bool             `json:"skipped,omitempty"`
	Reason        string           `json:"reason"`
	Incumbent     string           `json:"incumbent"`
	IncumbentBsld float64          `json:"incumbent_bsld,omitempty"`
	Candidates    []adaptCandidate `json:"candidates,omitempty"`
	Promoted      bool             `json:"promoted"`
	PolicyExpr    string           `json:"policy_expr,omitempty"`
}

type adaptCandidate struct {
	Expr    string  `json:"expr"`
	Rank    float64 `json:"rank"`
	AveBsld float64 `json:"ave_bsld"`
}

func renderDecision(d *adaptive.Decision) *adaptDecision {
	if d == nil {
		return nil
	}
	out := &adaptDecision{
		At:            d.At,
		Round:         d.Round,
		Window:        d.Window,
		Skipped:       d.Skipped,
		Reason:        d.Reason,
		Incumbent:     d.Incumbent,
		IncumbentBsld: d.IncumbentBsld,
		Promoted:      d.Promoted,
		PolicyExpr:    d.PolicyExpr,
	}
	if !math.IsInf(d.Drift, 0) {
		out.Drift = d.Drift
	}
	for _, c := range d.Candidates {
		out.Candidates = append(out.Candidates, adaptCandidate{Expr: c.Expr, Rank: c.Rank, AveBsld: c.AveBsld})
	}
	return out
}

// adaptLoop is the rendering of one loop's status — a shard's, or the
// daemon's aggregate over its shards.
type adaptLoop struct {
	Enabled    bool           `json:"enabled"`
	Window     int            `json:"window,omitempty"`
	NextCheck  float64        `json:"next_check,omitempty"`
	Rounds     int            `json:"rounds"`
	Promotions int            `json:"promotions"`
	Policy     string         `json:"policy"`
	LastError  string         `json:"last_error,omitempty"`
	Last       *adaptDecision `json:"last,omitempty"`
}

func renderLoop(a *fed.AdaptShard) adaptLoop {
	return adaptLoop{
		Enabled: a.Enabled, Window: a.Window, NextCheck: a.NextCheck,
		Rounds: a.Rounds, Promotions: a.Promotions, Policy: a.Policy,
		LastError: a.LastError, Last: renderDecision(a.Last),
	}
}

// adaptStatus renders the aggregate over the shards' loops — enabled if
// any is, windows, rounds and promotions summed, the earliest next
// round, the most recent decision, the first failure — with each
// shard's own status under per_shard. With one shard the aggregate IS
// that shard's loop.
func (sv *server) adaptStatus(w http.ResponseWriter) {
	shards := sv.fd.AdaptStatus()
	resp := struct {
		adaptLoop
		PerShard []adaptLoop `json:"per_shard"`
	}{PerShard: make([]adaptLoop, len(shards))}
	agg := &resp.adaptLoop
	var last *adaptive.Decision
	for i := range shards {
		a := &shards[i]
		resp.PerShard[i] = renderLoop(a)
		switch {
		case i == 0:
			agg.Policy = a.Policy
		case a.Policy != agg.Policy:
			agg.Policy = "mixed"
		}
		if a.LastError != "" && agg.LastError == "" {
			agg.LastError = a.LastError
			if len(shards) > 1 {
				agg.LastError = fmt.Sprintf("shard %d: %s", i, a.LastError)
			}
		}
		if !a.Enabled {
			continue
		}
		if !agg.Enabled || a.NextCheck < agg.NextCheck {
			agg.NextCheck = a.NextCheck
		}
		agg.Enabled = true
		agg.Window += a.Window
		agg.Rounds += a.Rounds
		agg.Promotions += a.Promotions
		if a.Last != nil && (last == nil || a.Last.At > last.At) {
			last = a.Last
		}
	}
	agg.Last = renderDecision(last)
	marshalJSON(w, resp)
}
