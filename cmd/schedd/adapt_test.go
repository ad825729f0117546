package main

import (
	"fmt"
	"math"
	"net/http"
	"testing"
)

// adaptStatusReply mirrors the /v1/adapt GET rendering.
type adaptStatusReply struct {
	Enabled    bool    `json:"enabled"`
	Window     int     `json:"window"`
	NextCheck  float64 `json:"next_check"`
	Rounds     int     `json:"rounds"`
	Promotions int     `json:"promotions"`
	Policy     string  `json:"policy"`
	LastError  string  `json:"last_error"`
	Last       *struct {
		At         float64 `json:"at"`
		Round      int     `json:"round"`
		Skipped    bool    `json:"skipped"`
		Reason     string  `json:"reason"`
		Promoted   bool    `json:"promoted"`
		PolicyExpr string  `json:"policy_expr"`
	} `json:"last"`
}

func TestScheddAdaptValidation(t *testing.T) {
	ts := newTestServer(t, 4)
	if code, r := post(t, ts, "/v1/adapt", `{"action":"start"}`); code != http.StatusBadRequest || r.Error == "" {
		t.Errorf("start without interval: code=%d reply=%+v", code, r)
	}
	if code, r := post(t, ts, "/v1/adapt", `{"action":"reverse"}`); code != http.StatusBadRequest || r.Error == "" {
		t.Errorf("unknown action: code=%d reply=%+v", code, r)
	}
	if code, _ := post(t, ts, "/v1/adapt", `{not json`); code != http.StatusBadRequest {
		t.Errorf("bad body: code=%d", code)
	}
	// Sizing fields are bounded: a start request cannot allocate an
	// arbitrarily large window or schedule hours-long inline rounds.
	if code, r := post(t, ts, "/v1/adapt", `{"action":"start","interval":10,"window":2000000000}`); code != http.StatusBadRequest || r.Error == "" {
		t.Errorf("huge window accepted: code=%d reply=%+v", code, r)
	}
	if code, r := post(t, ts, "/v1/adapt", `{"action":"start","interval":10,"trials":-5}`); code != http.StatusBadRequest || r.Error == "" {
		t.Errorf("negative trials accepted: code=%d reply=%+v", code, r)
	}
	var st adaptStatusReply
	get(t, ts, "/v1/adapt", &st)
	if st.Enabled {
		t.Errorf("adapt enabled before start: %+v", st)
	}
}

func TestScheddAdaptLifecycle(t *testing.T) {
	ts := newTestServer(t, 4)
	code, _ := post(t, ts, "/v1/adapt",
		`{"action":"start","interval":500,"window":64,"min_window":16,"tuples":1,"trials":16,"topk":1,"seed":7}`)
	if code != 200 {
		t.Fatalf("start: code=%d", code)
	}
	var st adaptStatusReply
	get(t, ts, "/v1/adapt", &st)
	if !st.Enabled || st.NextCheck != 500 {
		t.Fatalf("status after start: %+v", st)
	}
	// A second start must not silently replace the running loop.
	if code, r := post(t, ts, "/v1/adapt", `{"action":"start","interval":900}`); code != http.StatusConflict || r.Error == "" {
		t.Fatalf("start while running: code=%d reply=%+v", code, r)
	}
	if code, _ := post(t, ts, "/v1/adapt", `{"action":"stop"}`); code != 200 {
		t.Fatalf("stop: code=%d", code)
	}
	get(t, ts, "/v1/adapt", &st)
	if st.Enabled {
		t.Fatalf("status after stop: %+v", st)
	}
}

// TestScheddAdaptLoopRetrainsAndPromotes drives a stale-policy scenario
// through the HTTP API end to end: a daemon scheduling an overloaded
// heterogeneous flood under a near-FCFS incumbent, with the adaptive loop
// started over the wire. The periodic trigger rides on the logical clock
// of ordinary submit/complete requests; the loop retrains from the
// observed window and hot-swaps the incumbent out.
func TestScheddAdaptLoopRetrainsAndPromotes(t *testing.T) {
	// A 64-core machine under a policy whose giant s-coefficient makes it
	// near-FCFS on small jobs (the stale incumbent of the examples).
	ts := newTestServer(t, 64)
	if code, r := post(t, ts, "/v1/policy", `{"name":"STALE","expr":"r*n + 6.86e6*log10(s)"}`); code != 200 {
		t.Fatalf("deploying the stale policy: code=%d reply=%+v", code, r)
	}

	code, _ := post(t, ts, "/v1/adapt",
		`{"action":"start","interval":900,"window":96,"min_window":48,"tuples":2,"trials":32,"topk":2,"margin":0.05,"seed":11}`)
	if code != 200 {
		t.Fatalf("start: code=%d", code)
	}

	// An overloaded flood: heterogeneous areas arriving every ~5s, ~1.6x
	// offered load, with a deterministic runtime pattern.
	var completions []struct {
		at float64
		id int
	}
	now := 0.0
	for i := 1; i <= 240; i++ {
		now += 5
		runtime := []float64{20, 500, 60, 1500, 120, 3000}[i%6]
		cores := []int{1, 2, 4, 8}[i%4]
		code, r := post(t, ts, "/v1/submit", fmt.Sprintf(
			`{"id":%d,"cores":%d,"runtime":%g,"estimate":%g,"now":%g}`, i, cores, runtime, runtime, now))
		if code != 200 {
			t.Fatalf("submit %d: code=%d %+v", i, code, r)
		}
		for _, st := range r.Started {
			completions = append(completions, struct {
				at float64
				id int
			}{st.Time + runtime, st.ID})
		}
		// Report any completions that have come due.
		for k := 0; k < len(completions); k++ {
			if completions[k].at <= now {
				code, r := post(t, ts, "/v1/complete", fmt.Sprintf(
					`{"id":%d,"now":%g}`, completions[k].id, math.Max(completions[k].at, now)))
				if code != 200 {
					t.Fatalf("complete %d: code=%d %+v", completions[k].id, code, r)
				}
				for _, st := range r.Started {
					rt := []float64{20, 500, 60, 1500, 120, 3000}[st.ID%6]
					completions = append(completions, struct {
						at float64
						id int
					}{st.Time + rt, st.ID})
				}
				completions[k] = completions[len(completions)-1]
				completions = completions[:len(completions)-1]
				k--
			}
		}
	}

	var st adaptStatusReply
	get(t, ts, "/v1/adapt", &st)
	if st.LastError != "" {
		t.Fatalf("adaptive loop failed: %s", st.LastError)
	}
	if !st.Enabled || st.Rounds < 1 {
		t.Fatalf("loop never retrained: %+v", st)
	}
	if st.Window < 48 {
		t.Fatalf("observation window not fed: %+v", st)
	}
	if st.Last == nil {
		t.Fatalf("no decision recorded: %+v", st)
	}
	if st.Promotions < 1 {
		t.Fatalf("stale policy survived the drifted flood: %+v", st)
	}
	if st.Policy == "STALE" {
		t.Fatalf("promotion did not swap the scheduler policy: %+v", st)
	}
	// The scheduler's own status agrees with the adapt view.
	var sst struct {
		Policy             string `json:"policy"`
		InvariantViolation string `json:"invariant_violation"`
	}
	get(t, ts, "/v1/status", &sst)
	if sst.Policy != st.Policy {
		t.Fatalf("policy views disagree: %q vs %q", sst.Policy, st.Policy)
	}
	if sst.InvariantViolation != "" {
		t.Fatalf("invariant violation: %s", sst.InvariantViolation)
	}
}
