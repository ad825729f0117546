package main

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
)

// TestScheddStatusCodes pins the 400/409 classification: requests the
// client got wrong (shape, syntax, unknown names) are 400 Bad Request;
// well-formed requests the scheduler state refuses are 409 Conflict.
func TestScheddStatusCodes(t *testing.T) {
	ts := newTestServer(t, 8)
	// Seed: job 1 active, clock at 10.
	if code, _ := post(t, ts, "/v1/submit", `{"id":1,"cores":1,"runtime":100,"now":10}`); code != 200 {
		t.Fatalf("seed submit: code=%d", code)
	}
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		// Validation failures: the request itself is wrong.
		{"bad json", "/v1/submit", `{not json`, http.StatusBadRequest},
		{"nonpositive cores", "/v1/submit", `{"id":9,"cores":0,"runtime":10}`, http.StatusBadRequest},
		{"negative cores", "/v1/submit", `{"id":9,"cores":-2,"runtime":10}`, http.StatusBadRequest},
		{"nonpositive runtime", "/v1/submit", `{"id":9,"cores":1,"runtime":0}`, http.StatusBadRequest},
		{"oversized job", "/v1/submit", `{"id":9,"cores":64,"runtime":10}`, http.StatusBadRequest},
		{"negative estimate", "/v1/submit", `{"id":9,"cores":1,"runtime":10,"estimate":-1}`, http.StatusBadRequest},
		{"unknown policy name", "/v1/policy", `{"name":"NOPE?!"}`, http.StatusBadRequest},
		{"unparseable expr", "/v1/policy", `{"name":"L1","expr":"log10(("}`, http.StatusBadRequest},
		{"adapt without interval", "/v1/adapt", `{"action":"start"}`, http.StatusBadRequest},
		{"adapt sizing over cap", "/v1/adapt", `{"action":"start","interval":10,"tuples":100000}`, http.StatusBadRequest},
		{"adapt unknown action", "/v1/adapt", `{"action":"reverse"}`, http.StatusBadRequest},
		// State conflicts: a well-formed request the history refuses.
		{"duplicate id", "/v1/submit", `{"id":1,"cores":1,"runtime":10,"now":11}`, http.StatusConflict},
		{"submit after the clock", "/v1/submit", `{"id":9,"cores":1,"runtime":10,"submit":50,"now":20}`, http.StatusConflict},
		{"unknown completion", "/v1/complete", `{"id":77,"now":12}`, http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, r := post(t, ts, tc.path, tc.body)
			if code != tc.want {
				t.Errorf("%s %s: code=%d, want %d (reply %+v)", tc.path, tc.body, code, tc.want, r)
			}
			if r.Error == "" {
				t.Errorf("%s %s: error body missing", tc.path, tc.body)
			}
		})
	}
}

// TestScheddExplicitZeroNow pins that "now":0 means instant zero, not
// "field omitted": t=0 is a real instant on the logical clock.
func TestScheddExplicitZeroNow(t *testing.T) {
	ts := newTestServer(t, 4)
	code, r := post(t, ts, "/v1/submit", `{"id":1,"cores":1,"runtime":10,"now":0}`)
	if code != 200 || r.Now != 0 {
		t.Fatalf("submit at t=0: code=%d reply=%+v", code, r)
	}
	if len(r.Started) != 1 || r.Started[0].Time != 0 || r.Started[0].Wait != 0 {
		t.Fatalf("job at t=0 should start at t=0 with zero wait: %+v", r.Started)
	}
	// With the clock pinned at 0, a job claiming submission at t=5 is in
	// the future — an explicit now=0 must NOT silently re-resolve to the
	// submit time the way an omitted field does.
	if code, r := post(t, ts, "/v1/submit", `{"id":2,"cores":1,"runtime":10,"submit":5,"now":0}`); code != http.StatusConflict {
		t.Fatalf("future submit under explicit now=0: code=%d reply=%+v", code, r)
	}
	// Omitted now still resolves to the submit time.
	if code, r := post(t, ts, "/v1/submit", `{"id":3,"cores":1,"runtime":10,"submit":5}`); code != 200 || r.Now != 5 {
		t.Fatalf("omitted now: code=%d reply=%+v", code, r)
	}
}

// TestScheddHealthzMethods pins /healthz to GET and HEAD.
func TestScheddHealthzMethods(t *testing.T) {
	ts := newTestServer(t, 4)
	for _, tc := range []struct {
		method string
		want   int
	}{
		{http.MethodGet, http.StatusOK},
		{http.MethodHead, http.StatusOK},
		{http.MethodPost, http.StatusMethodNotAllowed},
		{http.MethodDelete, http.StatusMethodNotAllowed},
		{http.MethodPut, http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+"/healthz", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s /healthz: code=%d, want %d", tc.method, resp.StatusCode, tc.want)
		}
	}
}

// TestReadRenderingIsJSON pins the hand-rendered read endpoints to
// encoding/json: floats render byte-for-byte as encoding/json renders
// them (clients and the benchmark compare them bit-equal after a round
// trip), and strings escape into valid JSON.
func TestReadRenderingIsJSON(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 9.99e-7, 1e-7, 123.456, 1e20, 1e21, -1e21, 3.475, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); string(got) != string(want) {
			t.Errorf("appendJSONFloat(%v) = %s, encoding/json says %s", f, got, want)
		}
	}
	for _, s := range []string{"", "F1", `q"uote`, `back\slash`, "tab\there", "nul\x00", "A291.2 ünï"} {
		var back string
		if err := json.Unmarshal(appendJSONString(nil, s), &back); err != nil || back != s {
			t.Errorf("appendJSONString(%q) does not round-trip: %q, %v", s, back, err)
		}
	}
	// A quarantine message, a policy named by a client: whole responses
	// stay parseable.
	ts := newTestServer(t, 4)
	if code, r := post(t, ts, "/v1/policy", `{"name":"we\"ird\u0001","expr":"r*n + 0*log10(s)"}`); code != 200 || r.Policy != "we\"ird\u0001" {
		t.Fatalf("policy swap: code=%d reply=%+v", code, r)
	}
	var st struct {
		Policy   string `json:"policy"`
		PerShard []struct {
			Policy string `json:"policy"`
		} `json:"per_shard"`
	}
	get(t, ts, "/v1/status", &st)
	if st.Policy != "we\"ird\u0001" || len(st.PerShard) != 1 || st.PerShard[0].Policy != st.Policy {
		t.Fatalf("status: %+v", st)
	}
	var m map[string]any
	get(t, ts, "/v1/metrics", &m)
	if _, ok := m["per_shard"]; !ok {
		t.Fatalf("metrics: %v", m)
	}
}
