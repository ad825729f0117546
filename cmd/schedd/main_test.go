package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testConfig is the daemon the handler tests run: one invariant-checked
// FCFS+EASY shard of the given size, in memory, telemetry off.
func testConfig(cores int) daemonConfig {
	return daemonConfig{
		cores: cores, policy: "FCFS", backfill: "easy", clock: "logical", check: true,
		fsync: 1, traceBuf: 4096, shards: 1, fedSeed: 1,
	}
}

// startServer boots a daemon from cfg exactly as run() does and serves
// its handler; both the listener and the federation go away with the
// test.
func startServer(t *testing.T, cfg daemonConfig) (*server, *httptest.Server) {
	t.Helper()
	fd, err := openFederation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fd.Drain() }) // idempotent after a test's own drain
	sv := newServer(fd, cfg)
	ts := httptest.NewServer(sv.handler())
	t.Cleanup(ts.Close)
	return sv, ts
}

func newTestServer(t *testing.T, cores int) *httptest.Server {
	t.Helper()
	_, ts := startServer(t, testConfig(cores))
	return ts
}

type reply struct {
	Now     float64 `json:"now"`
	Policy  string  `json:"policy"`
	Error   string  `json:"error"`
	Started []struct {
		ID         int     `json:"id"`
		Time       float64 `json:"time"`
		Wait       float64 `json:"wait"`
		Backfilled bool    `json:"backfilled"`
	} `json:"started"`
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, reply) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r reply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("%s: decoding reply: %v", path, err)
	}
	return resp.StatusCode, r
}

func get(t *testing.T, ts *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

func TestScheddSubmitCompleteFlow(t *testing.T) {
	ts := newTestServer(t, 4)

	code, r := post(t, ts, "/v1/submit", `{"id":1,"cores":3,"runtime":100,"estimate":100}`)
	if code != 200 || len(r.Started) != 1 || r.Started[0].ID != 1 {
		t.Fatalf("submit 1: code=%d reply=%+v", code, r)
	}
	// Job 2 wants the whole machine: queued as the blocked head.
	code, r = post(t, ts, "/v1/submit", `{"id":2,"cores":4,"runtime":40,"estimate":40,"now":1}`)
	if code != 200 || len(r.Started) != 0 || r.Now != 1 {
		t.Fatalf("submit 2: code=%d reply=%+v", code, r)
	}
	// Job 3 is small and short: backfills beside job 1 at t=2.
	code, r = post(t, ts, "/v1/submit", `{"id":3,"cores":1,"runtime":10,"estimate":10,"now":2}`)
	if code != 200 || len(r.Started) != 1 || r.Started[0].ID != 3 || !r.Started[0].Backfilled {
		t.Fatalf("submit 3: code=%d reply=%+v", code, r)
	}

	var st struct {
		Queued, Running, Completed int
		Policy                     string
	}
	get(t, ts, "/v1/status", &st)
	if st.Running != 2 || st.Queued != 1 || st.Policy != "FCFS" {
		t.Fatalf("status: %+v", st)
	}

	// Complete 3 and 1; the head (2) starts once the machine can hold it.
	if code, r = post(t, ts, "/v1/complete", `{"id":3,"now":12}`); code != 200 || len(r.Started) != 0 {
		t.Fatalf("complete 3: code=%d reply=%+v", code, r)
	}
	if code, r = post(t, ts, "/v1/complete", `{"id":1,"now":100}`); code != 200 ||
		len(r.Started) != 1 || r.Started[0].ID != 2 || r.Started[0].Wait != 99 {
		t.Fatalf("complete 1: code=%d reply=%+v", code, r)
	}
	if code, r = post(t, ts, "/v1/complete", `{"id":2,"now":140}`); code != 200 {
		t.Fatalf("complete 2: code=%d reply=%+v", code, r)
	}

	var m struct {
		Completed  int     `json:"completed"`
		Backfilled int     `json:"backfilled"`
		AveBsld    float64 `json:"ave_bsld"`
	}
	get(t, ts, "/v1/metrics", &m)
	if m.Completed != 3 || m.Backfilled != 1 || m.AveBsld <= 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestScheddErrors(t *testing.T) {
	ts := newTestServer(t, 4)
	if code, r := post(t, ts, "/v1/submit", `{"id":1,"cores":9,"runtime":10}`); code != http.StatusBadRequest || r.Error == "" {
		t.Errorf("oversized job: code=%d reply=%+v", code, r)
	}
	if code, _ := post(t, ts, "/v1/submit", `{"id":1,"cores":1,"runtime":10}`); code != 200 {
		t.Fatalf("submit: code=%d", code)
	}
	if code, r := post(t, ts, "/v1/submit", `{"id":1,"cores":1,"runtime":10}`); code != http.StatusConflict ||
		!strings.Contains(r.Error, "already active") {
		t.Errorf("duplicate: code=%d reply=%+v", code, r)
	}
	if code, r := post(t, ts, "/v1/complete", `{"id":77}`); code != http.StatusConflict ||
		!strings.Contains(r.Error, "not active") {
		t.Errorf("unknown completion: code=%d reply=%+v", code, r)
	}
	if code, _ := post(t, ts, "/v1/submit", `{not json`); code != http.StatusBadRequest {
		t.Errorf("bad body: code=%d", code)
	}
	// A rejected request must not advance the clock: after a typo'd
	// completion far in the future, a submit at the present still works.
	if code, _ := post(t, ts, "/v1/complete", `{"id":999,"now":1e9}`); code != http.StatusConflict {
		t.Fatal("expected rejection")
	}
	if code, r := post(t, ts, "/v1/submit", `{"id":2,"cores":1,"runtime":10,"now":5}`); code != 200 || r.Now != 5 {
		t.Errorf("clock wedged by rejected request: code=%d reply=%+v", code, r)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST endpoint: code=%d", resp.StatusCode)
	}
	if code, r := post(t, ts, "/v1/policy", `{"name":"NOPE?!"}`); code != http.StatusBadRequest || r.Error == "" {
		t.Errorf("unknown policy: code=%d reply=%+v", code, r)
	}
}

func TestScheddPolicySwap(t *testing.T) {
	ts := newTestServer(t, 1)
	post(t, ts, "/v1/submit", `{"id":1,"cores":1,"runtime":100,"estimate":100}`)
	post(t, ts, "/v1/submit", `{"id":2,"cores":1,"runtime":90,"estimate":90,"now":1}`)
	post(t, ts, "/v1/submit", `{"id":3,"cores":1,"runtime":5,"estimate":5,"now":2}`)

	// Swap to a learned policy shipped as an expression (an area-ordered
	// fit: r·n, no submit term).
	code, r := post(t, ts, "/v1/policy", `{"name":"L1","expr":"r * n + 0*log10(s)"}`)
	if code != 200 || r.Policy != "L1" {
		t.Fatalf("policy swap: code=%d reply=%+v", code, r)
	}
	var st struct{ Policy string }
	get(t, ts, "/v1/status", &st)
	if st.Policy != "L1" {
		t.Fatalf("status after swap: %+v", st)
	}
	// Under the r·n order the 5s job ranks before the 90s job; FCFS would
	// have picked the 90s one.
	code, r = post(t, ts, "/v1/complete", `{"id":1,"now":100}`)
	if code != 200 || len(r.Started) != 1 || r.Started[0].ID != 3 {
		t.Fatalf("post-swap pass: code=%d reply=%+v", code, r)
	}
}

func TestScheddAdvanceEndpointFlushesPendingPass(t *testing.T) {
	ts := newTestServer(t, 2)
	post(t, ts, "/v1/submit", `{"id":1,"cores":2,"runtime":50,"estimate":50}`)
	post(t, ts, "/v1/complete", `{"id":1,"now":50}`)
	// Submit at the completion instant: the pass is pending until advance.
	code, r := post(t, ts, "/v1/advance", `{"now":60}`)
	if code != 200 || r.Now != 60 {
		t.Fatalf("advance: code=%d reply=%+v", code, r)
	}
	var st struct{ Completed int }
	get(t, ts, "/v1/status", &st)
	if st.Completed != 1 {
		t.Fatalf("status: %+v", st)
	}
}

// TestScheddGracefulShutdown boots the real serve loop on an ephemeral
// port, verifies it answers, cancels the context (the SIGTERM path) and
// requires a clean drain.
func TestScheddGracefulShutdown(t *testing.T) {
	cfg := testConfig(8)
	fd, err := openFederation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	srv := newServer(fd, cfg)
	go func() { done <- serve(ctx, l, srv.handler(), fd.Drain) }()

	url := fmt.Sprintf("http://%s", l.Addr())
	var lastErr error
	for i := 0; i < 50; i++ { // wait for the listener to come up
		resp, err := http.Post(url+"/v1/submit", "application/json",
			strings.NewReader(`{"id":1,"cores":1,"runtime":10}`))
		if err == nil {
			resp.Body.Close()
			lastErr = nil
			break
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("server never came up: %v", lastErr)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not drain within 5s of cancellation")
	}
	// The port is released: requests now fail.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

func TestResolvePolicy(t *testing.T) {
	for _, tc := range []struct {
		name, expr, want string
	}{
		{"FCFS", "", "FCFS"},
		{"EASY", "", "FCFS"}, // paper alias
		{"", "sqrt(r)*n + 1*log10(s)", "CUSTOM"},
		{"L9", "r*n + 5e5*log10(s)", "L9"},
		{"log10(r)*n + 870*log10(s)", "", "CUSTOM"}, // bare expression as name
	} {
		p, err := resolvePolicy(tc.name, tc.expr)
		if err != nil {
			t.Errorf("resolvePolicy(%q, %q): %v", tc.name, tc.expr, err)
			continue
		}
		if p.Name() != tc.want {
			t.Errorf("resolvePolicy(%q, %q) = %s, want %s", tc.name, tc.expr, p.Name(), tc.want)
		}
	}
	if _, err := resolvePolicy("NOPE?!", ""); err == nil {
		t.Error("garbage policy accepted")
	}
}
