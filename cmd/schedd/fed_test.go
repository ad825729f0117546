package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/workload"
)

func newFedTestServer(t *testing.T, shards, shardCores, traceBuf int) (*server, *httptest.Server) {
	t.Helper()
	cfg := testConfig(shardCores)
	cfg.shards = shards
	cfg.telemetry, cfg.traceBuf = traceBuf > 0, traceBuf
	return startServer(t, cfg)
}

func TestFedScheddSubmitStatusMetrics(t *testing.T) {
	_, ts := newFedTestServer(t, 4, 8, 0)
	for i := 1; i <= 12; i++ {
		body := fmt.Sprintf(`{"id":%d,"cores":2,"runtime":50,"estimate":50,"now":%d}`, i, i)
		code, r := post(t, ts, "/v1/submit", body)
		if code != 200 {
			t.Fatalf("submit %d: code=%d reply=%+v", i, code, r)
		}
	}
	var st struct {
		Shards    int `json:"shards"`
		Cores     int `json:"cores"`
		Submitted int `json:"submitted"`
		Running   int `json:"running"`
		Queued    int `json:"queued"`
		PerShard  []struct {
			Submitted int `json:"submitted"`
		} `json:"per_shard"`
	}
	get(t, ts, "/v1/status", &st)
	if st.Shards != 4 || st.Cores != 32 || st.Submitted != 12 {
		t.Fatalf("status: %+v", st)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per_shard has %d entries, want 4", len(st.PerShard))
	}
	sum := 0
	for _, p := range st.PerShard {
		sum += p.Submitted
	}
	if sum != 12 {
		t.Fatalf("per-shard submitted sums to %d, want 12", sum)
	}
	if st.Running+st.Queued != 12 {
		t.Fatalf("running %d + queued %d != 12", st.Running, st.Queued)
	}
	// Complete one job and read the merged metrics.
	if code, r := post(t, ts, "/v1/complete", `{"id":1,"now":100}`); code != 200 {
		t.Fatalf("complete: code=%d reply=%+v", code, r)
	}
	var m struct {
		Completed int `json:"completed"`
		PerShard  []struct {
			Completed int `json:"completed"`
		} `json:"per_shard"`
	}
	get(t, ts, "/v1/metrics", &m)
	if m.Completed != 1 || len(m.PerShard) != 4 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestFedScheddAdaptPerShardAndOversizedJobs pins what /v1/adapt means
// on a federation — one loop per shard, started and stopped together —
// and the capacity contract: one job must fit on one shard.
func TestFedScheddAdaptPerShardAndOversizedJobs(t *testing.T) {
	_, ts := newFedTestServer(t, 4, 8, 0)
	if code, r := post(t, ts, "/v1/adapt", `{"action":"start","interval":500,"window":64,"min_window":16,"tuples":1,"trials":16,"topk":1,"seed":7}`); code != 200 {
		t.Fatalf("start: code=%d reply=%+v", code, r)
	}
	var st struct {
		adaptStatusReply
		PerShard []adaptStatusReply `json:"per_shard"`
	}
	get(t, ts, "/v1/adapt", &st)
	if !st.Enabled || st.NextCheck != 500 || len(st.PerShard) != 4 {
		t.Fatalf("status after start: %+v", st)
	}
	for i, s := range st.PerShard {
		if !s.Enabled || s.NextCheck != 500 {
			t.Fatalf("shard %d after start: %+v", i, s)
		}
	}
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
	// Wider than one shard, even though 4×8 = 32 total cores exist.
	code, r := post(t, ts, "/v1/submit", `{"id":1,"cores":9,"runtime":10,"estimate":10}`)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized submit: code=%d reply=%+v, want 400", code, r)
	}
}

func TestFedScheddPolicySwap(t *testing.T) {
	_, ts := newFedTestServer(t, 2, 8, 0)
	code, r := post(t, ts, "/v1/policy", `{"name":"F1"}`)
	if code != 200 || r.Policy != "F1" {
		t.Fatalf("policy swap: code=%d reply=%+v", code, r)
	}
	var st struct {
		Policy string `json:"policy"`
	}
	get(t, ts, "/v1/status", &st)
	if st.Policy != "F1" {
		t.Fatalf("policy after swap: %q", st.Policy)
	}
}

// TestFedScheddTraceShardTagged drives traffic through a federation and
// checks the merged /v1/trace: every JSONL line carries a shard tag, the
// stream is time-ordered, and the sample/limit/format query is validated.
func TestFedScheddTraceShardTagged(t *testing.T) {
	_, ts := newFedTestServer(t, 4, 8, 1024)
	for i := 1; i <= 16; i++ {
		body := fmt.Sprintf(`{"id":%d,"cores":2,"runtime":50,"estimate":50,"now":%d}`, i, i)
		if code, r := post(t, ts, "/v1/submit", body); code != 200 {
			t.Fatalf("submit %d: code=%d reply=%+v", i, code, r)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace: %d", resp.StatusCode)
	}
	seen := 0
	lastT := -1.0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var ev struct {
			Shard *int    `json:"shard"`
			T     float64 `json:"t"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if ev.Shard == nil || *ev.Shard < 0 || *ev.Shard > 3 {
			t.Fatalf("line %q lacks a valid shard tag", line)
		}
		if ev.T < lastT {
			t.Fatalf("merged trace goes back in time: %g after %g", ev.T, lastT)
		}
		lastT = ev.T
		seen++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("merged trace is empty after 16 submits")
	}
	for _, q := range []string{"?sample=0", "?sample=-3", "?sample=x", "?limit=-1", "?format=yaml"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trace%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestFedScheddPromMetrics(t *testing.T) {
	_, ts := newFedTestServer(t, 4, 8, 1024)
	if code, r := post(t, ts, "/v1/submit", `{"id":1,"cores":2,"runtime":50,"estimate":50}`); code != 200 {
		t.Fatalf("submit: code=%d reply=%+v", code, r)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"gensched_shards 4",
		"gensched_cores 32",
		"gensched_jobs_submitted_total 1",
		"gensched_fed_stolen_placements",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// TestTraceSampleThenLimit pins the one-shard /v1/trace contract
// parseTraceQuery documents: ?limit caps the most recent events AFTER
// ?sample thins the stream — so sample=K&limit=N returns the last N of
// the 1-in-K stream, and sample=0 is always a 400.
func TestTraceSampleThenLimit(t *testing.T) {
	_, ts := newTelemetryServer(t, 8, 4096)
	for i := 1; i <= 40; i++ {
		body := fmt.Sprintf(`{"id":%d,"cores":1,"runtime":50,"estimate":50,"now":%d}`, i, i)
		if code, r := post(t, ts, "/v1/submit", body); code != 200 {
			t.Fatalf("submit %d: code=%d reply=%+v", i, code, r)
		}
	}
	lines := func(q string) []string {
		resp, err := ts.Client().Get(ts.URL + "/v1/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("trace%s: %d", q, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		out := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
		if len(out) == 1 && out[0] == "" {
			return nil
		}
		return out
	}
	sampled := lines("?sample=3")
	const limit = 10
	if len(sampled) <= limit {
		t.Fatalf("need more than %d sampled events, got %d", limit, len(sampled))
	}
	for _, line := range sampled {
		var ev struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if ev.Seq%3 != 0 {
			t.Fatalf("sample=3 stream contains seq %d", ev.Seq)
		}
	}
	got := lines(fmt.Sprintf("?sample=3&limit=%d", limit))
	want := sampled[len(sampled)-limit:]
	if len(got) != limit {
		t.Fatalf("limit=%d returned %d lines", limit, len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("limit must keep the most recent events after sampling:\nline %d\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	// sample=0 is rejected, never treated as "no sampling".
	resp, err := ts.Client().Get(ts.URL + "/v1/trace?sample=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sample=0: %d, want 400", resp.StatusCode)
	}
}

// --- Binary protocol ---------------------------------------------------------

// binConn is a test client for the binary protocol.
type binConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialBin(t *testing.T, addr string) *binConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return &binConn{t: t, c: c, br: bufio.NewReader(c)}
}

func (bc *binConn) roundTrip(payload []byte) (float64, []online.Start, error) {
	bc.t.Helper()
	if _, err := bc.c.Write(fed.AppendFrame(nil, payload)); err != nil {
		bc.t.Fatal(err)
	}
	resp, err := fed.ReadFrame(bc.br, nil)
	if err != nil {
		bc.t.Fatal(err)
	}
	return fed.DecodeResp(resp, nil)
}

func (bc *binConn) record(rec *durable.Record) (float64, []online.Start, error) {
	bc.t.Helper()
	payload, err := fed.AppendRecordMsg(nil, rec)
	if err != nil {
		bc.t.Fatal(err)
	}
	return bc.roundTrip(payload)
}

func startBinServer(t *testing.T, sv *server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := newBinServer(l, sv)
	bs.start()
	t.Cleanup(bs.stop)
	return l.Addr().String()
}

// TestBinaryProtocolSingleEngine drives the binary listener against a
// one-shard daemon and checks the scheduling outcomes match what the
// HTTP path would produce: starts arrive with the submit response, a
// duplicate ID errors with the HTTP status code, and the mutation path is
// shared (the mutation lands in /v1/status).
func TestBinaryProtocolSingleEngine(t *testing.T) {
	sv, ts := startServer(t, testConfig(8))
	bc := dialBin(t, startBinServer(t, sv))

	now, starts, err := bc.record(&durable.Record{
		Op: durable.OpSubmit, Now: 5,
		Job: workload.Job{ID: 1, Submit: 5, Runtime: 100, Estimate: 100, Cores: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if now != 5 || len(starts) != 1 || starts[0].ID != 1 || starts[0].Time != 5 {
		t.Fatalf("submit: now=%g starts=%+v", now, starts)
	}
	// Duplicate: RespErr carrying the same 409 the HTTP path uses.
	_, _, err = bc.record(&durable.Record{
		Op: durable.OpSubmit, Now: 6,
		Job: workload.Job{ID: 1, Submit: 6, Runtime: 100, Estimate: 100, Cores: 4},
	})
	we, ok := err.(*fed.WireError)
	if !ok || we.Code != http.StatusConflict {
		t.Fatalf("duplicate submit: %v, want 409 WireError", err)
	}
	// Ops the wire must refuse.
	_, _, err = bc.record(&durable.Record{Op: durable.OpInit, Init: &durable.InitState{Cores: 8}})
	if we, ok := err.(*fed.WireError); !ok || we.Code != http.StatusBadRequest {
		t.Fatalf("OpInit over the wire: %v, want 400 WireError", err)
	}
	// Oversized job: validated exactly like HTTP submit.
	_, _, err = bc.record(&durable.Record{
		Op: durable.OpSubmit, Now: 7,
		Job: workload.Job{ID: 2, Submit: 7, Runtime: 10, Estimate: 10, Cores: 9},
	})
	if we, ok := err.(*fed.WireError); !ok || we.Code != http.StatusBadRequest {
		t.Fatalf("oversized submit over the wire: %v, want 400 WireError", err)
	}
	// The mutation is visible over HTTP: one shared scheduler.
	var st struct {
		Submitted int `json:"submitted"`
	}
	get(t, ts, "/v1/status", &st)
	if st.Submitted != 1 {
		t.Fatalf("status after binary submit: %+v", st)
	}
}

// TestBinaryProtocolBatch sends one batch frame with submits, a
// complete, and an advance, and expects the same outcome as the records
// sent individually: batches are pure syscall amortization.
func TestBinaryProtocolBatch(t *testing.T) {
	run := func(batch bool) (float64, int) {
		sv, _ := startServer(t, testConfig(4))
		bc := dialBin(t, startBinServer(t, sv))
		recs := []durable.Record{
			{Op: durable.OpSubmit, Now: 0, Job: workload.Job{ID: 1, Runtime: 50, Estimate: 50, Cores: 4}},
			{Op: durable.OpSubmit, Now: 1, Job: workload.Job{ID: 2, Submit: 1, Runtime: 30, Estimate: 30, Cores: 4}},
			{Op: durable.OpComplete, Now: 50, ID: 1},
			{Op: durable.OpAdvance, Now: 90},
		}
		var now float64
		total := 0
		if batch {
			payload, err := fed.AppendBatchMsg(nil, recs)
			if err != nil {
				t.Fatal(err)
			}
			var starts []online.Start
			now, starts, err = bc.roundTrip(payload)
			if err != nil {
				t.Fatal(err)
			}
			total = len(starts)
		} else {
			for i := range recs {
				n, starts, err := bc.record(&recs[i])
				if err != nil {
					t.Fatal(err)
				}
				now = n
				total += len(starts)
			}
		}
		return now, total
	}
	bNow, bStarts := run(true)
	sNow, sStarts := run(false)
	if bNow != sNow || bStarts != sStarts {
		t.Fatalf("batch (now=%g starts=%d) != sequential (now=%g starts=%d)", bNow, bStarts, sNow, sStarts)
	}
	if bNow != 90 || bStarts != 2 {
		t.Fatalf("outcome: now=%g starts=%d, want 90 and 2", bNow, bStarts)
	}
}

// TestBinaryProtocolFederation drives the binary listener against a
// federation and checks jobs spread across shards with the same router
// the HTTP path uses.
func TestBinaryProtocolFederation(t *testing.T) {
	sv, _ := newFedTestServer(t, 4, 8, 0)
	bc := dialBin(t, startBinServer(t, sv))
	for i := 1; i <= 12; i++ {
		_, _, err := bc.record(&durable.Record{
			Op: durable.OpSubmit, Now: float64(i),
			Job: workload.Job{ID: i, Submit: float64(i), Runtime: 50, Estimate: 50, Cores: 2},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st := sv.fd.Status()
	if st.Submitted != 12 {
		t.Fatalf("submitted %d, want 12", st.Submitted)
	}
	shardsUsed := 0
	for _, p := range st.PerShard {
		if p.Submitted > 0 {
			shardsUsed++
		}
	}
	if shardsUsed < 2 {
		t.Fatalf("only %d shards received jobs", shardsUsed)
	}
}
