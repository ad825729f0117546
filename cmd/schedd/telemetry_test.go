package main

// Daemon-surface telemetry tests: the /metrics exposition is linted
// against the Prometheus text-format rules over a live scrape, /v1/trace
// round-trips the decision ring in both formats, /healthz goes non-200
// the moment the journal latches a failure, and /v1/status carries the
// recovery provenance across restarts.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// newTelemetryServer is newTestServer with telemetry enabled, returning
// the server value too so tests can reach inside.
func newTelemetryServer(t *testing.T, cores, traceCap int) (*server, *httptest.Server) {
	t.Helper()
	cfg := testConfig(cores)
	cfg.telemetry, cfg.traceBuf = true, traceCap
	return startServer(t, cfg)
}

// driveTraffic pushes the submit/backfill/complete flow from
// TestScheddSubmitCompleteFlow through the server so every telemetry
// family has something to show.
func driveTraffic(t *testing.T, ts *httptest.Server) {
	t.Helper()
	for _, req := range []struct{ path, body string }{
		{"/v1/submit", `{"id":1,"cores":3,"runtime":100,"estimate":100}`},
		{"/v1/submit", `{"id":2,"cores":4,"runtime":40,"estimate":40,"now":1}`},
		{"/v1/submit", `{"id":3,"cores":1,"runtime":10,"estimate":10,"now":2}`},
		{"/v1/complete", `{"id":3,"now":12}`},
		{"/v1/complete", `{"id":1,"now":100}`},
		{"/v1/complete", `{"id":2,"now":140}`},
	} {
		if code, r := post(t, ts, req.path, req.body); code != 200 {
			t.Fatalf("POST %s %s: code=%d reply=%+v", req.path, req.body, code, r)
		}
	}
}

func TestScheddHealthzStoreFailure(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(4)
	cfg.telemetry, cfg.dataDir, cfg.ckptEvery = true, dir, 10
	_, ts := startServer(t, cfg)

	healthz := func() (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, _ := healthz(); code != http.StatusOK {
		t.Fatalf("healthy daemon: /healthz = %d, want 200", code)
	}

	// Latch a journal failure: with the data directory gone, the
	// checkpoint the next mutation's clock makes due cannot be written.
	// The daemon is alive but must stop taking traffic, and the probe has
	// to say so.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if code, r := post(t, ts, "/v1/submit", `{"id":1,"cores":1,"runtime":5,"estimate":5,"now":20}`); code != 200 {
		t.Fatalf("submit tripping the checkpoint: code=%d reply=%+v", code, r)
	}
	code, body := healthz()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("failed-store daemon: /healthz = %d, want 503", code)
	}
	if !strings.Contains(body, "durable store failed") {
		t.Fatalf("/healthz body does not name the failure: %s", body)
	}
	if code, r := post(t, ts, "/v1/submit", `{"id":2,"cores":1,"runtime":5,"estimate":5,"now":21}`); code != http.StatusServiceUnavailable {
		t.Fatalf("mutation on a quarantined daemon: code=%d reply=%+v, want 503", code, r)
	}
}

// shardProvenance is the durability slice of one /v1/status per_shard
// entry.
type shardProvenance struct {
	JournalSeq      uint64  `json:"journal_seq"`
	Recovered       bool    `json:"recovered"`
	FromSnapshot    bool    `json:"from_snapshot"`
	SnapshotSeq     uint64  `json:"snapshot_seq"`
	SnapshotClock   float64 `json:"snapshot_clock"`
	ReplayedRecords int     `json:"replayed_records"`
	SegmentsScanned int     `json:"segments_scanned"`
}

// statusDurable fetches /v1/status and returns the one shard's
// durability block, nil for an in-memory daemon.
func statusDurable(t *testing.T, ts *httptest.Server) *shardProvenance {
	t.Helper()
	var st struct {
		Durable  bool              `json:"durable"`
		PerShard []shardProvenance `json:"per_shard"`
	}
	get(t, ts, "/v1/status", &st)
	if !st.Durable {
		return nil
	}
	return &st.PerShard[0]
}

func TestScheddStatusDurableProvenance(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(4)
	cfg.dataDir = dir

	// Boot 1: fresh directory. Provenance says "not recovered"; the
	// journal already holds the genesis record.
	sv, ts := startServer(t, cfg)
	dur := statusDurable(t, ts)
	if dur == nil {
		t.Fatal("journaled daemon reported no durable block")
	}
	if dur.Recovered || dur.JournalSeq == 0 {
		t.Fatalf("fresh boot provenance: %+v", *dur)
	}
	driveTraffic(t, ts)
	// Graceful shutdown writes a final checkpoint.
	if err := sv.fd.Drain(); err != nil {
		t.Fatal(err)
	}

	// Boot 2: recovery from that checkpoint, empty journal tail.
	_, ts2 := startServer(t, cfg)
	dur = statusDurable(t, ts2)
	if dur == nil || !dur.Recovered || !dur.FromSnapshot {
		t.Fatalf("post-restart provenance: %+v", dur)
	}
	if dur.ReplayedRecords != 0 || dur.SnapshotSeq == 0 || dur.SnapshotClock != 140 {
		t.Fatalf("snapshot-only recovery provenance: %+v", *dur)
	}
	if dur.SegmentsScanned == 0 {
		t.Fatalf("recovery scanned no segments: %+v", *dur)
	}
	// More traffic lands in the journal after the snapshot...
	for _, body := range []string{
		`{"id":10,"cores":1,"runtime":5,"estimate":5,"now":150}`,
		`{"id":11,"cores":1,"runtime":5,"estimate":5,"now":151}`,
	} {
		if code, r := post(t, ts2, "/v1/submit", body); code != 200 {
			t.Fatalf("submit after recovery: code=%d reply=%+v", code, r)
		}
	}
	// ...and this time the process dies without a checkpoint: boot 3
	// runs on a copy of the directory as it stands (kill -9).
	crashed := filepath.Join(t.TempDir(), "crashed")
	copyDir(t, dir, crashed)

	// Boot 3: snapshot plus a journal tail to replay.
	cfg.dataDir = crashed
	_, ts3 := startServer(t, cfg)
	dur = statusDurable(t, ts3)
	if dur == nil || !dur.Recovered || !dur.FromSnapshot || dur.ReplayedRecords != 2 {
		t.Fatalf("snapshot+tail recovery provenance: %+v", dur)
	}
}

func TestScheddTraceEndpoint(t *testing.T) {
	_, ts := newTelemetryServer(t, 4, 1024)
	driveTraffic(t, ts)

	fetch := func(path string, wantCode int) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: code=%d want %d (%s)", path, resp.StatusCode, wantCode, body)
		}
		return body
	}

	// JSONL: every line is an object with the fixed keys, sequences are
	// strictly increasing, and the drive's event kinds all appear.
	lines := strings.Split(strings.TrimSuffix(string(fetch("/v1/trace", 200)), "\n"), "\n")
	kinds := map[string]int{}
	lastSeq := -1
	for _, ln := range lines {
		var ev struct {
			Seq  *int    `json:"seq"`
			T    float64 `json:"t"`
			Kind string  `json:"kind"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %q: %v", ln, err)
		}
		if ev.Seq == nil || *ev.Seq <= lastSeq {
			t.Fatalf("trace line %q: sequence not strictly increasing after %d", ln, lastSeq)
		}
		lastSeq = *ev.Seq
		kinds[ev.Kind]++
	}
	for _, k := range []string{"submit", "start", "backfill", "complete"} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %q events; kinds seen: %v", k, kinds)
		}
	}

	// Sampling and limiting compose: at most 2 events, all with seq % 3 == 0.
	sampled := strings.TrimSuffix(string(fetch("/v1/trace?sample=3&limit=2", 200)), "\n")
	if sampled != "" {
		ls := strings.Split(sampled, "\n")
		if len(ls) > 2 {
			t.Fatalf("limit=2 returned %d lines", len(ls))
		}
		for _, ln := range ls {
			var ev struct {
				Seq int `json:"seq"`
			}
			if err := json.Unmarshal([]byte(ln), &ev); err != nil || ev.Seq%3 != 0 {
				t.Fatalf("sample=3 kept seq %d (err %v)", ev.Seq, err)
			}
		}
	}

	// Chrome format parses as one JSON document with instant events.
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(fetch("/v1/trace?format=chrome", 200), &chrome); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	if len(chrome.TraceEvents) != len(lines) {
		t.Fatalf("chrome trace has %d events, JSONL had %d", len(chrome.TraceEvents), len(lines))
	}
	for _, e := range chrome.TraceEvents {
		if e.Ph != "i" {
			t.Fatalf("chrome event %+v is not an instant event", e)
		}
	}

	fetch("/v1/trace?sample=0", http.StatusBadRequest)
	fetch("/v1/trace?limit=-1", http.StatusBadRequest)
	fetch("/v1/trace?format=svg", http.StatusBadRequest)

	// Telemetry off: the endpoint does not exist, and neither does /metrics.
	bare := newTestServer(t, 4)
	resp, err := bare.Client().Get(bare.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled telemetry: /v1/trace = %d, want 404", resp.StatusCode)
	}
	resp, err = bare.Client().Get(bare.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled telemetry: /metrics = %d, want 404", resp.StatusCode)
	}
}

// --- Prometheus text-exposition lint ------------------------------------

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe      = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
	helpRe       = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.+)$`)
	typeRe       = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// lintExposition is a hand-rolled checker for the Prometheus text
// exposition format 0.0.4, strict about the rules a real scraper relies
// on: names and labels well-formed, HELP/TYPE once per family and before
// its samples, families contiguous, histogram buckets cumulative with
// le="+Inf" equal to _count, and _sum/_count present per series.
func lintExposition(t *testing.T, body string) map[string][]promSample {
	t.Helper()
	types := map[string]string{}
	helps := map[string]bool{}
	samples := map[string][]promSample{}
	var familyOrder []string
	closed := map[string]bool{} // families that may not reappear

	family := func(name string) string {
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && types[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		return base
	}
	openFamily := func(fam string) {
		if closed[fam] {
			t.Fatalf("family %q reappears after another family started", fam)
		}
		if len(familyOrder) > 0 && familyOrder[len(familyOrder)-1] == fam {
			return
		}
		for _, f := range familyOrder {
			closed[f] = true
		}
		if closed[fam] {
			t.Fatalf("family %q reappears after another family started", fam)
		}
		familyOrder = append(familyOrder, fam)
	}

	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if m := helpRe.FindStringSubmatch(line); m != nil {
			if helps[m[1]] {
				t.Fatalf("duplicate HELP for %q", m[1])
			}
			helps[m[1]] = true
			openFamily(m[1])
			continue
		}
		if m := typeRe.FindStringSubmatch(line); m != nil {
			if _, dup := types[m[1]]; dup {
				t.Fatalf("duplicate TYPE for %q", m[1])
			}
			if len(samples[m[1]]) > 0 {
				t.Fatalf("TYPE for %q after its samples", m[1])
			}
			types[m[1]] = m[2]
			openFamily(m[1])
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("malformed comment line: %q", line)
		}

		// Sample line: name[{labels}] value
		labels := map[string]string{}
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				t.Fatalf("malformed sample line: %q", line)
			}
			name := line[:i]
			for _, pair := range splitLabels(line[i+1 : j]) {
				m := labelRe.FindStringSubmatch(pair)
				if m == nil {
					t.Fatalf("malformed label %q in line %q", pair, line)
				}
				if _, dup := labels[m[1]]; dup {
					t.Fatalf("duplicate label %q in line %q", m[1], line)
				}
				labels[m[1]] = m[2]
			}
			line = name + line[j+1:]
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("sample line must be `name value`: %q", fields)
		}
		name := fields[0]
		if !metricNameRe.MatchString(name) {
			t.Fatalf("bad metric name %q", name)
		}
		val, err := parsePromValue(fields[1])
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", fields, err)
		}
		fam := family(name)
		if types[fam] == "" {
			t.Fatalf("sample %q has no TYPE for family %q", name, fam)
		}
		if !helps[fam] {
			t.Fatalf("sample %q has no HELP for family %q", name, fam)
		}
		openFamily(fam)
		samples[fam] = append(samples[fam], promSample{name: name, labels: labels, value: val})
	}

	// Histogram-specific rules, per label set (ignoring le).
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		type series struct {
			buckets []promSample
			sum     *promSample
			count   *promSample
		}
		bySeries := map[string]*series{}
		keyOf := func(s promSample) string {
			ks := make([]string, 0, len(s.labels))
			for k, v := range s.labels {
				if k != "le" {
					ks = append(ks, k+"="+v)
				}
			}
			sort.Strings(ks)
			return strings.Join(ks, ",")
		}
		for i := range samples[fam] {
			s := samples[fam][i]
			sr := bySeries[keyOf(s)]
			if sr == nil {
				sr = &series{}
				bySeries[keyOf(s)] = sr
			}
			switch s.name {
			case fam + "_bucket":
				sr.buckets = append(sr.buckets, s)
			case fam + "_sum":
				sr.sum = &samples[fam][i]
			case fam + "_count":
				sr.count = &samples[fam][i]
			default:
				t.Fatalf("histogram %q has stray sample %q", fam, s.name)
			}
		}
		if len(bySeries) == 0 {
			t.Fatalf("histogram %q has no series", fam)
		}
		for key, sr := range bySeries {
			if sr.sum == nil || sr.count == nil {
				t.Fatalf("histogram %q series %q lacks _sum or _count", fam, key)
			}
			if len(sr.buckets) == 0 {
				t.Fatalf("histogram %q series %q has no buckets", fam, key)
			}
			prevLe := -1.0
			prevCum := -1.0
			for _, b := range sr.buckets {
				le, err := parsePromValue(b.labels["le"])
				if err != nil {
					t.Fatalf("histogram %q: bad le %q", fam, b.labels["le"])
				}
				if le <= prevLe {
					t.Fatalf("histogram %q series %q: le not increasing (%v after %v)", fam, key, le, prevLe)
				}
				if b.value < prevCum {
					t.Fatalf("histogram %q series %q: bucket counts not cumulative (%v after %v)", fam, key, b.value, prevCum)
				}
				prevLe, prevCum = le, b.value
			}
			last := sr.buckets[len(sr.buckets)-1]
			if last.labels["le"] != "+Inf" {
				t.Fatalf("histogram %q series %q: last bucket le=%q, want +Inf", fam, key, last.labels["le"])
			}
			if last.value != sr.count.value {
				t.Fatalf("histogram %q series %q: +Inf bucket %v != _count %v", fam, key, last.value, sr.count.value)
			}
		}
	}
	return samples
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// parsePromValue parses a sample value; strconv accepts the +Inf/-Inf/
// NaN literals the format allows.
func parsePromValue(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

func TestScheddMetricsExpositionLint(t *testing.T) {
	_, ts := newTelemetryServer(t, 4, 1024)
	driveTraffic(t, ts)
	// Cold-path reads travel the timed() wrapper too.
	var st struct{}
	get(t, ts, "/v1/status", &st)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: code=%d body=%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type %q is not text exposition 0.0.4", ct)
	}

	samples := lintExposition(t, string(body))

	// The families the README documents must be present with live values.
	want := func(fam string) []promSample {
		t.Helper()
		ss := samples[fam]
		if len(ss) == 0 {
			t.Fatalf("family %q missing from scrape", fam)
		}
		return ss
	}
	if v := want("gensched_jobs_submitted_total")[0].value; v != 3 {
		t.Errorf("gensched_jobs_submitted_total = %v, want 3", v)
	}
	if v := want("gensched_jobs_completed_total")[0].value; v != 3 {
		t.Errorf("gensched_jobs_completed_total = %v, want 3", v)
	}
	if v := want("gensched_jobs_backfilled_total")[0].value; v != 1 {
		t.Errorf("gensched_jobs_backfilled_total = %v, want 1", v)
	}
	want("gensched_clock_seconds")
	want("gensched_queued_jobs")
	want("gensched_job_wait_seconds")
	want("gensched_job_bounded_slowdown")
	want("gensched_queue_depth")
	want("gensched_trace_events_total")

	// Edge latency histograms carry the endpoint label and have seen the
	// driven requests.
	var submitCount float64
	for _, s := range want("gensched_http_request_duration_seconds") {
		if s.name == "gensched_http_request_duration_seconds_count" && s.labels["endpoint"] == "submit" {
			submitCount = s.value
		}
	}
	if submitCount != 3 {
		t.Errorf("edge histogram saw %v submits, want 3", submitCount)
	}

	// A method other than GET is rejected.
	postResp, err := ts.Client().Post(ts.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, postResp.Body)
	_ = postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", postResp.StatusCode)
	}
}
