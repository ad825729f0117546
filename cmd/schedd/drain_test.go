package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// durableTestConfig is testConfig journaling to dir with no checkpoint
// cadence: checkpoints happen only at drain.
func durableTestConfig(dir string) daemonConfig {
	cfg := testConfig(8)
	cfg.dataDir = dir
	return cfg
}

// TestDrainRefusesLateMutationsAndClosesJournal pins the graceful-drain
// ordering: the drain waits out in-flight mutations (it takes every
// shard lock), closes the journal after the last one, and every later
// mutation gets 503 — while /healthz stays 200, because a clean drain is
// not a store failure.
func TestDrainRefusesLateMutationsAndClosesJournal(t *testing.T) {
	dir := t.TempDir()
	sv, ts := startServer(t, durableTestConfig(dir))
	if code, r := post(t, ts, "/v1/submit", `{"id":1,"cores":2,"runtime":50,"estimate":50}`); code != 200 {
		t.Fatalf("submit: code=%d reply=%+v", code, r)
	}
	if err := sv.fd.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, r := post(t, ts, "/v1/submit", `{"id":2,"cores":1,"runtime":10,"estimate":10}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(r.Error, "draining") {
		t.Fatalf("post-drain submit: code=%d reply=%+v, want 503 draining", code, r)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after clean drain: %d, want 200", resp.StatusCode)
	}
	// Idempotent: the post-serve safety net must not double-close or
	// invent an error.
	if err := sv.fd.Drain(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	// The drain checkpointed: a reopen recovers from the snapshot with
	// zero journal replay.
	fd, err := openFederation(durableTestConfig(dir))
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer func() { _ = fd.Drain() }()
	if h := fd.Health()[0]; !h.FromSnapshot || h.Replayed != 0 {
		t.Fatalf("recovery after drain: %+v, want snapshot with 0 replayed", h)
	}
	st := fd.Status()
	if st.Submitted != 1 || st.Running != 1 {
		t.Fatalf("recovered status: %+v", st)
	}
}

// TestDrainFsyncFailureLatchesStore pins the failure half of the drain
// contract: when the final flush fails, the store latches the error —
// /healthz turns 503 for the rest of the grace window — and the drain
// reports it instead of pretending the daemon drained cleanly.
func TestDrainFsyncFailureLatchesStore(t *testing.T) {
	dir := t.TempDir()
	sv, ts := startServer(t, durableTestConfig(dir))
	if code, r := post(t, ts, "/v1/submit", `{"id":1,"cores":2,"runtime":50,"estimate":50}`); code != 200 {
		t.Fatalf("submit: code=%d reply=%+v", code, r)
	}
	// Yank the data directory out from under the final checkpoint.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := sv.fd.Drain(); err == nil {
		t.Fatal("drain reported a clean drain with its data directory gone")
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after failed drain: %d, want 503", resp.StatusCode)
	}
	// The latched error persists through the safety-net drain: the
	// process must exit nonzero.
	if err := sv.fd.Drain(); err == nil {
		t.Fatal("the second drain forgot the first one's failure")
	}
}

// TestServeDrainFailureForcesNonzeroExit runs the real serve loop and
// requires the drain error to surface from serve itself (the run() exit
// status), even though the HTTP listener shut down cleanly.
func TestServeDrainFailureForcesNonzeroExit(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(dir)
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
	go func() { done <- serve(ctx, l, newServer(fd, cfg).handler(), fd.Drain) }()
	url := "http://" + l.Addr().String()
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := http.Post(url+"/v1/submit", "application/json",
			strings.NewReader(`{"id":1,"cores":1,"runtime":10,"estimate":10}`))
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
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("serve returned nil after a failed drain; the exit status would be 0 with unsynced state")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return within 5s of cancellation")
	}
}
