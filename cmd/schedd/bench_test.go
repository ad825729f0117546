package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkScheddEvents measures the daemon's serving loop — JSON decode,
// scheduler advance+apply+flush, JSON encode — without the TCP stack: one
// op is a submit request plus a complete request against the live
// handler. The acceptance target is ≥100k events/sec on one core;
// allocs/op is dominated by net/http request plumbing and body decoding
// (the scheduler core itself is allocation-free in steady state, see
// internal/online's BenchmarkSchedulerSteadyState).
func BenchmarkScheddEvents(b *testing.B) {
	cfg := testConfig(64)
	cfg.policy, cfg.check = "F1", false
	fd, err := openFederation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := newServer(fd, cfg).handler()
	var body strings.Reader
	do := func(path, payload string) {
		body.Reset(payload)
		req := httptest.NewRequest(http.MethodPost, path, &body)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, w.Code, w.Body)
		}
	}
	clock := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock++
		do("/v1/submit", fmt.Sprintf(`{"id":1,"cores":8,"runtime":100,"estimate":120,"now":%g}`, clock))
		clock++
		do("/v1/complete", fmt.Sprintf(`{"id":1,"now":%g}`, clock))
	}
	b.StopTimer()
	b.ReportMetric(2, "events/op")
	if perOp := b.Elapsed().Seconds() / float64(b.N); perOp > 0 {
		b.ReportMetric(2/perOp, "events/sec")
	}
}
