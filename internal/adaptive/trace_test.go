package adaptive

// The golden trace differential: the telemetry a fixed-seed closed-loop
// run emits must be byte-identical however the loop's internal fan-outs
// are parallelized, and attaching the telemetry must not move a single
// bit of the schedule itself. Together these pin the two halves of the
// observability contract — the trace is deterministic, and observing is
// free of observer effects.

import (
	"bytes"
	"strconv"
	"testing"

	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/telemetry"
)

// tracedCfg is the drifting-stream configuration both golden-trace runs
// share; only Workers differs between them.
func tracedCfg(workers int) Config {
	cfg := testConfig(13)
	cfg.Interval = 21600
	cfg.MinDrift = 0.2
	cfg.Backfill = sim.BackfillEASY
	cfg.Workers = workers
	return cfg
}

// TestGoldenTraceAcrossWorkers runs the full closed loop at Workers=1
// and Workers=8 with an attached sink and requires the rendered JSONL
// and Chrome trace streams to be byte-identical: every event, in the
// same order, with the same sequence numbers, logical timestamps and
// payloads. This is the wire-level counterpart of
// TestLoopDeterministicAcrossWorkers.
func TestGoldenTraceAcrossWorkers(t *testing.T) {
	jobs := driftingJobs(97)
	run := func(workers int) (*telemetry.Sink, []byte, []byte) {
		sink := telemetry.NewSink(1 << 16)
		driveLoop(t, jobs, stale(t), tracedCfg(workers), sink)
		var jsonl, chrome bytes.Buffer
		if err := telemetry.WriteEventsJSONL(&jsonl, sink.Trace.Events(0, 0)); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteEventsChrome(&chrome, sink.Trace.Events(0, 0)); err != nil {
			t.Fatal(err)
		}
		return sink, jsonl.Bytes(), chrome.Bytes()
	}
	sa, ja, ca := run(1)
	sb, jb, cb := run(8)

	if sa.Trace.Total() == 0 {
		t.Fatal("the instrumented loop recorded no trace events")
	}
	if sa.Trace.Dropped() != 0 {
		t.Fatalf("trace ring overflowed (%d dropped); grow the test capacity", sa.Trace.Dropped())
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("JSONL traces differ across worker counts:\n%s", firstDiffLine(ja, jb))
	}
	if !bytes.Equal(ca, cb) {
		t.Error("Chrome traces differ across worker counts")
	}

	// The aggregate view must agree too: every counter and every
	// histogram bucket.
	type pair struct {
		name string
		a, b uint64
	}
	for _, p := range []pair{
		{"submitted", sa.Submitted.Load(), sb.Submitted.Load()},
		{"started", sa.Started.Load(), sb.Started.Load()},
		{"backfilled", sa.Backfilled.Load(), sb.Backfilled.Load()},
		{"completed", sa.Completed.Load(), sb.Completed.Load()},
		{"policy swaps", sa.PolicySwaps.Load(), sb.PolicySwaps.Load()},
		{"adapt rounds", sa.AdaptRounds.Load(), sb.AdaptRounds.Load()},
		{"promotions", sa.Promotions.Load(), sb.Promotions.Load()},
	} {
		if p.a != p.b {
			t.Errorf("%s counter differs: %d vs %d", p.name, p.a, p.b)
		}
	}
	for _, h := range []struct {
		name string
		a, b telemetry.HistSnapshot
	}{
		{"wait", sa.Wait.Snapshot(), sb.Wait.Snapshot()},
		{"slowdown", sa.Slowdown.Snapshot(), sb.Slowdown.Snapshot()},
		{"queue depth", sa.QueueDepth.Snapshot(), sb.QueueDepth.Snapshot()},
		{"drift", sa.Drift.Snapshot(), sb.Drift.Snapshot()},
	} {
		if h.a != h.b {
			t.Errorf("%s histogram differs:\n%+v\n%+v", h.name, h.a, h.b)
		}
	}

	// The run must have exercised the interesting event kinds, or the
	// byte-compare proves little.
	kinds := make(map[telemetry.EventKind]int)
	for _, e := range sa.Trace.Events(0, 0) {
		kinds[e.Kind]++
	}
	for _, k := range []telemetry.EventKind{
		telemetry.EvSubmit, telemetry.EvStart, telemetry.EvBackfill,
		telemetry.EvComplete, telemetry.EvPolicy, telemetry.EvAdapt,
	} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %s events; the differential exercised nothing interesting", k)
		}
	}
	if sa.PolicySwaps.Load() == 0 {
		t.Error("the drifting stream never swapped a policy; the trace misses the hot-swap path")
	}
}

// TestTelemetryObserverFree pins that attaching a sink changes no output
// bit of the closed loop: decisions and final schedule metrics from an
// instrumented run must equal the uninstrumented run's exactly.
func TestTelemetryObserverFree(t *testing.T) {
	jobs := driftingJobs(97)
	bare := driveLoop(t, jobs, stale(t), tracedCfg(4), nil)
	sink := telemetry.NewSink(1 << 16)
	traced := driveLoop(t, jobs, stale(t), tracedCfg(4), sink)

	if bare.metrics != traced.metrics {
		t.Fatalf("telemetry changed the schedule metrics:\n%+v\n%+v", bare.metrics, traced.metrics)
	}
	if len(bare.decisions) != len(traced.decisions) {
		t.Fatalf("telemetry changed the decision count: %d vs %d", len(bare.decisions), len(traced.decisions))
	}
	for i := range bare.decisions {
		da, db := bare.decisions[i], traced.decisions[i]
		if da.At != db.At || da.Round != db.Round || da.Reason != db.Reason ||
			da.Promoted != db.Promoted || da.PolicyExpr != db.PolicyExpr ||
			!sameFloat(da.Drift, db.Drift) {
			t.Fatalf("telemetry changed decision %d:\n%+v\n%+v", i, da, db)
		}
	}
	if sink.Trace.Total() == 0 {
		t.Fatal("the instrumented run recorded nothing; the comparison proves little")
	}
}

// firstDiffLine renders the first differing line of two JSONL streams
// for a readable failure message.
func firstDiffLine(a, b []byte) string {
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return "line " + strconv.Itoa(i) + " differs:\n" + string(la[i]) + "\n" + string(lb[i])
		}
	}
	return "streams differ in length only"
}
