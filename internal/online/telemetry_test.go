package online_test

import (
	"testing"

	"github.com/hpcsched/gensched/internal/lublin"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/telemetry"
)

// TestReplayTelemetryObserverFree replays the same stream with and
// without an attached sink and requires the two schedules to be
// bit-identical in every per-job and aggregate field — the pin behind
// the nil-guarded hook design: instrumentation is observation only,
// never an input to the schedule.
func TestReplayTelemetryObserverFree(t *testing.T) {
	gen, err := lublin.NewGenerator(lublin.DefaultParams(128), 128, 4242)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Jobs(2000)
	opt := online.ReplayOptions{
		Policy:       sched.F1(),
		Backfill:     sim.BackfillEASY,
		UseEstimates: true,
		Check:        true,
	}
	bare, err := online.Replay(128, jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink(4096)
	opt.Telemetry = sink
	traced, err := online.Replay(128, jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareResults(traced, bare); err != nil {
		t.Fatalf("attaching telemetry moved the schedule: %v", err)
	}

	// The sink must have seen the whole stream: one submit, one start
	// and one complete per job, and the backfill counter must match the
	// engine's own count.
	if got := sink.Submitted.Load(); got != uint64(len(jobs)) {
		t.Errorf("submitted counter %d, want %d", got, len(jobs))
	}
	if got := sink.Started.Load(); got != uint64(len(jobs)) {
		t.Errorf("started counter %d, want %d", got, len(jobs))
	}
	if got := sink.Completed.Load(); got != uint64(len(jobs)) {
		t.Errorf("completed counter %d, want %d", got, len(jobs))
	}
	if got := sink.Backfilled.Load(); got != uint64(bare.Backfilled) {
		t.Errorf("backfilled counter %d, want %d", got, bare.Backfilled)
	}
	if got := histCount(&sink.Wait); got != uint64(len(jobs)) {
		t.Errorf("wait histogram count %d, want %d", got, len(jobs))
	}
	if histCount(&sink.QueueDepth) == 0 {
		t.Error("queue-depth histogram never sampled a pass")
	}
}

// histCount is a histogram's observation count, the sum of its buckets.
func histCount(h *telemetry.Histogram) uint64 {
	var n uint64
	for _, c := range h.Snapshot().Counts {
		n += c
	}
	return n
}
