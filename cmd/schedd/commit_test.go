package main

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"testing"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/faultfs"
	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/workload"
)

// countedServer boots a durable one-shard daemon whose journal runs on a
// fault-free faultfs, so its syncs can be counted and its power-cut
// images taken.
func countedServer(t *testing.T) (sv *server, ffs *faultfs.FS, dir string) {
	t.Helper()
	ffs = faultfs.New(nil, faultfs.Schedule{})
	cfg := testConfig(64)
	dir = t.TempDir()
	fd, err := fed.Open(countedFedConfig(cfg), countedDurable(dir, ffs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fd.Drain() })
	return newServer(fd, cfg), ffs, dir
}

func countedFedConfig(cfg daemonConfig) fed.Config {
	return fed.Config{
		Shards: 1, ShardCores: cfg.cores, Seed: cfg.fedSeed,
		Opt: online.Options{Policy: sched.FCFS()},
	}
}

// countedDurable is countedServer's journal configuration over dir; a
// nil fs means the real filesystem.
func countedDurable(dir string, fs *faultfs.FS) fed.DurableConfig {
	dc := fed.DurableConfig{Dir: dir, SyncEvery: 1, PolicyName: "FCFS", ResolvePolicy: resolvePolicy}
	if fs != nil {
		dc.FS = func(int) durable.FS { return fs }
	}
	return dc
}

// TestHTTPMutationSyncsOnce: an HTTP mutation is a one-record batch, so
// a one-shard daemon at -fsync 1 pays exactly one sync per request.
func TestHTTPMutationSyncsOnce(t *testing.T) {
	sv, ffs, _ := countedServer(t)
	for i := 1; i <= 5; i++ {
		s0, _, _, _ := ffs.Counts()
		rec := durable.Record{Op: durable.OpSubmit, Now: float64(i),
			Job: workload.Job{ID: i, Submit: float64(i), Runtime: 10, Estimate: 10, Cores: 1}}
		if _, _, _, err := sv.apply(&rec, nil); err != nil {
			t.Fatal(err)
		}
		if s1, _, _, _ := ffs.Counts(); s1-s0 != 1 {
			t.Fatalf("request %d: %d syncs, want 1", i, s1-s0)
		}
	}
}

// TestDurableFrameApplyAllocatesNothing: a warm durable frame — buffered
// appends plus one commit — allocates nothing.
func TestDurableFrameApplyAllocatesNothing(t *testing.T) {
	sv, _, _ := countedServer(t)
	b := sv.fd.Batch()
	recs := make([]durable.Record, 0, 32)
	var starts []online.Start
	id, now := 0, 0.0
	frame := func() {
		recs = recs[:0]
		for k := 0; k < 16; k++ {
			id++
			now++
			recs = append(recs,
				durable.Record{Op: durable.OpSubmit, Now: now, Job: workload.Job{ID: id, Submit: now, Runtime: 1, Estimate: 1, Cores: 1}},
				durable.Record{Op: durable.OpComplete, Now: now + 1, ID: id})
		}
		var err error
		if _, starts, err = sv.applyWire(&b, recs, starts[:0]); err != nil {
			panic(fmt.Sprintf("frame: %v", err))
		}
	}
	for i := 0; i < 50; i++ {
		frame() // warm the scheduler, router and journal buffers
	}
	if n := testing.AllocsPerRun(100, frame); n != 0 {
		t.Fatalf("warm durable frame apply: %v allocs per frame, want 0", n)
	}
}

// TestRejectedFrameCommitsItsPrefix: a frame refused at record k still
// commits records 0..k-1 before applyWire returns the error the Err
// reply carries: a power cut right then keeps them.
func TestRejectedFrameCommitsItsPrefix(t *testing.T) {
	sv, ffs, dir := countedServer(t)
	job := func(id int) durable.Record {
		return durable.Record{Op: durable.OpSubmit, Now: 1, Job: workload.Job{ID: id, Submit: 1, Runtime: 10, Estimate: 10, Cores: 1}}
	}
	recs := []durable.Record{job(1), job(2), job(1), job(3)}
	b := sv.fd.Batch()
	s0, _, _, _ := ffs.Counts()
	seq0 := sv.fd.Health()[0].Seq
	_, _, err := sv.applyWire(&b, recs, nil)
	if err == nil || errStatus(err) != 409 {
		t.Fatalf("frame with a duplicate at record 2: %v, want 409", err)
	}
	if got := sv.fd.Health()[0].Seq - seq0; got != 2 {
		t.Fatalf("journaled %d records before the rejection, want 2", got)
	}
	if s1, _, _, _ := ffs.Counts(); s1-s0 != 1 {
		t.Fatalf("rejected frame: %d syncs, want 1 covering its applied prefix", s1-s0)
	}
	img := filepath.Join(t.TempDir(), "img")
	if err := ffs.CrashImage(dir, img); err != nil {
		t.Fatal(err)
	}
	g, err := fed.Open(countedFedConfig(testConfig(64)), countedDurable(img, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Drain()
	if got := g.Health()[0].Seq; got != seq0+2 {
		t.Fatalf("power cut at the Err reply recovered journal seq %d, want %d: the refused frame's prefix is lost", got, seq0+2)
	}
}

// TestBinaryRefusesNonFiniteFloats: a record carrying a NaN or infinite
// float gets a 400 Err frame, alone or inside a batch, and nothing of
// the message is applied.
func TestBinaryRefusesNonFiniteFloats(t *testing.T) {
	sv, ts := startServer(t, testConfig(8))
	bc := dialBin(t, startBinServer(t, sv))
	job := func(id int, now, runtime float64) durable.Record {
		return durable.Record{Op: durable.OpSubmit, Now: now,
			Job: workload.Job{ID: id, Submit: 1, Runtime: runtime, Estimate: 10, Cores: 1}}
	}
	nan := job(1, math.NaN(), 10)
	_, _, err := bc.record(&nan)
	if we, ok := err.(*fed.WireError); !ok || we.Code != http.StatusBadRequest || we.Retryable {
		t.Fatalf("NaN now: %v, want a non-retryable 400 Err frame", err)
	}
	payload, err := fed.AppendBatchMsg(nil, []durable.Record{job(2, 1, 10), job(3, 1, math.Inf(1))})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = bc.roundTrip(payload)
	if we, ok := err.(*fed.WireError); !ok || we.Code != http.StatusBadRequest || we.Retryable {
		t.Fatalf("batch with an infinite runtime: %v, want a non-retryable 400 Err frame", err)
	}
	var st struct {
		Submitted int `json:"submitted"`
	}
	get(t, ts, "/v1/status", &st)
	if st.Submitted != 0 {
		t.Fatalf("refused messages applied %d submits, want 0", st.Submitted)
	}
}
