package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/simtest"
	"github.com/hpcsched/gensched/internal/workload"
)

// The crash-point tests: kill a one-shard daemon's on-disk state at
// every record boundary (and inside record frames), recover, replay the
// rest of the op stream through the daemon's mutation path, and require
// the final state to be BIT-IDENTICAL to an uninterrupted run — compared
// as canonical snapshot bytes, which cover the engine image, every
// metrics aggregate, the active policy descriptor and the adaptive
// loop's state. (internal/fed's crash suite covers 1/4/8 shards without
// the adaptive loop.)

// scriptOps turns a workload into the deterministic operation stream a
// live client would produce: submissions at their submit times and
// completions when the execution time has elapsed after the start the
// scheduler chose (which requires actually running the scheduler while
// scripting — the stream depends on its decisions). Control ops (policy
// swap, adaptive start/stop) are injected at fixed op counts.
func scriptOps(t *testing.T, cfg daemonConfig, jobs []workload.Job, withControl bool) []durable.Record {
	t.Helper()
	cfg.dataDir = ""
	sv, _ := startServer(t, cfg)
	var h schedcore.EventHeap
	for i := range jobs {
		h.Push(schedcore.Event{Time: jobs[i].Submit, Kind: schedcore.KindArrival, Ref: i})
	}
	var ops []durable.Record
	swapAt, adaptAt, stopAt := -1, -1, -1
	if withControl {
		n := 2 * len(jobs)
		adaptAt, swapAt, stopAt = n/5, n/2, (9*n)/10
	}
	var inject func()
	inject = func() {
		switch len(ops) {
		case adaptAt:
			ops = append(ops, durable.Record{Op: durable.OpAdaptStart, Adapt: &durable.AdaptConfig{
				Window: 64, MinWindow: 8, Interval: 200, SSize: 8, QSize: 16,
				Tuples: 1, Trials: 8, TopK: 1, Workers: 1, Seed: 7,
			}})
		case swapAt:
			ops = append(ops, durable.Record{Op: durable.OpPolicy, Name: "CRASHTEST",
				Expr: "log10(r)*n + 870*log10(s)"})
		case stopAt:
			// Coverage guard: the loop must actually have retrained before
			// the stream stops it, or the sweep isn't exercising adaptive
			// recovery. The real runs replay this exact deterministic
			// stream, so asserting here covers them all.
			if a := sv.fd.AdaptStatus()[0]; !a.Enabled || a.Rounds == 0 {
				t.Fatal("scripted stream never ran an adaptation round; retune the injection points")
			}
			ops = append(ops, durable.Record{Op: durable.OpAdaptStop})
		default:
			return
		}
		rec := ops[len(ops)-1]
		if _, _, _, err := sv.apply(&rec, nil); err != nil {
			t.Fatalf("scripting op %d (%v): %v", len(ops)-1, rec.Op, err)
		}
		inject() // two injection counts can collide on one boundary
	}
	step := func(rec durable.Record) []online.Start {
		inject()
		_, starts, _, err := sv.apply(&rec, nil)
		if err != nil {
			t.Fatalf("scripting op %d (%v): %v", len(ops), rec.Op, err)
		}
		ops = append(ops, rec)
		return starts
	}
	push := func(starts []online.Start) {
		for _, st := range starts {
			i := -1
			for j := range jobs {
				if jobs[j].ID == st.ID {
					i = j
					break
				}
			}
			h.Push(schedcore.Event{Time: st.Time + jobs[i].Runtime, Kind: schedcore.KindCompletion, Ref: i})
		}
	}
	for h.Len() > 0 {
		ev := h.Pop()
		switch ev.Kind {
		case schedcore.KindArrival:
			push(step(durable.Record{Op: durable.OpSubmit, Now: ev.Time, Job: jobs[ev.Ref]}))
		case schedcore.KindCompletion:
			push(step(durable.Record{Op: durable.OpComplete, Now: ev.Time, ID: jobs[ev.Ref].ID}))
		}
	}
	if v := sv.fd.Status().Violation; v != "" {
		t.Fatalf("scripting run violated invariants: %s", v)
	}
	return ops
}

// fingerprint is the canonical byte image of everything the daemon would
// checkpoint — the one shard's snapshot, journal sequence left zero — so
// runs that checkpointed at different moments still compare equal iff
// their state is equal.
func fingerprint(t *testing.T, sv *server) []byte {
	t.Helper()
	snap, err := sv.fd.ShardSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	return durable.EncodeSnapshot(snap)
}

// schedFingerprint is fingerprint restricted to what scheduling decides —
// the engine image, the aggregates and the adaptive loop — leaving out
// the boot descriptors and routing mirrors only a journaled shard keeps.
func schedFingerprint(t *testing.T, sv *server) []byte {
	t.Helper()
	snap, err := sv.fd.ShardSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	return durable.EncodeSnapshot(&durable.Snapshot{Sched: snap.Sched, Adapt: snap.Adapt})
}

// copyDir clones a data directory recursively: kill -9 at an op
// boundary, shard subdirectories included.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// shard0 is where a one-shard daemon journals under its data directory.
func shard0(dir string) string { return filepath.Join(dir, "shard-0000") }

// openJournaled boots a journaled one-shard daemon on dir.
func openJournaled(t *testing.T, cfg daemonConfig, dir string, ckptEvery float64) *server {
	t.Helper()
	cfg.dataDir, cfg.ckptEvery = dir, ckptEvery
	fd, err := openFederation(cfg)
	if err != nil {
		t.Fatalf("boot on %s: %v", dir, err)
	}
	return newServer(fd, cfg)
}

// runJournaled boots a durable daemon on dir, applies ops, and calls
// after(k) once the k-th op is on disk. Returns the server and a copy of
// every op's start notifications.
func runJournaled(t *testing.T, dir string, cfg daemonConfig, ops []durable.Record, ckptEvery float64, after func(k int)) (*server, [][]online.Start) {
	t.Helper()
	sv := openJournaled(t, cfg, dir, ckptEvery)
	startsLog := make([][]online.Start, len(ops))
	for k := range ops {
		rec := ops[k]
		_, starts, _, err := sv.apply(&rec, nil)
		if err != nil {
			t.Fatalf("op %d (%v): %v", k, rec.Op, err)
		}
		startsLog[k] = starts
		if after != nil {
			after(k)
		}
	}
	return sv, startsLog
}

// recoverAndFinish reopens a crashed data directory, replays ops[from:]
// (checking each op's starts against the uninterrupted run), and returns
// the final fingerprint.
func recoverAndFinish(t *testing.T, dir string, cfg daemonConfig, ops []durable.Record, startsLog [][]online.Start, from int, ckptEvery float64) []byte {
	t.Helper()
	sv := openJournaled(t, cfg, dir, ckptEvery)
	for k := from; k < len(ops); k++ {
		rec := ops[k]
		_, starts, _, err := sv.apply(&rec, nil)
		if err != nil {
			t.Fatalf("crash point %d: reapplying op %d (%v): %v", from, k, rec.Op, err)
		}
		if len(starts) != len(startsLog[k]) {
			t.Fatalf("crash point %d: op %d started %d jobs, uninterrupted run started %d",
				from, k, len(starts), len(startsLog[k]))
		}
		for i := range starts {
			if starts[i] != startsLog[k][i] {
				t.Fatalf("crash point %d: op %d start %d = %+v, uninterrupted %+v",
					from, k, i, starts[i], startsLog[k][i])
			}
		}
	}
	fp := fingerprint(t, sv)
	if err := sv.fd.Drain(); err != nil {
		t.Fatalf("crash point %d: shutdown: %v", from, err)
	}
	return fp
}

// crashConfig is the daemon the crash sweeps run.
func crashConfig(cores int, backfill, policy string, estimates bool) daemonConfig {
	cfg := testConfig(cores)
	cfg.backfill, cfg.policy, cfg.estimates = backfill, policy, estimates
	return cfg
}

func crashWorkload(t *testing.T, seed uint64, n, cores int) []workload.Job {
	rng := dist.New(seed)
	return simtest.IntegerJobs(rng, n, cores)
}

// TestCrashRecoveryEveryRecord is the core crash-point sweep, without
// checkpoints: the journal alone must reconstruct the state from any
// record boundary.
func TestCrashRecoveryEveryRecord(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 18
	}
	const cores = 16
	cfg := crashConfig(cores, "easy", "F1", true)
	jobs := crashWorkload(t, 42, n, cores)
	ops := scriptOps(t, cfg, jobs, false)

	base := t.TempDir()
	live := filepath.Join(base, "live")
	crashAt := func(k int) string { return filepath.Join(base, fmt.Sprintf("crash-%04d", k)) }
	sv, startsLog := runJournaled(t, live, cfg, ops, 0, func(k int) {
		copyDir(t, live, crashAt(k))
	})
	want := fingerprint(t, sv)
	wantSched := schedFingerprint(t, sv)
	if err := sv.fd.Drain(); err != nil {
		t.Fatal(err)
	}

	// An in-memory daemon applying the same stream: journaling must not
	// perturb scheduling at all.
	plain, _ := startServer(t, cfg)
	for k := range ops {
		rec := ops[k]
		if _, _, _, err := plain.apply(&rec, nil); err != nil {
			t.Fatalf("plain op %d: %v", k, err)
		}
	}
	if !bytes.Equal(schedFingerprint(t, plain), wantSched) {
		t.Fatal("journaled run diverged from the in-memory run")
	}

	// Every record boundary: recover, replay the remainder, compare.
	for k := range ops {
		if got := recoverAndFinish(t, crashAt(k), cfg, ops, startsLog, k+1, 0); !bytes.Equal(got, want) {
			t.Fatalf("crash after op %d: recovered state differs from uninterrupted run", k)
		}
	}
	// The graceful-shutdown path: the live dir now holds a final
	// checkpoint; recovery from it must land on the same state.
	if got := recoverAndFinish(t, live, cfg, ops, startsLog, len(ops), 0); !bytes.Equal(got, want) {
		t.Fatal("recovery from the final checkpoint differs from uninterrupted run")
	}
}

// TestCrashRecoveryTornTail crashes INSIDE record frames: every byte-
// truncation of an op's frame must recover to the previous boundary and
// accept the rest of the stream.
func TestCrashRecoveryTornTail(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 10
	}
	const cores = 8
	cfg := crashConfig(cores, "conservative", "FCFS", false)
	jobs := crashWorkload(t, 7, n, cores)
	ops := scriptOps(t, cfg, jobs, false)

	base := t.TempDir()
	live := filepath.Join(base, "live")
	crashAt := func(k int) string { return filepath.Join(base, fmt.Sprintf("crash-%04d", k)) }
	sv, startsLog := runJournaled(t, live, cfg, ops, 0, func(k int) {
		copyDir(t, live, crashAt(k))
	})
	want := fingerprint(t, sv)
	if err := sv.fd.Drain(); err != nil {
		t.Fatal(err)
	}

	for k := 1; k < len(ops); k += 3 {
		// The dir copy at k ends with op k's frame; chop bytes off its
		// tail so recovery sees a torn append of op k.
		dir := shard0(crashAt(k))
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var segPath string
		for _, e := range names {
			if filepath.Ext(e.Name()) == ".log" {
				segPath = filepath.Join(dir, e.Name()) // only one segment: no checkpoints ran
			}
		}
		full, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		// The copy at k-1 ends right before op k's frame.
		frameLen := len(full) - segmentLenAfter(t, crashAt(k-1))
		for _, cut := range []int{1, frameLen / 2, frameLen - 1} {
			if cut <= 0 || cut >= frameLen {
				continue
			}
			torn := filepath.Join(base, fmt.Sprintf("torn-%04d-%d", k, cut))
			copyDir(t, crashAt(k), torn)
			if err := os.WriteFile(filepath.Join(shard0(torn), filepath.Base(segPath)), full[:len(full)-cut], 0o644); err != nil {
				t.Fatal(err)
			}
			// Op k's append was torn away: recovery resumes from op k.
			if got := recoverAndFinish(t, torn, cfg, ops, startsLog, k, 0); !bytes.Equal(got, want) {
				t.Fatalf("torn tail at op %d (cut %d): recovered state differs", k, cut)
			}
		}
	}
}

// segmentLenAfter reports the single journal segment's size in a crash
// copy, so the caller can compute the last op's frame length.
func segmentLenAfter(t *testing.T, dir string) int {
	t.Helper()
	dir = shard0(dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			return int(info.Size())
		}
	}
	t.Fatalf("no segment in %s", dir)
	return 0
}

// TestCrashRecoveryWithCheckpointsAndAdaptive is the full-stack sweep:
// policy hot-swap and a live adaptive retraining loop in the op stream,
// checkpoints interleaving with the crash points, so recovery exercises
// snapshot-load + bounded replay (including re-deriving retraining
// rounds) rather than replay-from-genesis.
func TestCrashRecoveryWithCheckpointsAndAdaptive(t *testing.T) {
	n := 36
	if testing.Short() {
		n = 16
	}
	const cores = 16
	const ckptEvery = 150 // logical seconds; the op stream spans far more
	cfg := crashConfig(cores, "easy", "F1", true)
	jobs := crashWorkload(t, 1234, n, cores)
	ops := scriptOps(t, cfg, jobs, true)

	base := t.TempDir()
	live := filepath.Join(base, "live")
	crashAt := func(k int) string { return filepath.Join(base, fmt.Sprintf("crash-%04d", k)) }
	sv, startsLog := runJournaled(t, live, cfg, ops, ckptEvery, func(k int) {
		copyDir(t, live, crashAt(k))
	})
	if got, wantSeq := sv.fd.Health()[0].Seq, uint64(len(ops)+1); got != wantSeq {
		t.Fatalf("journal sequence after the run = %d, want %d (genesis + ops)", got, wantSeq)
	}
	want := fingerprint(t, sv)
	if sv.fd.AdaptStatus()[0].Enabled {
		t.Fatal("scripted stream should have stopped the adaptive loop")
	}
	if err := sv.fd.Drain(); err != nil {
		t.Fatal(err)
	}

	sawSnapshot := false
	for k := range ops {
		if _, err := os.Stat(filepath.Join(shard0(crashAt(k)), "snapshot")); err == nil {
			sawSnapshot = true
		}
		if got := recoverAndFinish(t, crashAt(k), cfg, ops, startsLog, k+1, ckptEvery); !bytes.Equal(got, want) {
			t.Fatalf("crash after op %d: recovered state differs from uninterrupted run", k)
		}
	}
	if !sawSnapshot {
		t.Fatal("no crash point contained a checkpoint; lower ckptEvery")
	}
	if got := recoverAndFinish(t, live, cfg, ops, startsLog, len(ops), ckptEvery); !bytes.Equal(got, want) {
		t.Fatal("recovery from the final checkpoint differs from uninterrupted run")
	}
}

// TestDataDirFlagMismatch pins the guard: a journal recorded under one
// machine shape refuses to boot under different flags.
func TestDataDirFlagMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(8)
	cfg.check = false
	sv := openJournaled(t, cfg, dir, 0)
	rec := durable.Record{Op: durable.OpSubmit, Now: 1, Job: workload.Job{ID: 1, Submit: 1, Runtime: 10, Cores: 1}}
	if _, _, _, err := sv.apply(&rec, nil); err != nil {
		t.Fatal(err)
	}
	if err := sv.fd.Drain(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.cores, bad.dataDir = 16, dir
	if _, err := openFederation(bad); err == nil {
		t.Fatal("boot accepted a journal recorded with different cores")
	}
	// The original shape still boots, and the submitted job survived.
	sv2 := openJournaled(t, cfg, dir, 0)
	st := sv2.fd.Status()
	if st.Running+st.Queued != 1 {
		t.Fatalf("recovered status lost the job: %+v", st)
	}
	if err := sv2.fd.Drain(); err != nil {
		t.Fatal(err)
	}
}
