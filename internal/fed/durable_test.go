// Durable-federation tests: the federated crash suite (kill -9 at
// every record boundary, for 1/4/8 shards, with and without checkpoint
// rotation), deterministic fault injection through the VFS seam
// (quarantine sequencing, healthy-substream equivalence, chaos plans),
// the single-engine → federation layout migration, and the client-side
// retry surface.

package fed

import (
	"bytes"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/faultfs"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/workload"
)

func durOpts() online.Options {
	return online.Options{Policy: sched.F1(), Backfill: sim.BackfillEASY, UseEstimates: true}
}

func durCfg(shards int) Config {
	return Config{Shards: shards, ShardCores: testCores, Seed: 1, TraceBuf: 4096, Opt: durOpts()}
}

func testResolvePolicy(name, expr string) (sched.Policy, error) {
	if expr != "" {
		return sched.ParseExpr(name, expr)
	}
	return sched.ByName(name)
}

func durDC(dir string) DurableConfig {
	return DurableConfig{Dir: dir, SyncEvery: 1, PolicyName: "F1", ResolvePolicy: testResolvePolicy}
}

// scriptFedOps drives a throwaway non-durable federation through the
// live-test request pattern (submit everything, then complete running
// jobs in ID order at clock+1 until drained) and records the client
// request stream it produced. The stream is a pure function of the
// inputs, so it can be replayed against durable federations — including
// partially recovered ones — as the canonical workload. With mutations
// true the per-shard adaptive loops start early in the submit phase, a
// policy swap is spliced into it, and a clock advance sits between the
// phases; the fault tests leave them out so every op targets exactly one
// shard.
func scriptFedOps(t *testing.T, shards int, jobs []workload.Job, mutations bool) []durable.Record {
	t.Helper()
	f, err := New(durCfg(shards))
	if err != nil {
		t.Fatal(err)
	}
	var ops []durable.Record
	running := make(map[int]bool)
	addStarts := func(sts []online.Start) {
		for _, st := range sts {
			running[st.ID] = true
		}
	}
	apply := func(rec durable.Record) {
		t.Helper()
		ops = append(ops, rec)
		if rec.Op == durable.OpAdaptStart || rec.Op == durable.OpAdaptStop || rec.Op == durable.OpPolicy {
			if err := applyFedOp(f, &rec); err != nil {
				t.Fatalf("script %v: %v", rec.Op, err)
			}
			return
		}
		switch rec.Op {
		case durable.OpSubmit:
			_, sts, _, err := f.Submit(rec.Now, rec.Job, nil)
			if err != nil {
				t.Fatalf("script submit %d: %v", rec.Job.ID, err)
			}
			addStarts(sts)
		case durable.OpComplete:
			sts, _, err := f.Complete(rec.Now, rec.ID, nil)
			if err != nil {
				t.Fatalf("script complete %d: %v", rec.ID, err)
			}
			addStarts(sts)
		case durable.OpAdvance:
			sts, _, err := f.AdvanceTo(rec.Now, nil)
			if err != nil {
				t.Fatalf("script advance: %v", err)
			}
			addStarts(sts)
		}
	}
	for k, j := range jobs {
		if mutations && k == len(jobs)/4 {
			// Rounds small enough to retrain often on a tiny window.
			apply(durable.Record{Op: durable.OpAdaptStart, Adapt: &durable.AdaptConfig{
				Window: 32, MinWindow: 2, Interval: (jobs[len(jobs)-1].Submit - jobs[0].Submit) / 8,
				SSize: 4, QSize: 8, Tuples: 1, Trials: 8, TopK: 1, Workers: 1, Seed: 3,
			}})
		}
		if mutations && k == len(jobs)/2 {
			apply(durable.Record{Op: durable.OpPolicy, Name: "LIN", Expr: "log10(r)*n + 870*log10(s)"})
		}
		apply(durable.Record{Op: durable.OpSubmit, Now: j.Submit, Job: j})
	}
	if mutations {
		apply(durable.Record{Op: durable.OpAdvance, Now: f.Clock() + 30})
	}
	for len(running) > 0 {
		ids := make([]int, 0, len(running))
		for id := range running {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			delete(running, id)
			apply(durable.Record{Op: durable.OpComplete, Now: f.Clock() + 1, ID: id})
		}
	}
	if mutations {
		rounds := 0
		for _, a := range f.AdaptStatus() {
			rounds += a.Rounds
		}
		if rounds == 0 {
			t.Fatal("scripted stream never retrained; retune the adaptive sizing")
		}
	}
	return ops
}

// applyFedOp replays one scripted client request against a federation.
func applyFedOp(f *Federation, rec *durable.Record) error {
	switch rec.Op {
	case durable.OpSubmit:
		_, _, _, err := f.Submit(rec.Now, rec.Job, nil)
		return err
	case durable.OpComplete:
		_, _, err := f.Complete(rec.Now, rec.ID, nil)
		return err
	case durable.OpAdvance:
		_, _, err := f.AdvanceTo(rec.Now, nil)
		return err
	case durable.OpPolicy:
		p, err := testResolvePolicy(rec.Name, rec.Expr)
		if err != nil {
			return err
		}
		return f.SetPolicy(p, rec.Name, rec.Expr)
	case durable.OpAdaptStart:
		return f.StartAdapt(*rec.Adapt)
	case durable.OpAdaptStop:
		return f.StopAdapt()
	}
	return fmt.Errorf("unscripted op %v", rec.Op)
}

// fedFingerprint canonicalizes a durable federation's observable state:
// merged status plus every shard's encoded snapshot image (the byte
// oracle — two runs are in the same state iff these bytes match),
// optionally the merged decision trace. Recovery provenance (Replayed,
// Segments, journal Seq) is deliberately excluded: a recovered twin
// differs there by construction.
func fedFingerprint(t testing.TB, f *Federation, withTrace bool) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "status %+v\n", f.Status())
	for i := 0; i < f.cfg.Shards; i++ {
		snap, err := f.ShardSnapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "shard %d %x\n", i, durable.EncodeSnapshot(snap))
	}
	if withTrace {
		fmt.Fprintf(&b, "trace %+v\n", f.MergedTrace(1, 0))
	}
	return b.String()
}

// copyTree clones a data directory recursively — the moral equivalent
// of kill -9 at an op boundary, shard subdirectories included.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d iofs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		rel, rerr := filepath.Rel(src, p)
		if rerr != nil {
			return rerr
		}
		dest := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(dest, 0o755)
		}
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		return os.WriteFile(dest, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// treeHasSnapshot reports whether any shard under dir has published a
// snapshot — i.e. the checkpoint cadence actually fired.
func treeHasSnapshot(t testing.TB, dir string) bool {
	t.Helper()
	found := false
	err := filepath.WalkDir(dir, func(p string, d iofs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if !d.IsDir() && d.Name() == "snapshot" {
			found = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// TestFedCrashRecoveryEveryRecord is the federated crash suite: run a
// scripted request stream against a journaled federation, snapshot the
// whole data directory after EVERY op (kill -9 at every record
// boundary), and require that recovery from each cut plus a replay of
// the remaining requests lands in bit-identical state — merged status,
// merged decision trace, and every shard's snapshot bytes — for 1, 4
// and 8 shards. No checkpoint cadence here, so every cut recovers by
// pure journal replay and the trace ring is fully re-derived.
func TestFedCrashRecoveryEveryRecord(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			jobs := fedJobs(t, 24)
			ops := scriptFedOps(t, shards, jobs, true)
			base := t.TempDir()
			live := filepath.Join(base, "live")
			cfg := durCfg(shards)
			f, err := Open(cfg, durDC(live))
			if err != nil {
				t.Fatal(err)
			}
			cut := func(k int) string { return filepath.Join(base, fmt.Sprintf("cut-%04d", k)) }
			for k := range ops {
				if err := applyFedOp(f, &ops[k]); err != nil {
					t.Fatalf("op %d (%v): %v", k, ops[k].Op, err)
				}
				copyTree(t, live, cut(k))
			}
			want := fedFingerprint(t, f, true)
			wantQuiet := fedFingerprint(t, f, false)
			if err := f.Drain(); err != nil {
				t.Fatal(err)
			}
			// Graceful restart recovers from the shutdown checkpoints; the
			// trace ring predates a snapshot and is not serialized, so the
			// quiet fingerprint governs this comparison.
			g, err := Open(cfg, durDC(live))
			if err != nil {
				t.Fatal(err)
			}
			if got := fedFingerprint(t, g, false); got != wantQuiet {
				t.Fatalf("graceful restart diverges:\n got %s\nwant %s", got, wantQuiet)
			}
			if err := g.Drain(); err != nil {
				t.Fatal(err)
			}
			stride := 1
			if testing.Short() {
				stride = 5
			}
			for k := 0; k < len(ops); k += stride {
				r, err := Open(cfg, durDC(cut(k)))
				if err != nil {
					t.Fatalf("cut %d: reopen: %v", k, err)
				}
				for j := k + 1; j < len(ops); j++ {
					if err := applyFedOp(r, &ops[j]); err != nil {
						t.Fatalf("cut %d: replay op %d (%v): %v", k, j, ops[j].Op, err)
					}
				}
				if got := fedFingerprint(t, r, true); got != want {
					t.Fatalf("cut %d: recovered state diverges from the uninterrupted run:\n got %s\nwant %s", k, got, want)
				}
				if err := r.Drain(); err != nil {
					t.Fatalf("cut %d: drain: %v", k, err)
				}
			}
		})
	}
}

// opsSpan is the largest timestamp the scripted stream reaches, used to
// size the checkpoint cadence relative to the workload's own timescale.
func opsSpan(ops []durable.Record) float64 {
	var max float64
	for i := range ops {
		if ops[i].Now > max {
			max = ops[i].Now
		}
	}
	return max
}

// TestFedCrashRecoveryCheckpointRotation reruns the crash sweep with an
// aggressive checkpoint cadence so cuts land before, between and after
// snapshot rotations. Recovery restores from the newest snapshot plus a
// bounded replay; the pre-snapshot trace is gone by design, so the
// comparison is merged status + per-shard snapshot bytes.
func TestFedCrashRecoveryCheckpointRotation(t *testing.T) {
	const shards = 4
	jobs := fedJobs(t, 24)
	ops := scriptFedOps(t, shards, jobs, true)
	base := t.TempDir()
	live := filepath.Join(base, "live")
	cfg := durCfg(shards)
	dc := durDC(live)
	dc.CkptEvery = opsSpan(ops) / 8
	if dc.CkptEvery <= 0 {
		t.Fatal("scripted stream has no time span to checkpoint over")
	}
	f, err := Open(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(k int) string { return filepath.Join(base, fmt.Sprintf("cut-%04d", k)) }
	for k := range ops {
		if err := applyFedOp(f, &ops[k]); err != nil {
			t.Fatalf("op %d (%v): %v", k, ops[k].Op, err)
		}
		copyTree(t, live, cut(k))
	}
	if !treeHasSnapshot(t, live) {
		t.Fatal("checkpoint cadence never fired; the rotation sweep tested nothing")
	}
	want := fedFingerprint(t, f, false)
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 5
	}
	sawSnapshotRecovery := false
	for k := 0; k < len(ops); k += stride {
		dcr := durDC(cut(k))
		dcr.CkptEvery = dc.CkptEvery
		r, err := Open(cfg, dcr)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", k, err)
		}
		for _, h := range r.Health() {
			if h.FromSnapshot {
				sawSnapshotRecovery = true
			}
		}
		for j := k + 1; j < len(ops); j++ {
			if err := applyFedOp(r, &ops[j]); err != nil {
				t.Fatalf("cut %d: replay op %d (%v): %v", k, j, ops[j].Op, err)
			}
		}
		if got := fedFingerprint(t, r, false); got != want {
			t.Fatalf("cut %d: recovered state diverges from the uninterrupted run:\n got %s\nwant %s", k, got, want)
		}
		if err := r.Drain(); err != nil {
			t.Fatalf("cut %d: drain: %v", k, err)
		}
	}
	if !sawSnapshotRecovery {
		t.Fatal("no cut recovered from a snapshot; the rotation sweep tested nothing")
	}
}

// TestFedRefusesLegacyLayout pins the refusal of a data directory
// written before shards had directories of their own: journal files at
// the top level — alone, or next to shard directories — fail Open with
// an error naming the directory, and nothing is moved or created.
func TestFedRefusesLegacyLayout(t *testing.T) {
	jobs := fedJobs(t, 12)
	flat := t.TempDir()
	store, rec, err := durable.Open(flat, durable.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh directory recovered state: %+v", rec)
	}
	init := durable.InitState{Cores: testCores, Backfill: int(sim.BackfillEASY), UseEstimates: true, PolicyName: "F1"}
	if err := store.Append(&durable.Record{Op: durable.OpInit, Init: &init}); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := store.Append(&durable.Record{Op: durable.OpSubmit, Now: j.Submit, Job: j}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(flat, "snapshot.tmp"), []byte("interrupted"), 0o644); err != nil {
		t.Fatal(err)
	}

	mixed := t.TempDir()
	if err := os.MkdirAll(filepath.Join(mixed, shardDirName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mixed, "wal-0000000000000001.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	snapOnly := t.TempDir()
	if err := os.WriteFile(filepath.Join(snapOnly, "snapshot"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	for name, dir := range map[string]string{"flat": flat, "mixed": mixed, "snapshot": snapOnly} {
		before := listTree(t, dir)
		f, err := Open(durCfg(4), durDC(dir))
		if err == nil {
			_ = f.Drain()
			t.Fatalf("%s: a pre-federation layout was opened", name)
		}
		if !strings.Contains(err.Error(), dir) {
			t.Errorf("%s: error does not name the data directory: %v", name, err)
		}
		if after := listTree(t, dir); after != before {
			t.Errorf("%s: refusal changed the directory:\n%s\nbecame\n%s", name, before, after)
		}
	}
}

// listTree renders every path under dir with its size, sorted.
func listTree(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %v %d\n", strings.TrimPrefix(path, dir), d.IsDir(), info.Size())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// errClass canonicalizes an error for cross-run comparison without
// embedding filesystem paths (temp dirs differ between runs).
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	var broken *ShardBrokenError
	var down *ShardDownError
	var fault *faultfs.Fault
	switch {
	case errors.As(err, &broken):
		s := fmt.Sprintf("broken:%d", broken.Shard)
		if errors.As(err, &fault) {
			s += fmt.Sprintf(":%s@%d", fault.Op, fault.N)
		}
		return s
	case errors.As(err, &down):
		return fmt.Sprintf("down:%d", down.Shard)
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.As(err, &fault):
		return fmt.Sprintf("fault:%s@%d", fault.Op, fault.N)
	default:
		return "err:" + err.Error()
	}
}

// TestFedQuarantineDeterminism is the degraded-mode acceptance test: a
// fixed fault schedule on one shard's filesystem produces the same
// latch point, the same per-op error sequence and the same final merged
// state at any recovery worker count; the quarantined shard never
// serves another mutation after its latch; and the healthy shards end
// bit-identical to a federation that never received the victim's
// traffic from the latch on.
func TestFedQuarantineDeterminism(t *testing.T) {
	const shards, victim = 4, 2
	jobs := fedJobs(t, 120)
	ops := scriptFedOps(t, shards, jobs, false)
	plan := faultfs.Schedule{FailSyncAt: 12}

	type runOut struct {
		seq    []string
		frozen online.Status // victim's status the moment it latched
		latch  int           // op index that tripped the latch
		fp     string
		f      *Federation
	}
	run := func(workers int) runOut {
		cfg := durCfg(shards)
		cfg.Workers = workers
		dc := durDC(t.TempDir())
		dc.FS = func(shard int) durable.FS {
			if shard == victim {
				return faultfs.New(nil, plan)
			}
			return nil
		}
		f, err := Open(cfg, dc)
		if err != nil {
			t.Fatal(err)
		}
		out := runOut{latch: -1, f: f}
		for k := range ops {
			err := applyFedOp(f, &ops[k])
			out.seq = append(out.seq, errClass(err))
			var broken *ShardBrokenError
			if errors.As(err, &broken) {
				if out.latch >= 0 {
					t.Fatalf("latched twice: ops %d and %d", out.latch, k)
				}
				out.latch = k
				out.frozen = f.Status().PerShard[victim]
			}
		}
		out.fp = fedFingerprint(t, f, true)
		return out
	}
	a, b := run(1), run(8)
	if a.latch < 0 {
		t.Fatalf("fault schedule never fired; stream too short for FailSyncAt=%d", plan.FailSyncAt)
	}
	if !reflect.DeepEqual(a.seq, b.seq) {
		t.Fatalf("error sequences diverge across worker counts:\n 1: %v\n 8: %v", a.seq, b.seq)
	}
	if a.fp != b.fp {
		t.Fatalf("final state diverges across worker counts:\n 1: %s\n 8: %s", a.fp, b.fp)
	}

	h := a.f.Health()
	if !h[victim].Quarantined || h[victim].StoreErr == "" {
		t.Fatalf("victim not quarantined after its latch: %+v", h[victim])
	}
	for i, hh := range h {
		if i != victim && (hh.Quarantined || hh.StoreErr != "") {
			t.Fatalf("healthy shard %d caught the quarantine: %+v", i, hh)
		}
	}
	if got := a.f.Status().PerShard[victim]; !reflect.DeepEqual(got, a.frozen) {
		t.Fatalf("quarantined shard served mutations after its latch:\n at latch %+v\n at end   %+v", a.frozen, got)
	}
	for i, cls := range a.seq[a.latch+1:] {
		if strings.HasPrefix(cls, "broken:") {
			t.Fatalf("second fatal latch at op %d: %s", a.latch+1+i, cls)
		}
	}

	// Healthy-substream equivalence: quarantine the victim of a no-fault
	// federation at the same op index (dropping the latch-tripping
	// request, which only the victim saw) and replay; the healthy shards
	// must end bit-identical, status and snapshot bytes both.
	c, err := Open(durCfg(shards), durDC(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	for k := range ops {
		if k == a.latch {
			c.mu.Lock()
			c.router.Quarantine(victim)
			c.mu.Unlock()
			sh := c.shards[victim]
			sh.mu.Lock()
			sh.storeErr = errors.New("test: manual quarantine")
			sh.mu.Unlock()
			continue
		}
		_ = applyFedOp(c, &ops[k]) // victim-bound requests fail in both runs; ignore
	}
	for i := 0; i < shards; i++ {
		if i == victim {
			continue
		}
		if got, want := a.f.Status().PerShard[i], c.Status().PerShard[i]; !reflect.DeepEqual(got, want) {
			t.Fatalf("healthy shard %d diverges from the victimless federation:\n got %+v\nwant %+v", i, got, want)
		}
		gsnap, err := a.f.ShardSnapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		wsnap, err := c.ShardSnapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(durable.EncodeSnapshot(gsnap), durable.EncodeSnapshot(wsnap)) {
			t.Fatalf("healthy shard %d snapshot bytes diverge from the victimless federation", i)
		}
	}
}

// bootClass canonicalizes an Open failure: the injected fault if one is
// in the chain, otherwise just the fact of failure (real I/O error
// strings embed temp paths and cannot be compared across runs).
func bootClass(err error) string {
	var fault *faultfs.Fault
	if errors.As(err, &fault) {
		return fmt.Sprintf("open:fault:%s@%d", fault.Op, fault.N)
	}
	return "open:error"
}

// TestFedFaultPlanSweep is the chaos sweep: every shard draws a fault
// schedule from faultfs.Plan(seed, shard, span) — the same dist.Split
// stream discipline as the rest of the system — and the entire
// observable outcome (boot success or the exact injected boot fault,
// the per-op error-class sequence, the drain outcome, the final state)
// must be identical at 1 and 8 workers, for every seed. Faults may land
// anywhere: boot, append, sync, checkpoint rename, segment GC.
func TestFedFaultPlanSweep(t *testing.T) {
	const shards = 4
	jobs := fedJobs(t, 60)
	ops := scriptFedOps(t, shards, jobs, false)
	ckptEvery := opsSpan(ops) / 4
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			run := func(workers int) []string {
				cfg := durCfg(shards)
				cfg.Workers = workers
				dc := durDC(t.TempDir())
				dc.CkptEvery = ckptEvery
				dc.FS = func(shard int) durable.FS {
					return faultfs.New(nil, faultfs.Plan(seed, uint64(shard), 60))
				}
				f, err := Open(cfg, dc)
				if err != nil {
					return []string{bootClass(err)}
				}
				seq := make([]string, 0, len(ops)+2)
				for k := range ops {
					seq = append(seq, errClass(applyFedOp(f, &ops[k])))
				}
				seq = append(seq, "drain:"+errClass(f.Drain()))
				seq = append(seq, fedFingerprint(t, f, true))
				return seq
			}
			one, eight := run(1), run(8)
			if !reflect.DeepEqual(one, eight) {
				t.Fatalf("chaos outcome diverges across worker counts:\n 1 workers: %v\n 8 workers: %v", one, eight)
			}
		})
	}
}

// TestFedDrainRefusesMutations pins the drain contract: after Drain
// every mutation fails ErrDraining (retryable — the daemon is going
// down for a restart), Drain is idempotent and re-reports the first
// outcome, and the drained directory reopens cleanly.
func TestFedDrainRefusesMutations(t *testing.T) {
	jobs := fedJobs(t, 8)
	dir := t.TempDir()
	f, err := Open(durCfg(2), durDC(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, _, _, err := f.Submit(j.Submit, j, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := fedFingerprint(t, f, false)
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := f.Submit(f.Clock()+1, workload.Job{ID: 9999, Runtime: 5, Estimate: 5, Cores: 1}, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v", err)
	}
	if _, _, err := f.Complete(f.Clock()+1, jobs[0].ID, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("complete after drain: %v", err)
	}
	if _, _, err := f.AdvanceTo(f.Clock()+1, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("advance after drain: %v", err)
	}
	if err := f.SetPolicy(sched.FCFS(), "FCFS", ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("policy after drain: %v", err)
	}
	if !Retryable(ErrDraining) {
		t.Fatal("ErrDraining must be retryable")
	}
	if err := f.Drain(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	g, err := Open(durCfg(2), durDC(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := fedFingerprint(t, g, false); got != want {
		t.Fatalf("reopen after drain diverges:\n got %s\nwant %s", got, want)
	}
	if err := g.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryable pins the client-side retry surface: which errors are
// worth resending.
func TestRetryable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&ShardDownError{Shard: 1}, true},
		{ErrDraining, true},
		{fmt.Errorf("wrapped: %w", &ShardDownError{Shard: 3}), true},
		{&WireError{Code: 503, Retryable: true, Msg: "quarantined"}, true},
		{&WireError{Code: 400, Msg: "bad"}, false},
		{&ShardBrokenError{Shard: 0, Err: errors.New("disk")}, false},
		{errors.New("arbitrary"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
