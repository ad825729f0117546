// Commit-point tests: a Batch syncs each shard it touched once, honours
// SyncEvery across batches, and a sync failure at the commit latches
// only its own shard. The power-cut tests take faultfs crash images —
// every byte written after a file's last sync dropped — and require
// that every record of an acknowledged frame comes back from them.

package fed

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/faultfs"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/workload"
)

// AdvanceTo is a one-call Batch.AdvanceTo, committed before it returns:
// the in-process form the crash and fault suites script.
func (f *Federation) AdvanceTo(now float64, buf []online.Start) (starts []online.Start, clock float64, err error) {
	b := f.Batch()
	starts, clock, err = b.AdvanceTo(now, buf)
	return starts, clock, b.Commit(err)
}

// SetPolicy is a one-call Batch.SetPolicy, committed before it returns.
func (f *Federation) SetPolicy(p sched.Policy, name, expr string) error {
	b := f.Batch()
	return b.Commit(b.SetPolicy(p, name, expr))
}

// countedFed opens a durable federation whose shards each run on their
// own fault-free faultfs, so per-shard sync counts are observable.
func countedFed(t *testing.T, shards, syncEvery int, sched func(shard int) faultfs.Schedule) (*Federation, []*faultfs.FS) {
	t.Helper()
	fss := make([]*faultfs.FS, shards)
	for i := range fss {
		var s faultfs.Schedule
		if sched != nil {
			s = sched(i)
		}
		fss[i] = faultfs.New(nil, s)
	}
	dc := durDC(t.TempDir())
	dc.SyncEvery = syncEvery
	dc.FS = func(i int) durable.FS { return fss[i] }
	f, err := Open(durCfg(shards), dc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Drain() })
	return f, fss
}

func syncCounts(fss []*faultfs.FS) []int {
	out := make([]int, len(fss))
	for i, fs := range fss {
		out[i], _, _, _ = fs.Counts()
	}
	return out
}

func seqs(f *Federation) []uint64 {
	var out []uint64
	for _, h := range f.Health() {
		out = append(out, h.Seq)
	}
	return out
}

// submitFrame applies n submits through one batch and commits it.
func submitFrame(f *Federation, b *Batch, firstID, n int, now float64) error {
	var err error
	for id := firstID; id < firstID+n && err == nil; id++ {
		_, _, _, err = b.Submit(now, workload.Job{ID: id, Submit: now, Runtime: 100, Estimate: 100, Cores: 1}, nil)
	}
	return b.Commit(err)
}

func TestBatchSyncsEachTouchedShardOnce(t *testing.T) {
	// 70 shards puts pending shards past the first word of the set.
	for _, shards := range []int{1, 4, 8, 70} {
		f, fss := countedFed(t, shards, 1, nil)
		b := f.Batch()
		id := 1
		for frame, n := range []int{1, 3, 32, 5, 17, 140} {
			s0, q0 := syncCounts(fss), seqs(f)
			if err := submitFrame(f, &b, id, n, float64(frame)); err != nil {
				t.Fatal(err)
			}
			id += n
			s1, q1 := syncCounts(fss), seqs(f)
			for i := range fss {
				want := 0
				if q1[i] > q0[i] {
					want = 1
				}
				if got := s1[i] - s0[i]; got != want {
					t.Fatalf("%d shards, frame %d: shard %d synced %d times for %d records, want %d",
						shards, frame, i, got, q1[i]-q0[i], want)
				}
			}
		}
	}
}

func TestBatchHonoursSyncEveryAcrossFrames(t *testing.T) {
	f, fss := countedFed(t, 1, 4, nil)
	b := f.Batch()
	s0 := syncCounts(fss)[0]
	if err := submitFrame(f, &b, 1, 3, 0); err != nil {
		t.Fatal(err)
	}
	if got := syncCounts(fss)[0] - s0; got != 0 {
		t.Fatalf("-fsync 4, 3 records: %d syncs, want 0", got)
	}
	if err := submitFrame(f, &b, 4, 3, 1); err != nil {
		t.Fatal(err)
	}
	if got := syncCounts(fss)[0] - s0; got != 1 {
		t.Fatalf("-fsync 4, 6 records over two frames: %d syncs, want 1", got)
	}
}

func TestBatchCommitSyncFailureLatchesOneShard(t *testing.T) {
	const shards = 4
	// Boot syncs are the same for every fresh shard; learn them first.
	_, probe := countedFed(t, shards, 1, nil)
	boot := syncCounts(probe)[0]
	const bad = 2
	f, _ := countedFed(t, shards, 1, func(i int) faultfs.Schedule {
		if i == bad {
			return faultfs.Schedule{FailSyncAt: boot + 1}
		}
		return faultfs.Schedule{}
	})
	b := f.Batch()
	q0 := seqs(f)
	err := submitFrame(f, &b, 1, 32, 0)
	var broken *ShardBrokenError
	if !errors.As(err, &broken) || broken.Shard != bad || Retryable(err) {
		t.Fatalf("frame over a failing commit sync: %v, want fatal ShardBrokenError on shard %d", err, bad)
	}
	if seqs(f)[bad] == q0[bad] {
		t.Fatal("the frame never reached the failing shard; retune the frame")
	}
	for i, h := range f.Health() {
		if h.Quarantined != (i == bad) {
			t.Fatalf("shard %d quarantined=%v after shard %d's commit failed", i, h.Quarantined, bad)
		}
	}
	// A later frame touching only healthy shards succeeds: an advance
	// skips the latched shard.
	_, _, err = b.AdvanceTo(1, nil)
	if err := b.Commit(err); err != nil {
		t.Fatalf("frame on healthy shards after the latch: %v", err)
	}
}

// applyBatchOp applies one scheduling record into b, as a binary frame
// applies each of its records.
func applyBatchOp(b *Batch, rec *durable.Record) error {
	var err error
	switch rec.Op {
	case durable.OpSubmit:
		_, _, _, err = b.Submit(rec.Now, rec.Job, nil)
	case durable.OpComplete:
		_, _, err = b.Complete(rec.Now, rec.ID, nil)
	case durable.OpAdvance:
		_, _, err = b.AdvanceTo(rec.Now, nil)
	default:
		err = fmt.Errorf("not a frame op: %v", rec.Op)
	}
	return err
}

// reopenSeqs recovers a federation from dir and returns it with each
// shard's next journal sequence.
func reopenSeqs(t *testing.T, cfg Config, dc DurableConfig, dir string) (*Federation, []uint64) {
	t.Helper()
	dc.Dir, dc.FS = dir, nil
	g, err := Open(cfg, dc)
	if err != nil {
		t.Fatalf("reopen %s: %v", filepath.Base(dir), err)
	}
	return g, seqs(g)
}

// TestPowerCutKeepsAcknowledgedFrames streams a seeded partition of the
// scripted requests as binary frames (through the wire codec) at -fsync
// 1, one Batch per frame, and takes a power-cut image after every
// acknowledged frame and once mid-frame. An image taken after frame k
// must recover exactly the journal the live federation had when frame k
// was acknowledged, and replaying the rest of the stream on it must land
// in the uninterrupted run's state; a mid-frame image must keep at least
// every acknowledged record.
func TestPowerCutKeepsAcknowledgedFrames(t *testing.T) {
	cases := []struct {
		shards int
		ckpt   bool
	}{{1, false}, {4, false}, {8, false}, {4, true}}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("shards=%d/ckpt=%v", tc.shards, tc.ckpt), func(t *testing.T) {
			ops := scriptFedOps(t, tc.shards, fedJobs(t, 64), false)
			base := t.TempDir()
			live := filepath.Join(base, "live")
			cfg := durCfg(tc.shards)
			ffs := faultfs.New(nil, faultfs.Schedule{})
			dc := durDC(live)
			if tc.ckpt {
				dc.CkptEvery = opsSpan(ops) / 8
			}
			dc.FS = func(int) durable.FS { return ffs }
			f, err := Open(cfg, dc)
			if err != nil {
				t.Fatal(err)
			}
			type cut struct {
				dir   string
				next  int      // first op not in the image's acknowledged frames
				acked []uint64 // per-shard journal sequence at the last ack
				mid   bool     // taken with a frame in flight
			}
			var cuts []cut
			image := func(next int, acked []uint64, mid bool) {
				t.Helper()
				dir := filepath.Join(base, fmt.Sprintf("cut-%04d", len(cuts)))
				if err := ffs.CrashImage(live, dir); err != nil {
					t.Fatal(err)
				}
				cuts = append(cuts, cut{dir, next, acked, mid})
			}
			rng := dist.New(dist.Split(52, uint64(tc.shards)))
			b := f.Batch()
			acked := seqs(f)
			var recs []durable.Record
			for lo := 0; lo < len(ops); {
				hi := min(len(ops), lo+1+rng.IntN(32))
				msg, err := AppendBatchMsg(nil, ops[lo:hi])
				if err == nil {
					recs, err = DecodeMsg(msg, recs[:0])
				}
				if err != nil {
					t.Fatal(err)
				}
				for k := range recs {
					if k > 0 && k == len(recs)/2 {
						image(lo, acked, true)
					}
					if err := applyBatchOp(&b, &recs[k]); err != nil {
						t.Fatalf("op %d (%v): %v", lo+k, recs[k].Op, err)
					}
				}
				if err := b.Commit(nil); err != nil {
					t.Fatalf("frame [%d,%d): %v", lo, hi, err)
				}
				acked = seqs(f)
				image(hi, acked, false)
				lo = hi
			}
			if tc.ckpt && !treeHasSnapshot(t, live) {
				t.Fatal("checkpoint cadence never fired; the rotation case tested nothing")
			}
			// A snapshot does not carry the trace ring, so with checkpoints
			// only the quiet fingerprint is a pure function of the requests.
			want := fedFingerprint(t, f, !tc.ckpt)
			stride := 1
			if testing.Short() {
				stride = 3
			}
			for n := 0; n < len(cuts); n += stride {
				c := cuts[n]
				g, got := reopenSeqs(t, cfg, dc, c.dir)
				for i := range got {
					if got[i] < c.acked[i] || (!c.mid && got[i] != c.acked[i]) {
						t.Fatalf("cut %d (mid=%v): shard %d recovered journal seq %d, acknowledged %d",
							n, c.mid, i, got[i], c.acked[i])
					}
				}
				if !c.mid {
					for j := c.next; j < len(ops); j++ {
						if err := applyFedOp(g, &ops[j]); err != nil {
							t.Fatalf("cut %d: replay op %d (%v): %v", n, j, ops[j].Op, err)
						}
					}
					if got := fedFingerprint(t, g, !tc.ckpt); got != want {
						t.Fatalf("cut %d: recovered state diverges from the uninterrupted run:\n got %s\nwant %s", n, got, want)
					}
				}
				if err := g.Drain(); err != nil {
					t.Fatalf("cut %d: drain: %v", n, err)
				}
			}
		})
	}
}

// TestInterleavedBatchesShareUnsyncedCount: two request streams append
// to the same shard between each other's commits. Whichever commits
// first syncs both streams' records, the other finds nothing to sync,
// and a power cut after both acknowledgements keeps every record — at
// -fsync 1 and at -fsync 4 alike.
func TestInterleavedBatchesShareUnsyncedCount(t *testing.T) {
	for _, syncEvery := range []int{1, 4} {
		f, fss := countedFed(t, 1, syncEvery, nil)
		a, b := f.Batch(), f.Batch()
		buffer := func(b *Batch, id int) {
			t.Helper()
			if _, _, _, err := b.Submit(0, workload.Job{ID: id, Runtime: 100, Estimate: 100, Cores: 1}, nil); err != nil {
				t.Fatal(err)
			}
		}
		buffer(&a, 1)
		buffer(&a, 2)
		buffer(&b, 3)
		buffer(&b, 4)
		s0 := syncCounts(fss)[0]
		if err := b.Commit(nil); err != nil {
			t.Fatal(err)
		}
		if got := syncCounts(fss)[0] - s0; got != 1 {
			t.Fatalf("-fsync %d: the first commit over 4 unsynced records synced %d times, want 1", syncEvery, got)
		}
		if err := a.Commit(nil); err != nil {
			t.Fatal(err)
		}
		if got := syncCounts(fss)[0] - s0; got != 1 {
			t.Fatalf("-fsync %d: the second commit synced again (%d syncs), want nothing left to sync", syncEvery, got)
		}
		img := filepath.Join(t.TempDir(), "img")
		if err := fss[0].CrashImage(f.dur.Dir, img); err != nil {
			t.Fatal(err)
		}
		g, got := reopenSeqs(t, durCfg(1), *f.dur, img)
		if want := seqs(f); got[0] != want[0] {
			t.Fatalf("-fsync %d: power cut after both acks recovered seq %d, want %d", syncEvery, got[0], want[0])
		}
		_ = g.Drain()
	}
}

// TestCheckpointSyncFailureMidFrame: at -fsync 1 a frame's records only
// buffer until the commit, so a checkpoint that fires mid-frame is the
// first sync of the frame's records on that shard. When that sync
// fails they are not durable: the frame must end in a fatal
// ShardBrokenError for that shard, not in an OK, only that shard
// latches, and the healthy shards' records of the frame are committed.
func TestCheckpointSyncFailureMidFrame(t *testing.T) {
	const shards, frame = 4, 32
	ops := scriptFedOps(t, shards, fedJobs(t, 64), false)
	ckpt := opsSpan(ops) / 4
	open := func(failShard, failAt int) (*Federation, []*faultfs.FS) {
		t.Helper()
		fss := make([]*faultfs.FS, shards)
		for i := range fss {
			var s faultfs.Schedule
			if i == failShard {
				s.FailSyncAt = failAt
			}
			fss[i] = faultfs.New(nil, s)
		}
		dc := durDC(t.TempDir())
		dc.CkptEvery = ckpt
		dc.FS = func(i int) durable.FS { return fss[i] }
		f, err := Open(durCfg(shards), dc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = f.Drain() })
		return f, fss
	}
	// stream applies the ops in frames and stops at the first frame whose
	// commit fails, or — with probe — at the first frame in which some
	// shard synced before the commit. before holds each shard's sync count
	// coming into the frame it stopped at.
	stream := func(f *Federation, fss []*faultfs.FS, probe bool) (lo int, before []int, err error) {
		t.Helper()
		b := f.Batch()
		for lo = 0; lo < len(ops); lo += frame {
			before = syncCounts(fss)
			for k := lo; k < min(len(ops), lo+frame) && err == nil; k++ {
				err = applyBatchOp(&b, &ops[k])
			}
			mid := syncCounts(fss)
			if err = b.Commit(err); err != nil {
				return lo, before, err
			}
			for i := range mid {
				if probe && mid[i] > before[i] {
					return lo, before, nil
				}
			}
		}
		return lo, before, nil
	}
	pf, pfss := open(-1, 0)
	lo, before, err := stream(pf, pfss, true)
	if err != nil {
		t.Fatal(err)
	}
	bad, mid := -1, syncCounts(pfss)
	for i := range mid {
		if bad < 0 && lo < len(ops) && mid[i] > before[i] {
			bad = i
		}
	}
	if bad < 0 {
		t.Fatal("no checkpoint fired inside a frame; retune the cadence")
	}
	// The checkpoint's first act is the journal sync the faulted run fails.
	f, fss := open(bad, before[bad]+1)
	flo, _, err := stream(f, fss, false)
	var broken *ShardBrokenError
	if !errors.As(err, &broken) || broken.Shard != bad || Retryable(err) || flo != lo {
		t.Fatalf("frame at op %d over a failing checkpoint sync: %v at op %d, want fatal ShardBrokenError on shard %d", lo, err, flo, bad)
	}
	for i, h := range f.Health() {
		if h.Quarantined != (i == bad) {
			t.Fatalf("shard %d quarantined=%v after shard %d's checkpoint sync failed", i, h.Quarantined, bad)
		}
	}
	img := filepath.Join(t.TempDir(), "img")
	for i, fs := range fss {
		name := shardDirName(i)
		if err := fs.CrashImage(filepath.Join(f.dur.Dir, name), filepath.Join(img, name)); err != nil {
			t.Fatal(err)
		}
	}
	g, got := reopenSeqs(t, durCfg(shards), *f.dur, img)
	defer g.Drain()
	for i, want := range seqs(f) {
		if i != bad && got[i] != want {
			t.Fatalf("healthy shard %d: a power cut after the failed frame kept journal seq %d, want %d", i, got[i], want)
		}
	}
}
