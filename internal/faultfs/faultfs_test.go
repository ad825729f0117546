package faultfs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/workload"
)

func testRecords(n int) []durable.Record {
	recs := make([]durable.Record, 0, n)
	recs = append(recs, durable.Record{Op: durable.OpInit, Init: &durable.InitState{
		Cores: 64, Backfill: 1, Tau: 10, PolicyName: "f1",
	}})
	for i := 1; i < n; i++ {
		recs = append(recs, durable.Record{Op: durable.OpSubmit, Now: float64(i), Job: workload.Job{
			ID: i, Submit: float64(i), Runtime: 30, Estimate: 60, Cores: 4,
		}})
	}
	return recs
}

func TestPlanDeterministic(t *testing.T) {
	for stream := uint64(0); stream < 32; stream++ {
		a := Plan(42, stream, 10)
		b := Plan(42, stream, 10)
		if a != b {
			t.Fatalf("stream %d: Plan not deterministic: %+v vs %+v", stream, a, b)
		}
		if a.Zero() {
			t.Fatalf("stream %d: Plan produced an empty schedule", stream)
		}
	}
	// Distinct streams must not all collapse onto one schedule.
	distinct := map[Schedule]bool{}
	for stream := uint64(0); stream < 32; stream++ {
		distinct[Plan(42, stream, 10)] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("32 streams produced only %d distinct schedules", len(distinct))
	}
}

func TestFailSyncLatchesStore(t *testing.T) {
	dir := t.TempDir()
	// The fresh-directory Open costs two syncs (segment file + dir); the
	// third is the first record's fsync.
	ffs := New(nil, Schedule{FailSyncAt: 3})
	s, _, err := durable.Open(dir, durable.Options{SyncEvery: 1, FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	recs := testRecords(3)
	err = s.Append(&recs[0])
	var f *Fault
	if !errors.As(err, &f) || f.Op != OpSync {
		t.Fatalf("Append = %v, want injected sync fault", err)
	}
	if err := s.Append(&recs[1]); err == nil || !strings.Contains(err.Error(), "journal is failed") {
		t.Fatalf("append after injected sync failure = %v, want latched refusal", err)
	}
	if err := s.Close(); !errors.As(err, &f) {
		t.Fatalf("Close after latch = %v, want the original fault", err)
	}
}

func TestTornWriteTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	// Write #1 is the segment header; #2 is the batched flush of the
	// appends — tear it so half the frame bytes land.
	ffs := New(nil, Schedule{TornWriteAt: 2})
	s, _, err := durable.Open(dir, durable.Options{SyncEvery: 1 << 20, FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	recs := testRecords(6)
	for i := range recs {
		if err := s.Append(&recs[i]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	err = s.Sync()
	var f *Fault
	if !errors.As(err, &f) || f.Op != OpWrite {
		t.Fatalf("Sync = %v, want injected torn write", err)
	}
	_ = s.Close() // latched; reports the fault

	// Recovery on a clean filesystem truncates the torn tail and keeps
	// the intact prefix.
	s2, rec, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer s2.Close()
	if len(rec.Records) >= len(recs) {
		t.Fatalf("recovered %d records from a torn flush of %d", len(rec.Records), len(recs))
	}
	for i, r := range rec.Records {
		if r.Op != recs[i].Op || r.Now != recs[i].Now {
			t.Fatalf("recovered record %d differs: %+v vs %+v", i, r, recs[i])
		}
	}
	// The store must be appendable past the truncation.
	tail := testRecords(2)
	if err := s2.Append(&tail[1]); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
}

// TestFailedRenameLeavesNoTmp pins the tmp-file leak: a checkpoint whose
// snapshot rename fails must remove the temp file instead of leaving it
// until the next Open sweeps it.
func TestFailedRenameLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	// Rename #1 publishes the first segment at Open; #2 is the snapshot.
	ffs := New(nil, Schedule{FailRenameAt: 2})
	s, _, err := durable.Open(dir, durable.Options{SyncEvery: 1, FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	recs := testRecords(4)
	for i := range recs {
		if err := s.Append(&recs[i]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	err = s.Checkpoint(&durable.Snapshot{Init: durable.InitState{Cores: 64}})
	var f *Fault
	if !errors.As(err, &f) || f.Op != OpRename {
		t.Fatalf("Checkpoint = %v, want injected rename fault", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("failed rename leaked %s", filepath.Join(dir, e.Name()))
		}
	}
	// The journal survives the failed checkpoint: a clean reopen still
	// recovers every record.
	_ = s.Close()
	_, rec, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("reopen after failed checkpoint: %v", err)
	}
	if len(rec.Records) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(recs))
	}
}

// countingFS counts Close calls on every handle, to pin the
// Close-after-failure double-close.
type countingFS struct {
	durable.FS
	mu     sync.Mutex
	closes int
}

func (c *countingFS) OpenFile(path string, flag int, perm fs.FileMode) (durable.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, c: c}, nil
}

type countingFile struct {
	durable.File
	c      *countingFS
	closed bool
}

func (f *countingFile) Close() error {
	f.c.mu.Lock()
	f.c.closes++
	double := f.closed
	f.closed = true
	f.c.mu.Unlock()
	if double {
		return errors.New("double close of file handle")
	}
	return f.File.Close()
}

// TestCloseAfterFailureClosesOnce pins the double-close: a latched store
// closed twice must close the underlying segment handle exactly once and
// keep reporting the original cause.
func TestCloseAfterFailureClosesOnce(t *testing.T) {
	dir := t.TempDir()
	counter := &countingFS{FS: durable.OS()}
	ffs := New(counter, Schedule{FailSyncAt: 3})
	s, _, err := durable.Open(dir, durable.Options{SyncEvery: 1, FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	recs := testRecords(2)
	if err := s.Append(&recs[0]); err == nil {
		t.Fatalf("append did not hit the injected sync fault")
	}
	before := counter.closes
	var f *Fault
	if err := s.Close(); !errors.As(err, &f) {
		t.Fatalf("first Close = %v, want the latched fault", err)
	}
	if err := s.Close(); !errors.As(err, &f) {
		t.Fatalf("second Close = %v, want the latched fault", err)
	}
	if got := counter.closes - before; got != 1 {
		t.Fatalf("Close after failure closed the handle %d times, want 1", got)
	}
}

// TestCheckpointRotationFailureClosesOnce covers the rotation window: if
// the new segment cannot be published, the old handle is already closed
// and Close must not touch it again.
func TestCheckpointRotationFailureClosesOnce(t *testing.T) {
	dir := t.TempDir()
	counter := &countingFS{FS: durable.OS()}
	// Rename #1: first segment at Open. #2: the snapshot. #3: the rotated
	// segment — fail there, after the old segment handle was closed.
	ffs := New(counter, Schedule{FailRenameAt: 3})
	s, _, err := durable.Open(dir, durable.Options{SyncEvery: 1, FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	recs := testRecords(4)
	for i := range recs {
		if err := s.Append(&recs[i]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	err = s.Checkpoint(&durable.Snapshot{Init: durable.InitState{Cores: 64}})
	var f *Fault
	if !errors.As(err, &f) || f.Op != OpRename {
		t.Fatalf("Checkpoint = %v, want injected rename fault", err)
	}
	before := counter.closes
	if err := s.Close(); err == nil {
		t.Fatalf("Close after rotation failure = nil, want the latched fault")
	}
	if got := counter.closes - before; got != 0 {
		t.Fatalf("Close re-closed a handle already closed during rotation (%d extra closes)", got)
	}
	// Recovery still works: the snapshot was published before the
	// rotation failed, so a clean reopen finds a consistent directory.
	_, rec, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("reopen after rotation failure: %v", err)
	}
	if rec.Snapshot == nil {
		t.Fatalf("snapshot missing after failed rotation")
	}
}

func TestRemoveAndCountsDeterminism(t *testing.T) {
	// The same schedule over the same workload takes the same path: run
	// twice, compare counters.
	run := func() (int, int, int, int) {
		dir := t.TempDir()
		ffs := New(nil, Schedule{FailRemoveAt: 1})
		s, _, err := durable.Open(dir, durable.Options{SyncEvery: 1, FS: ffs})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		recs := testRecords(4)
		for i := range recs {
			if err := s.Append(&recs[i]); err != nil {
				t.Fatalf("Append(%d): %v", i, err)
			}
		}
		// Checkpoint deletes the superseded segment: the injected remove
		// failure latches the store.
		err = s.Checkpoint(&durable.Snapshot{Init: durable.InitState{Cores: 64}})
		var f *Fault
		if !errors.As(err, &f) || f.Op != OpRemove {
			t.Fatalf("Checkpoint = %v, want injected remove fault", err)
		}
		_ = s.Close()
		return ffs.Counts()
	}
	s1, w1, rn1, rm1 := run()
	s2, w2, rn2, rm2 := run()
	if s1 != s2 || w1 != w2 || rn1 != rn2 || rm1 != rm2 {
		t.Fatalf("two identical runs diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			s1, w1, rn1, rm1, s2, w2, rn2, rm2)
	}
}

func TestCrashImageDropsUnsyncedBytes(t *testing.T) {
	base := t.TempDir()
	live, img := filepath.Join(base, "live"), filepath.Join(base, "img")
	if err := os.MkdirAll(live, 0o755); err != nil {
		t.Fatal(err)
	}
	// A file this FS never opens is durable as it stands.
	if err := os.WriteFile(filepath.Join(live, "old"), []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := New(nil, Schedule{})
	write := func(name string, chunks ...string) {
		t.Helper()
		h, err := ffs.OpenFile(filepath.Join(live, name), os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if c == "|" {
				if err := h.Sync(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if _, err := h.Write([]byte(c)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("a", "abc", "|", "def")      // synced through "abc"
	write("never", "lost")             // never synced
	write("tmp", "snap", "|", "shot")  // synced, then renamed
	write("gone", "x", "|")            // synced, then removed
	write("old", "ignored", "|", "!!") // the pre-existing bytes plus a sync
	if err := ffs.Rename(filepath.Join(live, "tmp"), filepath.Join(live, "snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Remove(filepath.Join(live, "gone")); err != nil {
		t.Fatal(err)
	}
	if err := ffs.CrashImage(live, img); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "abc", "never": "", "snapshot": "snap", "old": "ignored"}
	entries, err := os.ReadDir(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("image holds %d files, want %d", len(entries), len(want))
	}
	for name, w := range want {
		got, err := os.ReadFile(filepath.Join(img, name))
		if err != nil || string(got) != w {
			t.Fatalf("image %s = %q (%v), want %q", name, got, err, w)
		}
	}
}

func TestCrashImageRecoversOnlySyncedRecords(t *testing.T) {
	base := t.TempDir()
	live, img := filepath.Join(base, "live"), filepath.Join(base, "img")
	ffs := New(nil, Schedule{})
	s, _, err := durable.Open(live, durable.Options{SyncEvery: 1 << 20, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := testRecords(8000)
	const synced = 10
	for i := range recs {
		if err := s.Append(&recs[i]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		if i == synced-1 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The unsynced records overran the append buffer, so some of their
	// bytes are in the live file; the image must not keep them.
	if err := ffs.CrashImage(live, img); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := durable.Open(img, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rec.Records) != synced {
		t.Fatalf("image recovered %d records, want the %d synced", len(rec.Records), synced)
	}
	if treeBytes(t, live) <= treeBytes(t, img) {
		t.Fatal("no unsynced bytes reached the live files; the image dropped nothing")
	}
}

func treeBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}
