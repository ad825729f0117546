// Package faultfs is a deterministic filesystem fault injector for the
// durable store's VFS seam (durable.FS). It wraps a real (or fake)
// filesystem and fails operations on a fixed schedule driven by
// operation counters — fail the Nth fsync, tear the Nth write after a
// prefix, error the Nth rename or remove — so every crash-consistency
// and degraded-mode path can be exercised by ordinary tests and
// reproduced exactly, on any machine, at any worker count.
//
// An FS also models a power cut: it remembers each file's length at its
// last Sync, and CrashImage copies a directory tree as a power cut would
// leave it — every byte written after a file's last Sync dropped — so a
// test can check that what a store acknowledged survives on its synced
// bytes alone.
//
// Schedules are either written by hand (a Schedule literal) or derived
// from a seed with Plan, which draws from the same dist.Split RNG stack
// as the rest of the system: Plan(seed, stream, span) is a pure
// function, so a chaos sweep over shards i=0..N-1 using stream=i sees
// the same faults whether the shards run sequentially or on eight
// goroutines. The injected error is a *Fault carrying the operation
// class and count, distinguishable from real I/O errors with errors.As.
//
// faultfs sits inside the determinism boundary (genschedvet's zone
// table): no wall clocks, no goroutines, no global randomness — the
// counters are plain state guarded by a mutex only because the durable
// store's owner may be called from different goroutines over its life.
package faultfs

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/durable"
)

// Op is the class of filesystem operation a fault targets.
type Op string

const (
	OpSync   Op = "sync"
	OpWrite  Op = "write"
	OpRename Op = "rename"
	OpRemove Op = "remove"
)

// Fault is the injected error: which operation class failed and which
// occurrence (1-based) of that class it was.
type Fault struct {
	Op Op
	N  int
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultfs: injected %s failure (occurrence %d)", f.Op, f.N)
}

// Schedule declares which occurrence of each operation class fails.
// Zero means "never". Counts are 1-based and count operations on the
// whole FS (all files opened through it), in call order.
type Schedule struct {
	// FailSyncAt fails the Nth Sync call — file or directory fsync.
	FailSyncAt int
	// TornWriteAt tears the Nth Write call: the first half of the buffer
	// reaches the underlying file, then the write reports a *Fault. This
	// models a crash mid-append: a torn final frame recovery must
	// truncate away.
	TornWriteAt int
	// FailRenameAt fails the Nth Rename call (atomic snapshot/segment
	// publication).
	FailRenameAt int
	// FailRemoveAt fails the Nth Remove call (segment garbage
	// collection).
	FailRemoveAt int
}

// Zero reports whether the schedule injects nothing.
func (s Schedule) Zero() bool {
	return s.FailSyncAt == 0 && s.TornWriteAt == 0 && s.FailRenameAt == 0 && s.FailRemoveAt == 0
}

// Plan derives a fault schedule from a seed, deterministically. stream
// distinguishes independent draws (shard index, trial number) exactly
// like dist.Split streams everywhere else; span bounds the operation
// count at which the fault fires (1..span). One operation class is
// picked per plan — chaos tests want one first-failure per store,
// because the store latches after it anyway.
func Plan(seed, stream uint64, span int) Schedule {
	if span < 1 {
		span = 1
	}
	r := dist.New(dist.Split(seed, stream))
	at := 1 + r.IntN(span)
	switch r.IntN(4) {
	case 0:
		return Schedule{FailSyncAt: at}
	case 1:
		return Schedule{TornWriteAt: at}
	case 2:
		return Schedule{FailRenameAt: at}
	default:
		return Schedule{FailRemoveAt: at}
	}
}

// FS wraps an inner durable.FS and injects the scheduled faults.
// Counters are per-FS, so a store under test owns its own FS.
type FS struct {
	inner durable.FS
	sched Schedule

	mu      sync.Mutex
	syncs   int
	writes  int
	renames int
	removes int
	// synced is each file's length as a power cut would leave it: set
	// when the file is first opened (what was there before is durable)
	// and at every successful Sync, moved by Rename, dropped by Remove.
	synced map[string]int64
}

// New wraps inner (nil means the real filesystem) with a fault schedule.
func New(inner durable.FS, sched Schedule) *FS {
	if inner == nil {
		inner = durable.OS()
	}
	return &FS{inner: inner, sched: sched, synced: make(map[string]int64)}
}

// Counts returns the operation counters observed so far, for asserting
// that two runs of the same schedule took identical paths.
func (f *FS) Counts() (syncs, writes, renames, removes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs, f.writes, f.renames, f.removes
}

// MkdirAll passes through; directory creation is not a fault target.
func (f *FS) MkdirAll(path string, perm fs.FileMode) error { return f.inner.MkdirAll(path, perm) }

// ReadDir passes through; the read side is not a fault target.
func (f *FS) ReadDir(dir string) ([]fs.DirEntry, error) { return f.inner.ReadDir(dir) }

// ReadFile passes through; the read side is not a fault target.
func (f *FS) ReadFile(path string) ([]byte, error) { return f.inner.ReadFile(path) }

// Rename fails on the scheduled occurrence, before touching the inner
// filesystem — the rename never happened, as a full disk or quota error
// leaves it.
func (f *FS) Rename(oldPath, newPath string) error {
	f.mu.Lock()
	f.renames++
	n := f.renames
	f.mu.Unlock()
	if n == f.sched.FailRenameAt {
		return &Fault{Op: OpRename, N: n}
	}
	if err := f.inner.Rename(oldPath, newPath); err != nil {
		return err
	}
	oldPath, newPath = filepath.Clean(oldPath), filepath.Clean(newPath)
	f.mu.Lock()
	if l, ok := f.synced[oldPath]; ok {
		f.synced[newPath] = l
	} else {
		delete(f.synced, newPath)
	}
	delete(f.synced, oldPath)
	f.mu.Unlock()
	return nil
}

// Remove fails on the scheduled occurrence without removing.
func (f *FS) Remove(path string) error {
	f.mu.Lock()
	f.removes++
	n := f.removes
	f.mu.Unlock()
	if n == f.sched.FailRemoveAt {
		return &Fault{Op: OpRemove, N: n}
	}
	if err := f.inner.Remove(path); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.synced, filepath.Clean(path))
	f.mu.Unlock()
	return nil
}

// OpenDir wraps the directory handle so its fsync counts toward the
// sync schedule, like a file's.
func (f *FS) OpenDir(path string) (durable.File, error) {
	d, err := f.inner.OpenDir(path)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: d}, nil
}

// OpenFile wraps the file handle so writes and syncs count. The first
// open of a path records its length as synced: whatever the file held
// before this FS saw it is taken as durable.
func (f *FS) OpenFile(path string, flag int, perm fs.FileMode) (durable.File, error) {
	h, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	path = filepath.Clean(path)
	f.mu.Lock()
	_, seen := f.synced[path]
	f.mu.Unlock()
	if !seen {
		l, err := h.Seek(0, io.SeekEnd)
		if err == nil {
			_, err = h.Seek(0, io.SeekStart)
		}
		if err != nil {
			_ = h.Close() // cleanup; the seek error is already being reported
			return nil, err
		}
		f.mu.Lock()
		f.synced[path] = l
		f.mu.Unlock()
	}
	return &file{fs: f, inner: h, path: path}, nil
}

// CrashImage copies the tree under src to dst as a power cut would
// leave it: every file this FS has opened is cut to its length at its
// last Sync, and files it never opened are copied whole. Renames and
// removals count as durable at once — the store fsyncs the directory
// after each — so the image models lost data, not lost directory
// entries. src must not change while the image is taken.
func (f *FS) CrashImage(src, dst string) error {
	if err := f.inner.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := f.inner.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := f.CrashImage(from, to); err != nil {
				return err
			}
			continue
		}
		data, err := f.inner.ReadFile(from)
		if err != nil {
			return err
		}
		f.mu.Lock()
		l, ok := f.synced[from]
		f.mu.Unlock()
		if ok && l < int64(len(data)) {
			data = data[:l]
		}
		if err := writeFile(f.inner, to, data); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path on fsys holding data.
func writeFile(fsys durable.FS, path string, data []byte) error {
	h, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := h.Write(data); err != nil {
		_ = h.Close() // cleanup; the write error is already being reported
		return err
	}
	return h.Close()
}

// file is a handle that routes writes and syncs through the injector.
// path is empty for a directory handle.
type file struct {
	fs    *FS
	inner durable.File
	path  string
}

// Write tears on the scheduled occurrence: half the buffer reaches the
// inner file, then the call fails.
func (h *file) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	h.fs.writes++
	n := h.fs.writes
	h.fs.mu.Unlock()
	if n == h.fs.sched.TornWriteAt {
		written, err := h.inner.Write(p[:len(p)/2])
		if err != nil {
			return written, err
		}
		return written, &Fault{Op: OpWrite, N: n}
	}
	return h.inner.Write(p)
}

// Sync fails on the scheduled occurrence without syncing.
func (h *file) Sync() error {
	h.fs.mu.Lock()
	h.fs.syncs++
	n := h.fs.syncs
	h.fs.mu.Unlock()
	if n == h.fs.sched.FailSyncAt {
		return &Fault{Op: OpSync, N: n}
	}
	if err := h.inner.Sync(); err != nil || h.path == "" {
		return err
	}
	// Everything written so far is now durable: record the file's end.
	cur, err := h.inner.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	end, err := h.inner.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if _, err := h.inner.Seek(cur, io.SeekStart); err != nil {
		return err
	}
	h.fs.mu.Lock()
	h.fs.synced[h.path] = end
	h.fs.mu.Unlock()
	return nil
}

func (h *file) Truncate(size int64) error                 { return h.inner.Truncate(size) }
func (h *file) Seek(off int64, whence int) (int64, error) { return h.inner.Seek(off, whence) }
func (h *file) Close() error                              { return h.inner.Close() }
