// The VFS seam: every filesystem touch the store makes goes through the
// FS interface, with the real os.* implementation as the default. The
// seam exists for fault injection — internal/faultfs wraps an FS and
// fails the Nth sync or tears the Nth write on a deterministic schedule
// — so every store error path is reachable, reproducible, and pinned by
// tests, not just reasoned about.

package durable

import (
	"io"
	"io/fs"
	"os"
)

// FS is the narrow filesystem surface a Store needs. Implementations
// must behave like the POSIX operations they are named after; the
// contract the store relies on is exactly the one it relies on from the
// OS (atomic rename within a directory, fsync barriers, ReadDir in
// unspecified order — the store sorts).
type FS interface {
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists a directory.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// ReadFile reads a whole file. A missing file must report an error
	// satisfying errors.Is(err, fs.ErrNotExist).
	ReadFile(path string) ([]byte, error)
	// OpenFile opens a file with os.OpenFile semantics.
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	// OpenDir opens a directory for fsync.
	OpenDir(path string) (File, error)
	// Rename atomically replaces newPath with oldPath.
	Rename(oldPath, newPath string) error
	// Remove deletes a file.
	Remove(path string) error
}

// File is an open file (or directory) handle: the subset of *os.File
// the store's append, truncate-on-recovery and fsync paths use.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// OS returns the real filesystem, the default when Options.FS is nil.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error)    { return os.ReadDir(dir) }
func (osFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (osFS) Rename(oldPath, newPath string) error         { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) OpenDir(path string) (File, error)            { return os.Open(path) }
func (osFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}
