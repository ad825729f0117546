// Store: the append path and the recovery scan. One Store owns a data
// directory; at any moment exactly one segment is active for appends,
// the rest are the immutable history between the last snapshot and now.

package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/hpcsched/gensched/internal/telemetry"
)

// Options tunes a Store.
type Options struct {
	// SyncEvery is the number of unsynced records at which Commit
	// flushes and fsyncs. 1 (the default for values < 1) makes every
	// committed record durable before Commit returns; N > 1 amortizes
	// the fsync and risks the last N-1 committed records on a crash.
	SyncEvery int

	// FS is the filesystem the store runs on; nil means the real one
	// (OS()). Tests substitute a faultfs.FS to exercise failure paths on
	// a deterministic schedule.
	FS FS
}

// Recovered is what Open found on disk: the latest snapshot (nil for a
// fresh or never-checkpointed directory) and the journal records at or
// after its sequence, in order. Replaying Records on top of the snapshot
// reproduces the pre-crash state. Segments counts the journal segments
// scanned — recovery provenance the daemon reports in /v1/status.
type Recovered struct {
	Snapshot *Snapshot
	Records  []Record
	Segments int
}

// Store is an open journal. Methods are not safe for concurrent use: a
// federation shard calls them under its shard lock.
type Store struct {
	dir       string
	syncEvery int
	fs        FS

	f        File // active segment (nil after Close, or mid-rotation failure)
	w        *bufio.Writer
	seq      uint64 // sequence of the next record to append
	unsynced int
	closed   bool
	scratch  []byte

	// broken latches the first write/sync failure: after it, every
	// mutation fails with the original cause, because the on-disk suffix
	// is in an unknown state and appending past it could corrupt history.
	broken error

	// tel, when non-nil, observes appends, fsync batches and
	// checkpoints. Events ride the logical clock of the records
	// themselves (lastNow), never a wall clock — the store stays inside
	// the determinism boundary.
	tel     *telemetry.Sink
	lastNow float64
}

const snapshotName = "snapshot"

// journalBufSize is the append buffer: large enough that a batched
// (SyncEvery > 1) workload pays one write syscall per hundreds of
// records, not one per bufio default-buffer fill.
const journalBufSize = 1 << 18

// Open opens (or initializes) the data directory and returns the store
// positioned for appends plus everything needed to rebuild state. A torn
// final frame in the newest segment — an append interrupted by the crash
// — is truncated away; any other inconsistency is corruption and Open
// refuses rather than guess.
func Open(dir string, opt Options) (*Store, *Recovered, error) {
	if opt.SyncEvery < 1 {
		opt.SyncEvery = 1
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var segNames []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A checkpoint died before its rename; the file is garbage.
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return nil, nil, err
			}
			continue
		}
		if _, ok := parseSegmentName(name); ok {
			segNames = append(segNames, name)
		}
	}
	// Fixed-width hex names make lexical order sequence order.
	sort.Strings(segNames)

	rec := &Recovered{}
	if data, err := fsys.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		rec.Snapshot, err = decodeSnapshotFile(data)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: %s: %w", filepath.Join(dir, snapshotName), err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}

	segs := make([]*segment, len(segNames))
	for i, name := range segNames {
		s, err := readSegment(fsys, filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		if s.torn && i != len(segNames)-1 {
			return nil, nil, fmt.Errorf("durable: %s: corrupt frame in a non-final segment", s.path)
		}
		if i > 0 {
			prev := segs[i-1]
			if want := prev.base + uint64(len(prev.records)); s.base != want {
				return nil, nil, fmt.Errorf("durable: journal gap: %s ends at record %d but %s starts at %d", prev.path, want, s.path, s.base)
			}
		}
		segs[i] = s
	}

	var startSeq uint64
	if rec.Snapshot != nil {
		startSeq = rec.Snapshot.Seq
	}
	if len(segs) == 0 {
		if startSeq != 0 {
			return nil, nil, fmt.Errorf("durable: snapshot at record %d but no journal segments", startSeq)
		}
	} else {
		if segs[0].base > startSeq {
			return nil, nil, fmt.Errorf("durable: journal starts at record %d, need %d (missing segments?)", segs[0].base, startSeq)
		}
		last := segs[len(segs)-1]
		if end := last.base + uint64(len(last.records)); startSeq > end {
			return nil, nil, fmt.Errorf("durable: snapshot at record %d but journal ends at %d", startSeq, end)
		}
	}
	rec.Segments = len(segs)
	for _, s := range segs {
		for i, r := range s.records {
			if s.base+uint64(i) >= startSeq {
				rec.Records = append(rec.Records, r)
			}
		}
	}

	st := &Store{dir: dir, syncEvery: opt.SyncEvery, fs: fsys, seq: startSeq + uint64(len(rec.Records))}
	if len(segs) == 0 {
		if err := st.newSegment(0); err != nil {
			return nil, nil, err
		}
	} else {
		last := segs[len(segs)-1]
		f, err := fsys.OpenFile(last.path, os.O_RDWR, 0)
		if err != nil {
			return nil, nil, err
		}
		if last.torn {
			if err := f.Truncate(last.validLen); err != nil {
				_ = f.Close() // cleanup; the truncate error is already being reported
				return nil, nil, err
			}
			if err := f.Sync(); err != nil {
				_ = f.Close() // cleanup; the sync error is already being reported
				return nil, nil, err
			}
		}
		if _, err := f.Seek(last.validLen, 0); err != nil {
			_ = f.Close() // cleanup; the seek error is already being reported
			return nil, nil, err
		}
		st.f = f
		st.w = bufio.NewWriterSize(f, journalBufSize)
	}
	return st, rec, nil
}

// decodeSnapshotFile unwraps a snapshot file: magic plus one frame.
func decodeSnapshotFile(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("bad snapshot magic")
	}
	payload, rest, ok := nextFrame(data[len(snapMagic):])
	if !ok {
		return nil, fmt.Errorf("snapshot frame corrupt")
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("snapshot has %d trailing bytes", len(rest))
	}
	return DecodeSnapshot(payload)
}

// newSegment atomically creates the segment based at base and makes it
// the active append target. The atomic create means a crash can never
// leave a segment with a partial header.
func (s *Store) newSegment(base uint64) error {
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = appendU64(hdr, base)
	name := segmentName(base)
	if err := createFileAtomic(s.fs, s.dir, name, hdr); err != nil {
		return err
	}
	f, err := s.fs.OpenFile(filepath.Join(s.dir, name), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Seek(int64(segHeaderLen), 0); err != nil {
		_ = f.Close() // cleanup; the seek error is already being reported
		return err
	}
	s.f = f
	s.w = bufio.NewWriterSize(f, journalBufSize)
	return nil
}

// Seq is the sequence number the next Append will get.
func (s *Store) Seq() uint64 { return s.seq }

// SetTelemetry attaches (or, with nil, detaches) a telemetry sink
// observing the append/sync/checkpoint path.
func (s *Store) SetTelemetry(t *telemetry.Sink) { s.tel = t }

// Append journals one record and commits it: Buffer, then Commit.
func (s *Store) Append(r *Record) error {
	if err := s.Buffer(r); err != nil {
		return err
	}
	return s.Commit()
}

// Buffer writes one record into the append buffer without syncing. The
// record is durable only after a later Commit that syncs, or a Sync; a
// caller applying a group of records buffers each and commits once, so
// the group shares one flush+fsync.
func (s *Store) Buffer(r *Record) error {
	if s.closed {
		return fmt.Errorf("durable: store is closed")
	}
	if s.broken != nil {
		return fmt.Errorf("durable: journal is failed: %w", s.broken)
	}
	// Build the whole frame — header plus payload — in the reusable
	// scratch buffer so the hot path is one buffered write and zero
	// allocations.
	buf := append(s.scratch[:0], 0, 0, 0, 0, 0, 0, 0, 0)[:frameHeader]
	buf, err := appendRecord(buf, r)
	if err != nil {
		return err
	}
	s.scratch = buf // keep the grown buffer
	payload := buf[frameHeader:]
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	if _, err := s.w.Write(buf); err != nil {
		s.broken = err
		return err
	}
	if r.Now > s.lastNow {
		s.lastNow = r.Now
	}
	s.tel.WALAppend(s.lastNow, s.seq, len(buf))
	s.seq++
	s.unsynced++
	return nil
}

// Commit ends a group of buffered records: it syncs once SyncEvery or
// more records are unsynced, and otherwise leaves them for a later
// commit. So after every successful Commit fewer than SyncEvery records
// are unsynced, which bounds what a crash can take from acknowledged
// requests at SyncEvery-1. With nothing unsynced Commit succeeds even
// on a failed or closed store — whatever synced the records made them
// durable — while a failed store holding unsynced records reports the
// failure: those records can no longer reach the disk.
func (s *Store) Commit() error {
	switch {
	case s.unsynced == 0:
		return nil
	case s.broken != nil:
		return fmt.Errorf("durable: journal is failed: %w", s.broken)
	case s.unsynced < s.syncEvery:
		return nil
	}
	return s.Sync()
}

// Sync flushes buffered appends and fsyncs the active segment. A failure
// latches: the buffer may be half-drained, so the store refuses further
// mutation.
func (s *Store) Sync() error {
	if s.closed {
		return fmt.Errorf("durable: store is closed")
	}
	if s.broken != nil {
		return fmt.Errorf("durable: journal is failed: %w", s.broken)
	}
	if err := s.w.Flush(); err != nil {
		s.broken = err
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.broken = err
		return err
	}
	s.tel.WALSync(s.lastNow, s.unsynced)
	s.unsynced = 0
	return nil
}

// Checkpoint makes snap the recovery base: it stamps snap.Seq with the
// current sequence, syncs the journal (the snapshot must never be ahead
// of durable records), writes the snapshot atomically, rotates appends to
// a fresh segment based at snap.Seq, and deletes the superseded
// segments. Deletion goes oldest-first so a crash mid-loop leaves the
// surviving segments a contiguous suffix, which recovery accepts.
func (s *Store) Checkpoint(snap *Snapshot) error {
	snap.Seq = s.seq
	if err := s.Sync(); err != nil {
		return err
	}
	enc := EncodeSnapshot(snap)
	content := make([]byte, 0, len(enc)+len(snapMagic)+frameHeader)
	content = append(content, snapMagic...)
	content = appendFrame(content, enc)
	if err := createFileAtomic(s.fs, s.dir, snapshotName, content); err != nil {
		s.broken = err
		return err
	}
	// The active segment is nil between a successful close and a
	// successful rotation, so a failure in this window cannot lead Close
	// to double-close the old handle.
	err := s.f.Close()
	s.f = nil
	if err != nil {
		s.broken = err
		return err
	}
	if err := s.newSegment(snap.Seq); err != nil {
		s.broken = err
		return err
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		s.broken = err
		return err
	}
	var old []string
	for _, e := range entries {
		if base, ok := parseSegmentName(e.Name()); ok && base < snap.Seq {
			old = append(old, e.Name())
		}
	}
	sort.Strings(old) // oldest first
	for _, name := range old {
		if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
			s.broken = err
			return err
		}
	}
	if err := syncDir(s.fs, s.dir); err != nil {
		return err
	}
	s.tel.WALCheckpoint(s.lastNow, snap.Seq, len(enc))
	return nil
}

// Close flushes, fsyncs and closes the active segment. A store that
// already failed closes the file without masking the original error, and
// a second Close reports the first outcome instead of re-closing a dead
// handle (the Close-after-failure double-close, pinned by a faultfs
// regression test).
func (s *Store) Close() error {
	if s.closed {
		if s.broken != nil {
			return fmt.Errorf("durable: journal is failed: %w", s.broken)
		}
		return fmt.Errorf("durable: store is already closed")
	}
	if s.broken != nil {
		s.closed = true
		if s.f != nil {
			_ = s.f.Close() // cleanup; the store already failed with s.broken
			s.f = nil
		}
		return fmt.Errorf("durable: journal is failed: %w", s.broken)
	}
	if err := s.Sync(); err != nil {
		s.closed = true
		_ = s.f.Close() // cleanup; the sync error is already being reported
		s.f = nil
		return err
	}
	s.closed = true
	err := s.f.Close()
	s.f = nil
	return err
}
