// Package store is a durable write-ahead log + snapshot store: the
// persistence layer under the fleet control plane. Records are framed
// with a CRC and appended to segmented log files; snapshots are written
// atomically (tmp + rename) and compact away the segments they cover.
// On Open the store loads the newest intact snapshot and replays the
// log records past it, truncating a torn tail — so a process killed
// with SIGKILL (or a machine losing power mid-write) restarts to
// exactly the state it had durably committed.
//
// Durability contract:
//
//   - Append buffers the record in user space. A kill -9 at this point
//     loses it.
//   - SyncTo(index) flushes buffered records to the OS and (unless
//     NoFsync) fsyncs. After SyncTo returns, the record survives both
//     process kill and power loss. Concurrent committers coalesce: one
//     fsync covers every record appended before it (group commit).
//   - Flushed-but-unfsynced records survive process kill (the page
//     cache is the kernel's), but not power loss.
//
// Replay is exact-prefix: the store never surfaces a partial or
// corrupt record, and never loses a record that a SyncTo covered.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Defaults.
const (
	// DefaultSegmentBytes rolls the active segment past this size.
	DefaultSegmentBytes = 4 << 20
	// MaxRecordBytes bounds one record (a poisoned length prefix must
	// not allocate unbounded memory at replay).
	MaxRecordBytes = 16 << 20
)

// Option tunes a Store.
type Option func(*Store)

// WithSegmentBytes overrides the segment roll threshold.
func WithSegmentBytes(n int64) Option {
	return func(s *Store) {
		if n > 0 {
			s.segmentBytes = n
		}
	}
}

// WithNoFsync makes SyncTo flush to the OS but skip fsync — the state
// survives process kill but not power loss. For benchmarks and bulk
// simulation, not production.
func WithNoFsync() Option {
	return func(s *Store) { s.noFsync = true }
}

// Store is one directory of WAL segments plus snapshots. All methods
// are safe for concurrent use.
type Store struct {
	dir          string
	segmentBytes int64
	noFsync      bool

	mu        sync.Mutex // guards the append path and segment state
	seg       *segmentWriter
	nextIndex uint64 // index the next Append receives
	appended  uint64 // last index appended (0 = none)

	syncMu sync.Mutex // serialises fsync; group commit coalesces here
	synced uint64     // last index known flushed (+fsynced unless noFsync)

	snapIndex   uint64 // index covered by the loaded/most recent snapshot
	snapPayload []byte

	// replay state captured at Open for the Replay call.
	tail []record

	closed  bool
	crashed bool
}

type record struct {
	index   uint64
	payload []byte
}

// Open loads (or initialises) the store at dir: the newest intact
// snapshot is read, every segment past it is scanned (CRC-verified,
// torn tail truncated), and the store is positioned to append after
// the last intact record.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, segmentBytes: DefaultSegmentBytes}
	for _, o := range opts {
		o(s)
	}

	snapIdx, snapPayload, err := loadNewestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	s.snapIndex, s.snapPayload = snapIdx, snapPayload

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Scan every segment in order, collecting records past the snapshot.
	// A CRC failure or short frame in the LAST segment is a torn tail:
	// the file is truncated to the last intact record and appends resume
	// there. The same damage in an earlier segment is real corruption —
	// later records exist, so the prefix property would be violated —
	// and Open refuses.
	last := uint64(0)
	for i, seg := range segs {
		recs, intactEnd, rerr := scanSegment(seg.path)
		if rerr != nil {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("store: segment %s: %w", filepath.Base(seg.path), rerr)
			}
			if terr := os.Truncate(seg.path, intactEnd); terr != nil {
				return nil, fmt.Errorf("store: truncating torn tail of %s: %w", filepath.Base(seg.path), terr)
			}
		}
		for _, r := range recs {
			if r.index <= last && last != 0 {
				return nil, fmt.Errorf("store: segment %s: index %d out of order (last %d)",
					filepath.Base(seg.path), r.index, last)
			}
			last = r.index
			if r.index > snapIdx {
				s.tail = append(s.tail, r)
			}
		}
	}
	if last < snapIdx {
		last = snapIdx
	}
	s.appended = last
	s.synced = last
	s.nextIndex = last + 1

	// Resume appending into the final segment, or open a fresh one.
	if len(segs) > 0 {
		w, err := openSegmentForAppend(segs[len(segs)-1].path)
		if err != nil {
			return nil, err
		}
		s.seg = w
	}
	return s, nil
}

// Snapshot returns the payload of the newest intact snapshot loaded at
// Open (ok=false when none exists) and the WAL index it covers.
func (s *Store) Snapshot() (index uint64, payload []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snapPayload == nil {
		return 0, nil, false
	}
	return s.snapIndex, s.snapPayload, true
}

// Replay hands every intact record past the snapshot to fn in append
// order. Call once, after Open, before Append.
func (s *Store) Replay(fn func(index uint64, payload []byte) error) error {
	s.mu.Lock()
	tail := s.tail
	s.mu.Unlock()
	for _, r := range tail {
		if err := fn(r.index, r.payload); err != nil {
			return err
		}
	}
	return nil
}

// LastIndex returns the index of the last appended record (0 = none).
func (s *Store) LastIndex() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Append frames the payload and buffers it into the active segment,
// returning its index. The record is NOT durable until a SyncTo at or
// past the returned index returns.
func (s *Store) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("store: record of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: closed")
	}
	if s.seg == nil || s.seg.size >= s.segmentBytes {
		if err := s.rollSegmentLocked(); err != nil {
			return 0, err
		}
	}
	idx := s.nextIndex
	if err := s.seg.append(idx, payload); err != nil {
		return 0, err
	}
	s.nextIndex++
	s.appended = idx
	return idx, nil
}

// rollSegmentLocked seals the active segment (flush + fsync) and opens
// a new one named by the next record index.
func (s *Store) rollSegmentLocked() error {
	if s.seg != nil {
		if err := s.seg.seal(s.noFsync); err != nil {
			return err
		}
	}
	w, err := createSegment(s.dir, s.nextIndex)
	if err != nil {
		return err
	}
	s.seg = w
	return nil
}

// SyncTo makes every record up to (at least) index durable. Group
// commit: one flush+fsync covers all records appended before it, and a
// caller whose index was already covered returns without touching the
// disk.
func (s *Store) SyncTo(index uint64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.synced >= index {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	target := s.appended
	seg := s.seg
	var err error
	if seg != nil {
		err = seg.flush()
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if seg != nil && !s.noFsync {
		if err := seg.sync(); err != nil {
			return err
		}
	}
	if target > s.synced {
		s.synced = target
	}
	return nil
}

// Sync flushes and fsyncs everything appended so far.
func (s *Store) Sync() error {
	s.mu.Lock()
	target := s.appended
	s.mu.Unlock()
	return s.SyncTo(target)
}

// SaveSnapshot writes payload as a snapshot covering every record
// appended so far, then compacts: WAL segments whose records are all
// covered are deleted, as are older snapshots. The caller must ensure
// payload reflects all records up to LastIndex (a consistent cut).
func (s *Store) SaveSnapshot(payload []byte) error {
	// The WAL tail being snapshotted must be durable first: a snapshot
	// that outlives its WAL would otherwise claim records a crash lost.
	if err := s.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	idx := s.appended
	if err := writeSnapshot(s.dir, idx, payload, s.noFsync); err != nil {
		return err
	}
	s.snapIndex = idx
	s.snapPayload = append([]byte(nil), payload...)
	// Compact: seal and drop fully covered segments. The active segment
	// is replaced with a fresh one so it can be dropped too.
	if s.seg != nil {
		if err := s.seg.seal(s.noFsync); err != nil {
			return err
		}
		s.seg = nil
	}
	if err := s.rollSegmentLocked(); err != nil {
		return err
	}
	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		// A segment is covered when the next segment starts at or below
		// idx+1 (i.e. every record in this one has index <= idx).
		if i+1 < len(segs) && segs[i+1].first <= idx+1 {
			os.Remove(seg.path)
		}
	}
	removeOldSnapshots(s.dir, idx)
	return nil
}

// Close seals the active segment and releases the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.seg != nil {
		return s.seg.seal(s.noFsync)
	}
	return nil
}

// Crash simulates kill -9 for tests: file descriptors are dropped
// without flushing user-space buffers, so records not yet covered by a
// flush are lost exactly as they would be when the process dies.
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.crashed = true
	if s.seg != nil {
		s.seg.abandon()
		s.seg = nil
	}
}
