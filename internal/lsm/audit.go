package lsm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shard"
)

// AuditRecord is one security-relevant event, in the spirit of the
// kernel's audit subsystem. Security modules append records through an
// AuditLog they share; tests and the demo binaries read them back.
type AuditRecord struct {
	Seq     uint64
	When    time.Time
	Module  string // which LSM produced the record
	Op      string // hook name ("file_ioctl", "inode_permission", ...)
	Subject string // task identity (comm or profile label)
	Object  string // target path or address
	Action  string // "ALLOWED" or "DENIED"
	Detail  string // free-form context (state name, matched rule, ...)
}

// String renders the record in a dmesg-like single line.
func (r AuditRecord) String() string {
	return fmt.Sprintf("audit[%d] %s %s op=%s subject=%q object=%q %s %s",
		r.Seq, r.Module, r.Action, r.Op, r.Subject, r.Object, r.Detail,
		r.When.Format(time.RFC3339Nano))
}

// DefaultPendingCap bounds one per-slot pending buffer: a hook that
// fills its shard triggers an inline flush — emission is asynchronous
// on the happy path but can never lose a record, so `uploaded + dropped
// == emitted` stays exact for the fleet agent and chaos suites.
const DefaultPendingCap = 64

// pendingRec is a captured-but-not-yet-inserted record. The order token
// is a global atomic counter stamped at capture time, under the shard
// lock, so each shard's pending buffer is sorted by it; the flusher
// merges those runs, so per-goroutine causal order survives into the
// ring even when consecutive records from one goroutine land in
// different shards.
type pendingRec struct {
	order uint64
	rec   AuditRecord
}

// auditShard is one slot's pending buffer. Hooks on different slots
// append under different mutexes, so audit emission no longer serialises
// every concurrent hook on one ring lock. spare is the buffer the last
// cut drained, swapped back in at the next, and head Flush's merge
// cursor into it; only Flush touches either, under flushMu. The fields
// fill 64 bytes, so neighbouring shard mutexes never share a cache
// line.
type auditShard struct {
	mu      sync.Mutex
	pending []pendingRec
	spare   []pendingRec
	head    int
}

// AuditLog is a bounded in-memory ring of audit records with a
// monotonic cursor for incremental export.
//
// Emission is two-stage: Append captures the record into a per-slot
// pending buffer (cheap, contention-free across slots) and Flush drains
// every buffer into the ring, where the monotonic Seq is assigned — at
// ring insertion, not at hook time. That placement is what keeps
// dedupe-by-sequence correct for the fleet uploader: Seq of the newest
// record == total records ever inserted, so `uploaded + dropped ==
// emitted` is an exact ledger for any exporter draining through Since.
//
// Every read API flushes first, so single-threaded callers observe the
// synchronous semantics the rest of the test suite was written against.
// A shard that fills up flushes inline, so records are delayed but
// never lost.
//
// Flush takes an atomic cut: it locks all shards, swaps each pending
// buffer with its spare, and unlocks. Append draws its capture token
// while holding its shard's lock, so every buffer is a run sorted by
// token, and Flush merges the runs straight into the ring. The ring is
// therefore in capture order, across cuts too: a record left out of a
// cut drew its token after the cut held its shard's lock, so after
// every token in the cut. In particular each goroutine's records stay
// in the order it appended them, although shard.Slot hashes a stack
// address and one goroutine's Appends from different call depths land
// in different shards.
//
// Appends to the ring are O(1): once full, the oldest record is
// overwritten in place and counted dropped, never shifted.
type AuditLog struct {
	capture atomic.Uint64 // capture-order tokens, drawn under a shard lock
	shards  []auditShard

	flushMu sync.Mutex // serialises drains; lock order: flushMu > shard.mu > mu

	mu      sync.Mutex
	seq     uint64        // last assigned sequence == records ever inserted
	buf     []AuditRecord // ring storage; grows to max then wraps
	start   int           // index of the oldest retained record
	n       int           // retained record count
	dropped uint64        // records lost before export (overwrite or Clear)
	max     int
}

// NewAuditLog creates a log retaining at most max records (0 means a
// default of 4096).
func NewAuditLog(max int) *AuditLog {
	if max <= 0 {
		max = 4096
	}
	return &AuditLog{max: max, shards: make([]auditShard, shard.Slots())}
}

// Append captures an event into the calling slot's pending buffer. The
// record's Seq is NOT assigned here — sequence numbers are minted at
// ring insertion (see Flush) so they are monotonic in insertion order
// even when concurrent hooks capture out of order. When is stamped now,
// preserving the event's wall-clock time across the async hand-off.
func (l *AuditLog) Append(r AuditRecord) {
	if r.When.IsZero() {
		r.When = time.Now()
	}
	s := &l.shards[shard.Slot()]
	s.mu.Lock()
	s.pending = append(s.pending, pendingRec{order: l.capture.Add(1), rec: r})
	full := len(s.pending) >= DefaultPendingCap
	s.mu.Unlock()
	if full {
		l.Flush()
	}
}

// Flush drains every pending buffer into the ring, assigning sequence
// numbers in capture order. Safe to call concurrently with Appends and
// other Flushes; see the AuditLog doc comment for the ordering argument.
func (l *AuditLog) Flush() {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	// Atomic cut: hold every shard lock while swapping the buffers.
	for i := range l.shards {
		l.shards[i].mu.Lock()
	}
	cut := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.pending, s.spare = s.spare, s.pending
		cut += len(s.spare)
	}
	for i := range l.shards {
		l.shards[i].mu.Unlock()
	}
	if cut == 0 {
		return
	}

	// Merge the sorted runs: take from the run with the lowest head
	// token for as long as it stays below every other run's head.
	l.mu.Lock()
	for {
		// first is the run with the lowest head token, low that token and
		// next the second lowest (0: first is the only run left).
		var first *auditShard
		var low, next uint64
		for i := range l.shards {
			s := &l.shards[i]
			if s.head == len(s.spare) {
				continue
			}
			o := s.spare[s.head].order
			switch {
			case first == nil:
				first, low = s, o
			case o < low:
				first, low, next = s, o, low
			case next == 0 || o < next:
				next = o
			}
		}
		if first == nil {
			break
		}
		for ; first.head < len(first.spare) && (next == 0 || first.spare[first.head].order < next); first.head++ {
			l.insertLocked(&first.spare[first.head].rec)
		}
	}
	l.mu.Unlock()
	for i := range l.shards {
		s := &l.shards[i]
		clear(s.spare) // the ring holds the records now; drop the references
		s.spare, s.head = s.spare[:0], 0
	}
}

// insertLocked assigns the next sequence number and copies the record
// into the ring. Caller holds l.mu.
func (l *AuditLog) insertLocked(r *AuditRecord) {
	l.seq++
	var slot *AuditRecord
	switch {
	case len(l.buf) < l.max:
		l.buf = append(l.buf, *r)
		slot = &l.buf[len(l.buf)-1]
		l.n++
	case l.n < l.max:
		slot = &l.buf[(l.start+l.n)%l.max]
		*slot = *r
		l.n++
	default:
		slot = &l.buf[l.start]
		*slot = *r
		if l.start++; l.start == l.max {
			l.start = 0
		}
		l.dropped++
	}
	slot.Seq = l.seq
}

// Records returns a copy of the retained records, oldest first.
func (l *AuditLog) Records() []AuditRecord {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.copyLocked()
}

func (l *AuditLog) copyLocked() []AuditRecord {
	out := make([]AuditRecord, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	return out
}

// Since returns the retained records with sequence numbers strictly
// greater than cursor (oldest first), the new cursor to resume from,
// and how many records after cursor were lost to the ring before they
// could be read. It is the incremental export surface the fleet
// agent's decision-log shipper drains: repeatedly calling Since with
// the returned cursor observes every record exactly once, with losses
// accounted instead of silent. It copies only the records it returns,
// so a caller that keeps up pays for the new records, not the ring.
func (l *AuditLog) Since(cursor uint64) (recs []AuditRecord, next uint64, missed uint64) {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	next = l.seq
	if cursor >= l.seq {
		return nil, next, 0
	}
	oldest := l.seq - uint64(l.n) + 1 // seq of the oldest retained record (seq+1 when empty)
	first := cursor + 1               // seq of the first record to return
	if first < oldest {
		missed = oldest - first
		first = oldest
	}
	// Retained sequence numbers are contiguous, so the records after
	// cursor are the ring's last seq-first+1: copy exactly those.
	if n := int(l.seq - first + 1); n > 0 {
		recs = make([]AuditRecord, n)
		skip := l.n - n
		for i := range recs {
			recs[i] = l.buf[(l.start+skip+i)%len(l.buf)]
		}
	}
	return recs, next, missed
}

// Cursor returns the sequence number of the newest record (0 before the
// first Append) — the position an exporter starting "from now" resumes
// from.
func (l *AuditLog) Cursor() uint64 {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Emitted reports how many records were ever appended.
func (l *AuditLog) Emitted() uint64 {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Dropped reports how many records were lost before export — ring
// overwrites plus explicit Clears.
func (l *AuditLog) Dropped() uint64 {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Denials returns only the DENIED records.
func (l *AuditLog) Denials() []AuditRecord {
	var out []AuditRecord
	for _, r := range l.Records() {
		if r.Action == "DENIED" {
			out = append(out, r)
		}
	}
	return out
}

// Len reports the number of retained records.
func (l *AuditLog) Len() int {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Clear discards all retained records, pending ones included (the
// sequence counter keeps going, and the discarded records count as
// dropped so export ledgers stay exact).
func (l *AuditLog) Clear() {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropped += uint64(l.n)
	l.buf = nil
	l.start, l.n = 0, 0
}
