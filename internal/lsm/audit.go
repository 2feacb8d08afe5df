package lsm

import (
	"cmp"
	"fmt"
	"slices"
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
// is a global atomic counter stamped at capture time; the flusher sorts
// by it so per-goroutine causal order survives into the ring even when
// consecutive records from one goroutine land in different shards.
type pendingRec struct {
	order uint64
	rec   AuditRecord
}

// flushKey is a pendingRec's place in a cut: its capture order and its
// index in the batch. Flush sorts these 16-byte keys, not the records.
type flushKey struct {
	order uint64
	idx   int
}

// auditShard is one slot's pending buffer. Hooks on different slots
// append under different mutexes, so audit emission no longer serialises
// every concurrent hook on one ring lock.
type auditShard struct {
	mu      sync.Mutex
	pending []pendingRec
	_       [32]byte // keep neighbouring shard mutexes off one cache line
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
// Flush takes an atomic cut: it locks all shards before reading any.
// If record B (appended after A by the same goroutine) is in the cut,
// A's Append had already completed — and since landing in a shard needs
// that shard's lock, A is in the cut too. Sorting the cut by capture
// order then yields per-goroutine causal order in the ring. A and B may
// sit in different shards: shard.Slot hashes a stack address, so one
// goroutine's Appends from different call depths land in different
// shards, and a cut is rarely in capture order shard by shard.
//
// Appends to the ring are O(1): once full, the oldest record is
// overwritten in place and counted dropped, never shifted.
type AuditLog struct {
	capture atomic.Uint64 // capture-order tokens, stamped at Append
	shards  []auditShard

	flushMu sync.Mutex   // serialises drains; lock order: flushMu > shard.mu > mu
	batch   []pendingRec // Flush's scratch cut, reused under flushMu
	keys    []flushKey   // Flush's scratch sort keys, reused under flushMu

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
	p := pendingRec{order: l.capture.Add(1), rec: r}
	s := &l.shards[shard.Slot()]
	s.mu.Lock()
	s.pending = append(s.pending, p)
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

	// Atomic cut: hold every shard lock while collecting.
	batch := l.batch[:0]
	for i := range l.shards {
		l.shards[i].mu.Lock()
	}
	for i := range l.shards {
		s := &l.shards[i]
		batch = append(batch, s.pending...)
		clear(s.pending)
		s.pending = s.pending[:0]
	}
	for i := range l.shards {
		l.shards[i].mu.Unlock()
	}
	if len(batch) == 0 {
		return
	}
	// Sort compact (order, index) keys rather than the records: a
	// pendingRec is ~170 bytes, a key 16.
	keys := l.keys[:0]
	for i := range batch {
		keys = append(keys, flushKey{batch[i].order, i})
	}
	slices.SortFunc(keys, func(a, b flushKey) int { return cmp.Compare(a.order, b.order) })

	l.mu.Lock()
	for _, k := range keys {
		l.insertLocked(batch[k.idx].rec)
	}
	l.mu.Unlock()
	clear(batch) // the ring holds the records now; drop the batch's references
	l.batch = batch[:0]
	l.keys = keys[:0]
}

// insertLocked assigns the next sequence number and places the record in
// the ring. Caller holds l.mu.
func (l *AuditLog) insertLocked(r AuditRecord) {
	l.seq++
	r.Seq = l.seq
	if len(l.buf) < l.max {
		l.buf = append(l.buf, r)
		l.n++
		return
	}
	if l.n < l.max {
		l.buf[(l.start+l.n)%l.max] = r
		l.n++
		return
	}
	l.buf[l.start] = r
	l.start = (l.start + 1) % l.max
	l.dropped++
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
