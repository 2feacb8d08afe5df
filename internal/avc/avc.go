// Package avc implements an access vector cache for LSM decisions, in
// the tradition of SELinux's AVC: the result of a full policy evaluation
// for a (subject, path, access-mask) triple is memoised so the hook fast
// path degenerates to one hash probe.
//
// The probe comes first. SACK's check loads its decision snapshot,
// rejects a path whose first segment no policy pattern can match
// (Coverage.Root, the policy trie's root step), reads the subject
// label from its credential blob slot, and probes under the snapshot's
// token. Only a miss walks the rest of the policy's trie, once, for
// both coverage and the verdict (Matcher.EvaluateAt). A hit needs no
// walk because only covered decisions are ever inserted, and coverage
// changes only with a new snapshot, which brings a new token. AppArmor
// probes first the same way. A probe that misses is not counted by
// LookupAt: it returns the key's hash, and the caller hands that hash
// to Admit once the key proves to be one it would cache, so a
// pass-through probe under a covered first segment never dilutes the
// hit ratio and a check hashes its key once.
//
// SACK decisions additionally depend on the *situation state*, which
// changes at runtime, so cache coherence is the hard part: a cached
// decision must never be served across a situation transition or policy
// reload (the revocation property the paper's Fig. 3(b) experiment
// depends on). The cache guarantees this with a global epoch:
//
//   - every entry is stamped with the epoch its decision inputs were
//     read under;
//   - a probe only returns entries whose stamp equals the prober's
//     epoch;
//   - every state transition and policy reload advances the epoch as
//     part of publishing the new policy state.
//
// The enforcement protocol is Advance plus LookupAt: the writer obtains
// a fresh epoch with Advance and stores it in the immutable decision
// snapshot it publishes (core's snapshot, AppArmor's profile table), so
// a reader's policy state and epoch always come from one atomic load
// and can never be mismatched. A reader still holding the previous
// snapshot keeps hitting entries stamped with that snapshot's epoch —
// decisions consistent with the policy state it is actually using — and
// its late Inserts are dropped because the global epoch has moved on.
// See DESIGN.md §9. Lookup, which loads the current epoch itself and
// returns it as the token for a later Insert, serves callers that hold
// no snapshot, such as the benchmark harness's layer probes.
//
// Entries stamped with a stale token are dead weight until overwritten;
// they are never served.
//
// The table is a direct-mapped array of atomic entry pointers that
// grows with its working set. Every cache starts at min(cap, 64) slots,
// where cap is New's n rounded up to a power of two, and the store that
// fills a quarter of the table's slots builds a table of twice the
// size, up to cap, re-indexes into it the entries stamped with the
// current epoch, and publishes it behind one atomic pointer. A cache
// that only ever sees a few dozen keys therefore holds a 64-slot table
// of about half a KiB, not the 32 KiB of a full DefaultSize one. Lookup and Insert are lock-free and
// allocation-free on the probe; an insert that loses a race simply
// overwrites, and one that lands in a table a doubling has just retired
// is lost (the cache is advisory — a lost entry costs one
// re-evaluation, never correctness). A copied entry keeps its epoch
// stamp, so a doubling can no more serve a decision across an Advance
// than a probe of the old table could. A key's slot comes from
// hash/maphash — the runtime's AES-accelerated string hash — under a
// seed drawn per cache, so an unprivileged task cannot choose paths
// that land on a victim's slots.
//
// Denials are cached as well as allows, as in SELinux's AVC. A deny
// entry carries the denial's audit detail, the one string the deciding
// rule set's memo rendered for that rule and mask (RuleSet.Detail), so
// a repeated denial skips the policy evaluation too.
// Caching a deny changes no per-event semantics: the caller still counts
// every denial and appends an audit record for each one, only with the
// cached detail. A stale deny is as impossible to serve as a stale
// allow, because the entry is stamped with the epoch of the policy state
// that produced it.
//
// Admit stores an allow at once but a denial only on its second miss
// in one epoch. The hook protocol guarantees an allow's reuse: every
// allowed open is followed by FilePermission on the same key for each
// read and write. A denial ends its syscall, and under situation churn
// most denied keys are never checked again before the next transition,
// so storing each one would allocate an entry nothing reads and evict
// a live one. A doorkeeper in the style of TinyLFU's (Einziger et al.,
// ACM TOS 2017) holds the evidence of reuse: one atomic word per 64
// slots, indexed by the hash bits above the slot bits, holding the
// fingerprint of the last denied key that missed there. The fingerprint
// mixes in the token, so every Advance forgets every key without
// clearing a word. Each table has its own doorkeeper, which starts
// empty, so a denial pays at most one extra miss after a doubling.
// Admission only decides whether an exact, token-stamped entry is
// stored: a fingerprint collision admits a denial one miss early, and
// can never serve a verdict for another key. A denial storm of one-off
// paths therefore neither allocates nor evicts other tasks' cached
// allows.
package avc

import (
	"hash/maphash"
	"math/bits"
	"sync/atomic"

	"repro/internal/shard"
	"repro/internal/sys"
)

// DefaultSize is the slot cap used when New is given n <= 0.
const DefaultSize = 4096

// startSize is the slot count every cache starts at, or its cap if that
// is smaller.
const startSize = 64

// slotsPerDoorWord is how many slots share one doorkeeper word: one
// word at startSize, 512 B of doorkeeper at DefaultSize.
const slotsPerDoorWord = 64

// phi is 2^64 divided by the golden ratio, an odd multiplier that
// spreads a small integer over all 64 bits.
const phi = 0x9E3779B97F4A7C15

// Token is a cache generation: the epoch Advance returned to the writer
// that published a policy state, or the one Lookup observed. It must be
// obtained no later than the policy state a decision derives from, and
// handed back to Insert, so an entry can never be stamped with an epoch
// newer than its inputs.
type Token uint64

// entry is one immutable cached decision. Entries are only ever swapped
// whole through an atomic pointer, never mutated.
type entry struct {
	epoch   uint64
	subject string
	path    string
	mask    sys.Access
	allowed bool
	detail  string // a denial's audit detail; empty for allows
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          uint64 // lookups served from the cache
	Misses        uint64 // covered lookups that fell through to full evaluation
	Inserts       uint64 // decisions written into the table (admitted or inserted)
	Invalidations uint64 // epoch bumps (transitions + policy reloads)
	Epoch         uint64 // current epoch value
	Size          int    // current slot count, which grows up to the cap
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is the access vector cache. The zero value is not usable; create
// one with New.
type Cache struct {
	epoch atomic.Uint64
	tab   atomic.Pointer[table]
	cap   int // the slot count tables grow to, a power of two
	seed  maphash.Seed

	hits          shard.Counter
	misses        shard.Counter
	inserts       shard.Counter
	invalidations atomic.Uint64
}

// table is one generation of the slot array. Only its slots, doorkeeper
// words and fill count change after it is published; a doubling
// replaces the whole table.
type table struct {
	slots []atomic.Pointer[entry]
	mask  uint64 // len(slots)-1, slots is a power of two

	// door is the denial doorkeeper: word (h>>doorShift)&doorMask holds
	// the fingerprint h^token·phi of the last denied key that missed
	// under it.
	door      []atomic.Uint64
	doorShift uint
	doorMask  uint64

	// filled counts the stores that found their slot empty; the one
	// that brings it to growAt doubles the table.
	filled atomic.Int64
	growAt int64
}

func newTable(size int) *table {
	words := max(size/slotsPerDoorWord, 1)
	return &table{
		slots:     make([]atomic.Pointer[entry], size),
		mask:      uint64(size - 1),
		door:      make([]atomic.Uint64, words),
		doorShift: uint(bits.TrailingZeros(uint(size))),
		doorMask:  uint64(words - 1),
		growAt:    int64(size / 4),
	}
}

// New creates a cache whose table grows up to n slots, rounded up to a
// power of two. n <= 0 selects DefaultSize. It starts at startSize
// slots, or n if that is smaller.
func New(n int) *Cache {
	if n <= 0 {
		n = DefaultSize
	}
	size := 1
	for size < n {
		size <<= 1
	}
	c := &Cache{
		cap:     size,
		seed:    maphash.MakeSeed(),
		hits:    shard.NewCounter(),
		misses:  shard.NewCounter(),
		inserts: shard.NewCounter(),
	}
	c.tab.Store(newTable(min(size, startSize)))
	return c
}

// hash hashes the key: one seeded maphash per string, mixed with the
// mask. Its low bits pick the slot; direct-mapped, so colliding keys
// evict each other, which bounds memory and keeps probes O(1). The bits
// above them pick the doorkeeper word.
func (c *Cache) hash(subject, path string, mask sys.Access) uint64 {
	h := maphash.String(c.seed, path)
	h ^= maphash.String(c.seed, subject) * phi
	h ^= uint64(mask) * 0xC2B2AE3D27D4EB4F
	return h
}

// Lookup probes the cache. It loads the current epoch *first* and
// returns it as the token for a subsequent Insert; callers must read the
// policy state they evaluate against only after calling Lookup. On a hit
// the cached allowed verdict is returned with ok=true; a miss is
// counted here.
func (c *Cache) Lookup(subject, path string, mask sys.Access) (allowed, ok bool, tok Token) {
	tok = Token(c.epoch.Load())
	allowed, _, ok, _ = c.LookupAt(tok, subject, path, mask)
	if !ok {
		c.misses.Add(1)
	}
	return allowed, ok, tok
}

// LookupAt probes the cache under a caller-provided token — the fast
// path passes the epoch embedded in the decision snapshot it loaded, so
// the rule set and the cache generation it probes are guaranteed to
// describe the same published policy state. On a hit it returns the
// cached verdict, the detail stored with it, and ok=true, and counts the
// hit. It always returns the key's hash h. A miss is not counted: the
// caller passes h to Admit once the key proves to be one it caches, so
// probing ahead of its coverage check costs the hit ratio nothing.
func (c *Cache) LookupAt(tok Token, subject, path string, mask sys.Access) (allowed bool, detail string, ok bool, h uint64) {
	h = c.hash(subject, path, mask)
	if e := c.tab.Load().probe(tok, h, subject, path, mask); e != nil {
		c.hits.Add(1)
		return e.allowed, e.detail, true, h
	}
	return false, "", false, h
}

// PeekAt answers the same question as LookupAt without touching the
// hit/miss counters. Introspection queries (sack's Decision API) use it
// so asking "would this be served from the cache?" never skews the
// hit-rate statistics the experiments report.
func (c *Cache) PeekAt(tok Token, subject, path string, mask sys.Access) (allowed bool, detail string, ok bool) {
	if e := c.tab.Load().probe(tok, c.hash(subject, path, mask), subject, path, mask); e != nil {
		return e.allowed, e.detail, true
	}
	return false, "", false
}

// probe returns the entry for the key with hash h if it was stamped
// with tok.
func (t *table) probe(tok Token, h uint64, subject, path string, mask sys.Access) *entry {
	e := t.slots[h&t.mask].Load()
	if e != nil && e.epoch == uint64(tok) && e.mask == mask &&
		e.path == path && e.subject == subject {
		return e
	}
	return nil
}

// Admit counts one covered lookup that missed and decides whether to
// cache the decision computed for it under tok; h is the hash LookupAt
// returned for the key. An allow is stored at once. A denial is stored
// only if the doorkeeper already holds the key's fingerprint from an
// earlier miss in the same epoch; otherwise Admit records the
// fingerprint and stores nothing. As with Insert, a stale token stores
// nothing.
func (c *Cache) Admit(tok Token, h uint64, subject, path string, mask sys.Access, allowed bool, detail string) {
	c.misses.Add(1)
	if uint64(tok) != c.epoch.Load() {
		return
	}
	t := c.tab.Load()
	if !allowed {
		fp := h ^ uint64(tok)*phi
		if w := &t.door[(h>>t.doorShift)&t.doorMask]; w.Load() != fp {
			w.Store(fp)
			return
		}
	}
	c.store(t, tok, h, subject, path, mask, allowed, detail)
}

// Insert stores a decision computed under the given token, bypassing
// admission. If the epoch has already moved on the insert is dropped:
// the decision's inputs may be stale, and a dead entry would only waste
// the slot. A denial may pass its audit detail, which LookupAt and
// PeekAt hand back on a hit; allows pass none.
func (c *Cache) Insert(tok Token, subject, path string, mask sys.Access, allowed bool, detail ...string) {
	if uint64(tok) != c.epoch.Load() {
		return
	}
	var d string
	if len(detail) > 0 {
		d = detail[0]
	}
	c.store(c.tab.Load(), tok, c.hash(subject, path, mask), subject, path, mask, allowed, d)
}

// store writes the entry into the key's slot of table t. The store that
// fills the table's growAt-th empty slot doubles it, below the cap.
func (c *Cache) store(t *table, tok Token, h uint64, subject, path string, mask sys.Access, allowed bool, detail string) {
	old := t.slots[h&t.mask].Swap(&entry{
		epoch:   uint64(tok),
		subject: subject,
		path:    path,
		mask:    mask,
		allowed: allowed,
		detail:  detail,
	})
	c.inserts.Add(1)
	if old == nil && len(t.slots) < c.cap && t.filled.Add(1) == t.growAt {
		c.grow(t)
	}
}

// grow publishes a table of twice t's size holding t's entries stamped
// with the current epoch. Entries of older epochs, which only a reader
// still on a retired snapshot could hit, are left behind. Slot i of t maps to slot i or
// i+len(t.slots) of the new table, so no two copied entries collide.
// Only one store per table reaches growAt, so grow never races itself;
// a store that lands in t after its slot was copied is lost.
func (c *Cache) grow(t *table) {
	next := newTable(2 * len(t.slots))
	cur := c.epoch.Load()
	var copied int64
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil && e.epoch == cur {
			next.slots[c.hash(e.subject, e.path, e.mask)&next.mask].Store(e)
			copied++
		}
	}
	next.filled.Store(copied)
	// Stores racing the copy can leave next at or past a quarter
	// full; its next fill then doubles it again.
	next.growAt = max(next.growAt, copied+1)
	c.tab.Store(next)
}

// Advance bumps the epoch and returns the new value. Writers publishing
// a decision snapshot call Advance first and embed the returned token in
// the snapshot, making the epoch bump and the snapshot swap one
// publication point: any reader that loads the new snapshot probes under
// the new epoch, and any reader still on the old snapshot cannot pollute
// the new generation (its Inserts carry the old token and are dropped).
func (c *Cache) Advance() Token {
	tok := Token(c.epoch.Add(1))
	c.invalidations.Add(1)
	return tok
}

// Epoch returns the current epoch value (introspection and tests).
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// Live counts the entries that would still be served at the current
// epoch — an O(size) scan for tests and metrics, not for the hot path.
func (c *Cache) Live() int {
	cur := c.epoch.Load()
	t := c.tab.Load()
	n := 0
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil && e.epoch == cur {
			n++
		}
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Inserts:       c.inserts.Load(),
		Invalidations: c.invalidations.Load(),
		Epoch:         c.epoch.Load(),
		Size:          len(c.tab.Load().slots),
	}
}
