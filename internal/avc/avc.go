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
// LookupAt: the caller records it with Miss once the key proves to be
// one it would cache, so a pass-through probe under a
// covered first segment never dilutes the hit ratio.
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
// The table is a fixed-size, direct-mapped array of atomic entry
// pointers. Both Lookup and Insert are lock-free and allocation-free on
// the probe; an insert that loses a race simply overwrites (the cache is
// advisory — a lost entry costs one re-evaluation, never correctness).
// A key's slot comes from hash/maphash — the runtime's AES-accelerated
// string hash — under a seed drawn per cache, so an unprivileged task
// cannot choose paths that land on a victim's slots.
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
package avc

import (
	"hash/maphash"
	"sync/atomic"

	"repro/internal/shard"
	"repro/internal/sys"
)

// DefaultSize is the slot count used when New is given n <= 0.
const DefaultSize = 4096

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
	Inserts       uint64 // decisions written into the table
	Invalidations uint64 // epoch bumps (transitions + policy reloads)
	Epoch         uint64 // current epoch value
	Size          int    // slot count
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
	slots []atomic.Pointer[entry]
	mask  uint64 // len(slots)-1, slots is a power of two
	seed  maphash.Seed

	hits          shard.Counter
	misses        shard.Counter
	inserts       shard.Counter
	invalidations atomic.Uint64
}

// New creates a cache with at least n slots, rounded up to a power of
// two. n <= 0 selects DefaultSize.
func New(n int) *Cache {
	if n <= 0 {
		n = DefaultSize
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Cache{
		slots:   make([]atomic.Pointer[entry], size),
		mask:    uint64(size - 1),
		seed:    maphash.MakeSeed(),
		hits:    shard.NewCounter(),
		misses:  shard.NewCounter(),
		inserts: shard.NewCounter(),
	}
}

// index hashes the key into a slot: one seeded maphash per string,
// mixed with the mask. Direct-mapped: colliding keys evict each other,
// which bounds memory and keeps probes O(1).
func (c *Cache) index(subject, path string, mask sys.Access) uint64 {
	h := maphash.String(c.seed, path)
	h ^= maphash.String(c.seed, subject) * 0x9E3779B97F4A7C15
	h ^= uint64(mask) * 0xC2B2AE3D27D4EB4F
	return h & c.mask
}

// Lookup probes the cache. It loads the current epoch *first* and
// returns it as the token for a subsequent Insert; callers must read the
// policy state they evaluate against only after calling Lookup. On a hit
// the cached allowed verdict is returned with ok=true; a miss is
// counted here.
func (c *Cache) Lookup(subject, path string, mask sys.Access) (allowed, ok bool, tok Token) {
	tok = Token(c.epoch.Load())
	if allowed, _, ok = c.LookupAt(tok, subject, path, mask); !ok {
		c.Miss()
	}
	return allowed, ok, tok
}

// LookupAt probes the cache under a caller-provided token — the fast
// path passes the epoch embedded in the decision snapshot it loaded, so
// the rule set and the cache generation it probes are guaranteed to
// describe the same published policy state. On a hit it returns the
// cached verdict, the detail stored with it, and ok=true, and counts the
// hit. A miss is not counted: the caller calls Miss once the key proves
// to be one it caches, so probing ahead of its coverage check costs the
// hit ratio nothing.
func (c *Cache) LookupAt(tok Token, subject, path string, mask sys.Access) (allowed bool, detail string, ok bool) {
	if e := c.probe(tok, subject, path, mask); e != nil {
		c.hits.Add(1)
		return e.allowed, e.detail, true
	}
	return false, "", false
}

// Miss counts one lookup that fell through to full evaluation.
func (c *Cache) Miss() { c.misses.Add(1) }

// PeekAt answers the same question as LookupAt without touching the
// hit/miss counters. Introspection queries (sack's Decision API) use it
// so asking "would this be served from the cache?" never skews the
// hit-rate statistics the experiments report.
func (c *Cache) PeekAt(tok Token, subject, path string, mask sys.Access) (allowed bool, detail string, ok bool) {
	if e := c.probe(tok, subject, path, mask); e != nil {
		return e.allowed, e.detail, true
	}
	return false, "", false
}

// probe returns the entry for the key if it was stamped with tok.
func (c *Cache) probe(tok Token, subject, path string, mask sys.Access) *entry {
	e := c.slots[c.index(subject, path, mask)].Load()
	if e != nil && e.epoch == uint64(tok) && e.mask == mask &&
		e.path == path && e.subject == subject {
		return e
	}
	return nil
}

// Insert stores a decision computed under the given token. If the epoch
// has already moved on the insert is dropped: the decision's inputs may
// be stale, and a dead entry would only waste the slot. A denial may
// pass its audit detail, which LookupAt and PeekAt hand back on a hit;
// allows pass none.
func (c *Cache) Insert(tok Token, subject, path string, mask sys.Access, allowed bool, detail ...string) {
	if uint64(tok) != c.epoch.Load() {
		return
	}
	e := &entry{
		epoch:   uint64(tok),
		subject: subject,
		path:    path,
		mask:    mask,
		allowed: allowed,
	}
	if len(detail) > 0 {
		e.detail = detail[0]
	}
	c.slots[c.index(subject, path, mask)].Store(e)
	c.inserts.Add(1)
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
	n := 0
	for i := range c.slots {
		if e := c.slots[i].Load(); e != nil && e.epoch == cur {
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
		Size:          len(c.slots),
	}
}
