package avc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sys"
)

func TestLookupMissThenHit(t *testing.T) {
	c := New(64)
	_, ok, tok := c.Lookup("/usr/bin/svc", "/dev/vehicle/door0", sys.MayRead)
	if ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(tok, "/usr/bin/svc", "/dev/vehicle/door0", sys.MayRead, true)
	allowed, ok, _ := c.Lookup("/usr/bin/svc", "/dev/vehicle/door0", sys.MayRead)
	if !ok || !allowed {
		t.Fatalf("after insert: allowed=%v ok=%v", allowed, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeyFieldsAllMatter(t *testing.T) {
	c := New(64)
	_, _, tok := c.Lookup("subj", "/p", sys.MayRead)
	c.Insert(tok, "subj", "/p", sys.MayRead, true)
	for _, probe := range []struct {
		subject, path string
		mask          sys.Access
	}{
		{"other", "/p", sys.MayRead},
		{"subj", "/q", sys.MayRead},
		{"subj", "/p", sys.MayWrite},
	} {
		if _, ok, _ := c.Lookup(probe.subject, probe.path, probe.mask); ok {
			t.Errorf("hit for wrong key %+v", probe)
		}
	}
}

func TestInvalidateOrphansEntries(t *testing.T) {
	c := New(64)
	_, _, tok := c.Lookup("s", "/p", sys.MayRead)
	c.Insert(tok, "s", "/p", sys.MayRead, true)
	if c.Live() != 1 {
		t.Fatalf("live = %d, want 1", c.Live())
	}
	c.Advance()
	if _, ok, _ := c.Lookup("s", "/p", sys.MayRead); ok {
		t.Fatal("stale entry served after Advance")
	}
	if c.Live() != 0 {
		t.Fatalf("live after invalidate = %d, want 0", c.Live())
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Epoch != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStaleTokenInsertDropped(t *testing.T) {
	c := New(64)
	_, _, tok := c.Lookup("s", "/p", sys.MayRead)
	c.Advance() // epoch moves between lookup and insert
	c.Insert(tok, "s", "/p", sys.MayRead, true)
	if c.Stats().Inserts != 0 {
		t.Fatal("insert with stale token was not dropped")
	}
	if _, ok, _ := c.Lookup("s", "/p", sys.MayRead); ok {
		t.Fatal("stale-token entry served")
	}
}

func TestCollisionEvicts(t *testing.T) {
	c := New(1) // every key collides in a 1-slot table
	_, _, tok := c.Lookup("a", "/a", sys.MayRead)
	c.Insert(tok, "a", "/a", sys.MayRead, true)
	c.Insert(tok, "b", "/b", sys.MayRead, false)
	if _, ok, _ := c.Lookup("a", "/a", sys.MayRead); ok {
		t.Fatal("evicted entry still served")
	}
	allowed, ok, _ := c.Lookup("b", "/b", sys.MayRead)
	if !ok || allowed {
		t.Fatalf("surviving entry: allowed=%v ok=%v", allowed, ok)
	}
}

func TestDeniedDecisionsRoundTrip(t *testing.T) {
	// A denial is cached with its audit detail; both come back on a hit
	// until the epoch moves, and an allow carries no detail.
	c := New(64)
	_, _, tok := c.Lookup("s", "/p", sys.MayWrite)
	const detail = `mask=write rule "deny write /p" in state normal`
	c.Insert(tok, "s", "/p", sys.MayWrite, false, detail)
	c.Insert(tok, "s", "/p", sys.MayRead, true)
	allowed, got, ok, _ := c.LookupAt(tok, "s", "/p", sys.MayWrite)
	if !ok || allowed || got != detail {
		t.Fatalf("LookupAt = (%v,%q,%v), want cached deny with detail", allowed, got, ok)
	}
	if allowed, got, ok := c.PeekAt(tok, "s", "/p", sys.MayWrite); !ok || allowed || got != detail {
		t.Fatalf("PeekAt = (%v,%q,%v), want cached deny with detail", allowed, got, ok)
	}
	if allowed, got, ok, _ := c.LookupAt(tok, "s", "/p", sys.MayRead); !ok || !allowed || got != "" {
		t.Fatalf("allow entry = (%v,%q,%v), want allow without detail", allowed, got, ok)
	}
	next := c.Advance()
	if _, _, ok, _ := c.LookupAt(next, "s", "/p", sys.MayWrite); ok {
		t.Fatal("cached deny served across an epoch bump")
	}
}

// filledSlots counts t's non-empty slots.
func filledSlots(t *table) int {
	n := 0
	for i := range t.slots {
		if t.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestSizeRoundsUpToPowerOfTwo pins the size semantics: New's n,
// rounded up to a power of two, is the cap; every cache starts at
// min(cap, 64) slots; a table doubles on exactly the store that fills a
// quarter of its slots, and never past the cap.
func TestSizeRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, start, cap int }{
		{-1, 64, DefaultSize}, {0, 64, DefaultSize}, {1, 1, 1}, {3, 4, 4},
		{100, 64, 128}, {4096, 64, 4096}, {5000, 64, 8192},
	} {
		c := New(tc.in)
		if got := c.Stats().Size; got != tc.start || c.cap != tc.cap {
			t.Errorf("New(%d): size %d, cap %d; want %d, %d", tc.in, got, c.cap, tc.start, tc.cap)
			continue
		}
		tok := Token(c.Epoch())
		for k := 0; k < 4*tc.cap && c.Stats().Size < tc.cap; k++ {
			cur := c.tab.Load()
			c.Insert(tok, "s", fmt.Sprintf("/p%d", k), sys.MayRead, true)
			quarter := len(cur.slots) / 4
			if next := c.tab.Load(); next != cur {
				if len(next.slots) != 2*len(cur.slots) || filledSlots(cur) != quarter {
					t.Fatalf("New(%d): %d slots with %d filled became %d slots, want %d at %d filled",
						tc.in, len(cur.slots), filledSlots(cur), len(next.slots), 2*len(cur.slots), quarter)
				}
			} else if len(cur.slots) < tc.cap && filledSlots(cur) >= quarter {
				t.Fatalf("New(%d): %d slots with %d filled did not double", tc.in, len(cur.slots), filledSlots(cur))
			}
		}
		if got := c.Stats().Size; got != tc.cap {
			t.Errorf("New(%d) after %d distinct keys: size %d, want the cap %d", tc.in, 4*tc.cap, got, tc.cap)
		}
		// At the cap every further fill leaves the table alone.
		for k := 0; k < tc.cap; k++ {
			c.Insert(tok, "s", fmt.Sprintf("/q%d", k), sys.MayRead, true)
		}
		if got := c.Stats().Size; got != tc.cap {
			t.Errorf("New(%d) grew past its cap: size %d, cap %d", tc.in, got, tc.cap)
		}
	}

	// A 1k-key working set, vehicle-steady's, grows the default cache to
	// its cap.
	c := New(0)
	tok := Token(c.Epoch())
	for k := 0; k < 1024; k++ {
		c.Insert(tok, "s", fmt.Sprintf("/k%d", k), sys.MayRead, true)
	}
	if got := c.Stats().Size; got != DefaultSize {
		t.Errorf("1,024 distinct allowed keys: size %d, want %d", got, DefaultSize)
	}
}

// TestGrowthCopiesCurrentEpochOnly: across a doubling, every entry
// stamped with the current epoch that was served before it is served
// after it, from its re-indexed slot, while an entry of an earlier
// epoch, still served to a reader holding that epoch's token before the
// doubling, is left behind.
func TestGrowthCopiesCurrentEpochOnly(t *testing.T) {
	const mask = sys.MayRead | sys.MayWrite
	key := func(prefix string, k int) string { return fmt.Sprintf("%s%d", prefix, k) }
	c := New(0)
	old := Token(c.Epoch())
	for k := 0; k < 8; k++ {
		c.Insert(old, "s", key("/old", k), mask, false, "old")
	}
	tok := c.Advance()
	// hitting lists the keys prefix0..prefix(n-1) served under tok.
	hitting := func(tok Token, prefix string, n int) []int {
		var out []int
		for k := 0; k < n; k++ {
			if _, _, ok := c.PeekAt(tok, "s", key(prefix, k), mask); ok {
				out = append(out, k)
			}
		}
		return out
	}
	for k := 0; ; k++ {
		before := c.tab.Load()
		if k > 64 {
			t.Fatalf("%d distinct keys never doubled the table", k)
		}
		stale, current := hitting(old, "/old", 8), hitting(tok, "/new", k)
		c.Insert(tok, "s", key("/new", k), mask, k%2 == 0)
		after := c.tab.Load()
		if after == before {
			continue
		}
		if len(stale) == 0 {
			t.Fatal("no entry of the earlier epoch survived to the doubling; the test checks nothing")
		}
		if got := hitting(old, "/old", 8); len(got) != 0 {
			t.Errorf("entries of the earlier epoch copied across the doubling: %v", got)
		}
		for _, k := range current {
			if allowed, _, ok := c.PeekAt(tok, "s", key("/new", k), mask); !ok || allowed != (k%2 == 0) {
				t.Errorf("/new%d after the doubling: (%v,%v), want a hit with its own verdict", k, allowed, ok)
			}
		}
		if n := filledSlots(after); n != c.Live() || n != len(current)+1 {
			t.Errorf("doubled table holds %d entries, %d live, want the %d current ones and the triggering one",
				n, c.Live(), len(current))
		}
		return
	}
}

// TestConcurrentGrowth races stores that double the table several times
// against Advance and probes. Run under -race it proves a doubling is
// published race-free; every hit must carry its own key's verdict and a
// detail naming the prober's token, so a copy can neither serve a key
// another key's entry nor carry an entry across an Advance.
func TestConcurrentGrowth(t *testing.T) {
	c := New(0)
	paths := make([]string, 2048)
	for i := range paths {
		paths[i] = fmt.Sprintf("/srv/g%d", i)
	}
	var ops atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each key is probed twice running, so the second probe hits
			// unless an Advance or a doubling came between.
			for i := 0; i < 2*len(paths); i++ {
				k := (i/2 + g*len(paths)/4) % len(paths)
				p, allowed := paths[k], k%3 != 0
				tok := Token(c.Epoch())
				want := fmt.Sprintf("%s@%d", p, tok)
				got, detail, ok, _ := c.LookupAt(tok, "s", p, sys.MayRead)
				if ok && (got != allowed || detail != want) {
					t.Errorf("%s under token %d served (%v,%q), want (%v,%q)", p, tok, got, detail, allowed, want)
					return
				}
				if !ok {
					c.Insert(tok, "s", p, sys.MayRead, allowed, want)
				}
				ops.Add(1)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Advance once per 64 checks, for as long as the checkers run.
	for next, advancing := int64(64), true; advancing; {
		select {
		case <-done:
			advancing = false
		default:
			if ops.Load() >= next {
				c.Advance()
				next += 64
			}
			runtime.Gosched()
		}
	}
	if st := c.Stats(); st.Size < 8*startSize || st.Hits == 0 || st.Invalidations < 16 {
		t.Fatalf("the race crossed fewer than three doublings, never hit or seldom advanced: %+v", st)
	}
}

func TestHitRate(t *testing.T) {
	c := New(16)
	if r := c.Stats().HitRate(); r != 0 {
		t.Fatalf("empty hit rate = %v", r)
	}
	_, _, tok := c.Lookup("s", "/p", sys.MayRead) // miss
	c.Insert(tok, "s", "/p", sys.MayRead, true)
	c.Lookup("s", "/p", sys.MayRead) // hit
	if r := c.Stats().HitRate(); r != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", r)
	}
}

// TestConcurrentLookupInsertInvalidate hammers every operation from many
// goroutines; run under -race it proves the table is data-race free and
// that no goroutine ever observes a hit stamped with a stale epoch.
func TestConcurrentLookupInsertInvalidate(t *testing.T) {
	c := New(128)
	paths := make([]string, 32)
	for i := range paths {
		paths[i] = fmt.Sprintf("/dev/vehicle/dev%d", i)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := paths[(i+g)%len(paths)]
				allowed, ok, tok := c.Lookup("subj", p, sys.MayRead)
				if ok && !allowed {
					t.Error("cached deny appeared; only allows are inserted")
					return
				}
				if !ok {
					c.Insert(tok, "subj", p, sys.MayRead, true)
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		c.Advance()
	}
	close(stop)
	wg.Wait()
	if got := c.Stats().Invalidations; got != 200 {
		t.Fatalf("invalidations = %d, want 200", got)
	}
}

// TestAdvanceReturnsNewEpoch pins the snapshot-embedding contract: the
// token Advance returns is the epoch readers of the new snapshot will
// probe under.
func TestAdvanceReturnsNewEpoch(t *testing.T) {
	c := New(16)
	before := c.Epoch()
	tok := c.Advance()
	if uint64(tok) != before+1 || c.Epoch() != uint64(tok) {
		t.Fatalf("Advance() = %d after epoch %d, current %d", tok, before, c.Epoch())
	}
}

// TestLookupAtSnapshotProtocol simulates the fast path: a writer
// advances the epoch and "publishes" the token; readers holding the new
// token hit entries inserted under it, while a reader still holding the
// old token misses (its generation is dead) and its late insert is
// dropped.
func TestLookupAtSnapshotProtocol(t *testing.T) {
	c := New(16)
	oldTok := Token(c.Epoch())
	newTok := c.Advance()

	c.Insert(newTok, "app", "/dev/vehicle/door0", sys.MayRead, true)
	if allowed, _, ok, _ := c.LookupAt(newTok, "app", "/dev/vehicle/door0", sys.MayRead); !ok || !allowed {
		t.Fatalf("LookupAt(new) = (%v,%v), want hit allow", allowed, ok)
	}
	// A reader on the previous snapshot must not see the new entry.
	if _, _, ok, _ := c.LookupAt(oldTok, "app", "/dev/vehicle/door0", sys.MayRead); ok {
		t.Fatal("LookupAt(old) hit an entry from the new generation")
	}
	// Its late insert carries the old token and is dropped.
	c.Insert(oldTok, "app", "/dev/vehicle/win0", sys.MayWrite, true)
	if _, _, ok, _ := c.LookupAt(newTok, "app", "/dev/vehicle/win0", sys.MayWrite); ok {
		t.Fatal("stale-token insert became visible in the new generation")
	}
}

// miss runs the enforcement protocol for one check that misses: probe
// under tok, then admit the decision with the probe's hash. It returns
// whether the probe hit.
func miss(c *Cache, tok Token, subject, path string, mask sys.Access, allowed bool, detail string) bool {
	_, _, ok, h := c.LookupAt(tok, subject, path, mask)
	if !ok {
		c.Admit(tok, h, subject, path, mask, allowed, detail)
	}
	return ok
}

func TestAdmitDenialOnSecondMiss(t *testing.T) {
	c := New(64)
	tok := Token(c.Epoch())
	const detail = `mask=write no allow rule in state normal`
	if miss(c, tok, "s", "/p", sys.MayWrite, false, detail) {
		t.Fatal("hit on empty cache")
	}
	if st := c.Stats(); st.Misses != 1 || st.Inserts != 0 {
		t.Fatalf("after the first miss: %+v, want 1 miss and nothing stored", st)
	}
	if miss(c, tok, "s", "/p", sys.MayWrite, false, detail) {
		t.Fatal("a denial seen once was served from the cache")
	}
	if st := c.Stats(); st.Misses != 2 || st.Inserts != 1 {
		t.Fatalf("after the second miss: %+v, want 2 misses and 1 insert", st)
	}
	allowed, got, ok, _ := c.LookupAt(tok, "s", "/p", sys.MayWrite)
	if !ok || allowed || got != detail {
		t.Fatalf("third touch = (%v,%q,%v), want cached deny with detail", allowed, got, ok)
	}
}

func TestAdmitAllowOnFirstMiss(t *testing.T) {
	c := New(64)
	tok := Token(c.Epoch())
	miss(c, tok, "s", "/p", sys.MayRead, true, "")
	if st := c.Stats(); st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v, want 1 miss and 1 insert", st)
	}
	if allowed, _, ok, _ := c.LookupAt(tok, "s", "/p", sys.MayRead); !ok || !allowed {
		t.Fatalf("second touch = (%v,%v), want cached allow", allowed, ok)
	}
}

// TestAdmitForgetsAcrossAdvance: the doorkeeper's fingerprints mix in
// the token, so a miss before Advance is no evidence for a miss after.
func TestAdmitForgetsAcrossAdvance(t *testing.T) {
	c := New(64)
	miss(c, Token(c.Epoch()), "s", "/p", sys.MayWrite, false, "")
	tok := c.Advance()
	miss(c, tok, "s", "/p", sys.MayWrite, false, "")
	if st := c.Stats(); st.Inserts != 0 {
		t.Fatalf("a miss in the previous epoch admitted the denial: %+v", st)
	}
	miss(c, tok, "s", "/p", sys.MayWrite, false, "")
	if st := c.Stats(); st.Inserts != 1 {
		t.Fatalf("second miss in the new epoch not admitted: %+v", st)
	}
}

func TestAdmitStaleTokenDropped(t *testing.T) {
	c := New(64)
	old := Token(c.Epoch())
	_, _, _, hAllow := c.LookupAt(old, "s", "/a", sys.MayRead)
	_, _, _, hDeny := c.LookupAt(old, "s", "/d", sys.MayWrite)
	c.Admit(old, hDeny, "s", "/d", sys.MayWrite, false, "")
	c.Advance() // epoch moves between the probes and the admits
	c.Admit(old, hAllow, "s", "/a", sys.MayRead, true, "")
	c.Admit(old, hDeny, "s", "/d", sys.MayWrite, false, "")
	if st := c.Stats(); st.Inserts != 0 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 3 misses and nothing stored", st)
	}
	if c.Live() != 0 {
		t.Fatalf("live = %d, want 0", c.Live())
	}
}

// TestAdmitFingerprintCollision forces a doorkeeper collision: key b is
// admitted with key a's hash, so a's fingerprint admits b on b's first
// miss. The entry stored is b's exact key, so a never sees b's verdict.
func TestAdmitFingerprintCollision(t *testing.T) {
	c := New(64)
	tok := Token(c.Epoch())
	_, _, _, ha := c.LookupAt(tok, "a", "/a", sys.MayWrite)
	c.Admit(tok, ha, "a", "/a", sys.MayWrite, false, "a's detail")
	c.Admit(tok, ha, "b", "/b", sys.MayRead, false, "b's detail")
	if st := c.Stats(); st.Inserts != 1 {
		t.Fatalf("stats = %+v, want the colliding denial admitted", st)
	}
	tab := c.tab.Load()
	e := tab.slots[ha&tab.mask].Load()
	if e == nil || e.subject != "b" || e.path != "/b" || e.mask != sys.MayRead || e.detail != "b's detail" {
		t.Fatalf("stored entry = %+v, want exactly b's key and detail", e)
	}
	if _, _, ok, _ := c.LookupAt(tok, "a", "/a", sys.MayWrite); ok {
		t.Fatal("a was served b's verdict")
	}
}

// TestConcurrentAdmit races the probe/admit protocol on shared
// doorkeeper words against epoch bumps; run under -race it proves the
// doorkeeper is data-race free, and every hit must carry its own key's
// verdict and detail, so no admission race serves another key's entry.
func TestConcurrentAdmit(t *testing.T) {
	c := New(64) // one doorkeeper word: every denial shares it
	paths := make([]string, 16)
	for i := range paths {
		paths[i] = fmt.Sprintf("/srv/p%d", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				k := (i + g) % len(paths)
				p, allowed := paths[k], k%2 == 0
				tok := Token(c.Epoch())
				got, detail, ok, h := c.LookupAt(tok, "s", p, sys.MayWrite)
				if ok && (got != allowed || (!allowed && detail != p)) {
					t.Errorf("%s served (%v,%q), want (%v,%q)", p, got, detail, allowed, p)
					return
				}
				if !ok {
					d := ""
					if !allowed {
						d = p
					}
					c.Admit(tok, h, "s", p, sys.MayWrite, allowed, d)
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		c.Advance()
		runtime.Gosched()
	}
	wg.Wait()
	if st := c.Stats(); st.Inserts == 0 || st.Hits == 0 {
		t.Fatalf("the race never stored or served an entry: %+v", st)
	}
}
