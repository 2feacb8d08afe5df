package avc

import (
	"fmt"
	"sync"
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
	allowed, got, ok := c.LookupAt(tok, "s", "/p", sys.MayWrite)
	if !ok || allowed || got != detail {
		t.Fatalf("LookupAt = (%v,%q,%v), want cached deny with detail", allowed, got, ok)
	}
	if allowed, got, ok := c.PeekAt(tok, "s", "/p", sys.MayWrite); !ok || allowed || got != detail {
		t.Fatalf("PeekAt = (%v,%q,%v), want cached deny with detail", allowed, got, ok)
	}
	if allowed, got, ok := c.LookupAt(tok, "s", "/p", sys.MayRead); !ok || !allowed || got != "" {
		t.Fatalf("allow entry = (%v,%q,%v), want allow without detail", allowed, got, ok)
	}
	next := c.Advance()
	if _, _, ok := c.LookupAt(next, "s", "/p", sys.MayWrite); ok {
		t.Fatal("cached deny served across an epoch bump")
	}
}

func TestSizeRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, DefaultSize}, {0, DefaultSize}, {1, 1}, {3, 4}, {4096, 4096}, {5000, 8192},
	} {
		if got := New(tc.in).Stats().Size; got != tc.want {
			t.Errorf("New(%d).Size = %d, want %d", tc.in, got, tc.want)
		}
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
	if allowed, _, ok := c.LookupAt(newTok, "app", "/dev/vehicle/door0", sys.MayRead); !ok || !allowed {
		t.Fatalf("LookupAt(new) = (%v,%v), want hit allow", allowed, ok)
	}
	// A reader on the previous snapshot must not see the new entry.
	if _, _, ok := c.LookupAt(oldTok, "app", "/dev/vehicle/door0", sys.MayRead); ok {
		t.Fatal("LookupAt(old) hit an entry from the new generation")
	}
	// Its late insert carries the old token and is dropped.
	c.Insert(oldTok, "app", "/dev/vehicle/win0", sys.MayWrite, true)
	if _, _, ok := c.LookupAt(newTok, "app", "/dev/vehicle/win0", sys.MayWrite); ok {
		t.Fatal("stale-token insert became visible in the new generation")
	}
}
