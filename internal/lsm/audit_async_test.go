package lsm

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestSeqAssignedAtInsertion is the satellite-4 ordering-bug-class
// test: with async emission, sequence numbers must be minted at ring
// insertion, be dense (1..emitted with no gaps), and unique — the
// properties fleet upload dedupe-by-sequence depends on. Concurrent
// appenders racing against concurrent flushes must not be able to
// produce a duplicate or a hole.
func TestSeqAssignedAtInsertion(t *testing.T) {
	l := NewAuditLog(100000)
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Append(AuditRecord{
					Module:  "sack",
					Op:      "inode_permission",
					Subject: fmt.Sprintf("task%d", g),
					Detail:  fmt.Sprintf("i%d", i),
				})
				if i%50 == 0 {
					l.Flush() // interleave drains with captures
				}
			}
		}(g)
	}
	wg.Wait()

	recs := l.Records()
	if len(recs) != goroutines*perG {
		t.Fatalf("retained %d records, want %d", len(recs), goroutines*perG)
	}
	if l.Emitted() != goroutines*perG {
		t.Fatalf("emitted %d, want %d", l.Emitted(), goroutines*perG)
	}
	seen := make(map[uint64]bool, len(recs))
	for i, r := range recs {
		if r.Seq == 0 {
			t.Fatalf("record %d has no sequence", i)
		}
		if seen[r.Seq] {
			t.Fatalf("duplicate sequence %d", r.Seq)
		}
		seen[r.Seq] = true
		if i > 0 && recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("ring order not dense: seq %d follows %d", recs[i].Seq, recs[i-1].Seq)
		}
	}
}

// TestPerGoroutineOrderPreserved: Flush's all-shards atomic cut plus the
// capture-order sort must keep each goroutine's records in the order it
// emitted them, even though consecutive records may land in different
// pending shards.
func TestPerGoroutineOrderPreserved(t *testing.T) {
	l := NewAuditLog(100000)
	const goroutines, perG = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Append(AuditRecord{Subject: fmt.Sprintf("g%d", g), Detail: fmt.Sprintf("%06d", i)})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { // concurrent drains trying to tear the cut
		for {
			select {
			case <-done:
				return
			default:
				l.Flush()
			}
		}
	}()
	wg.Wait()
	close(done)

	last := make(map[string]string)
	for _, r := range l.Records() {
		if prev, ok := last[r.Subject]; ok && r.Detail <= prev {
			t.Fatalf("goroutine %s order inverted: %s inserted after %s", r.Subject, r.Detail, prev)
		}
		last[r.Subject] = r.Detail
	}
}

// TestDedupeBySequenceUnderAsync simulates the fleet uploader: drain
// through Since while concurrent hooks append, dedupe by sequence, and
// require exactly-once delivery with an exact uploaded+missed==emitted
// ledger at the end.
func TestDedupeBySequenceUnderAsync(t *testing.T) {
	l := NewAuditLog(256) // small ring so overwrites (missed) happen too
	const total = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			l.Append(AuditRecord{Detail: fmt.Sprintf("%d", i)})
		}
	}()

	seen := make(map[uint64]bool)
	var uploaded, missed uint64
	var cursor uint64
	drain := func() {
		recs, next, m := l.Since(cursor)
		for _, r := range recs {
			if seen[r.Seq] {
				t.Errorf("sequence %d delivered twice", r.Seq)
			}
			seen[r.Seq] = true
		}
		uploaded += uint64(len(recs))
		missed += m
		cursor = next
	}
	for i := 0; i < 50; i++ {
		drain()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	drain() // final drain after all appends landed

	if got := uploaded + missed; got != l.Emitted() || l.Emitted() != total {
		t.Fatalf("ledger: uploaded(%d)+missed(%d)=%d, emitted=%d, want %d",
			uploaded, missed, uploaded+missed, l.Emitted(), total)
	}
}

// TestShardOverflowFlushesInline: appending far past the pending-shard
// capacity without ever reading must not lose records — full shards
// drain themselves.
func TestShardOverflowFlushesInline(t *testing.T) {
	l := NewAuditLog(100000)
	const n = DefaultPendingCap * 10
	for i := 0; i < n; i++ {
		l.Append(AuditRecord{Detail: "x"})
	}
	l.mu.Lock() // bypass flush-on-read: count what reached the ring unprompted
	inRing := l.n
	l.mu.Unlock()
	if inRing < n-DefaultPendingCap {
		t.Fatalf("only %d of %d records reached the ring; overflow did not flush", inRing, n)
	}
}

// TestPendingCapTriggersInlineFlush: the Append that fills a shard to
// DefaultPendingCap flushes it at once, so no shard ever holds a full
// buffer and records reach the ring without any read: after more
// Appends than every shard can hold one short of the cap, some record
// must be in the ring.
func TestPendingCapTriggersInlineFlush(t *testing.T) {
	l := NewAuditLog(100000)
	n := len(l.shards)*(DefaultPendingCap-1) + 1
	for i := 1; i <= n; i++ {
		l.Append(AuditRecord{Detail: "z"})
		pending := 0
		for j := range l.shards {
			s := &l.shards[j]
			s.mu.Lock()
			if len(s.pending) >= DefaultPendingCap {
				t.Fatalf("append %d: shard %d holds %d records, cap %d", i, j, len(s.pending), DefaultPendingCap)
			}
			pending += len(s.pending)
			s.mu.Unlock()
		}
		l.mu.Lock() // bypass flush-on-read: count what reached the ring unprompted
		inRing := l.n
		l.mu.Unlock()
		if inRing+pending != i {
			t.Fatalf("append %d: %d in ring + %d pending", i, inRing, pending)
		}
		if i == n && inRing == 0 {
			t.Fatalf("no record reached the ring after %d appends", n)
		}
	}
}

// TestClearDropsPending: Clear must account pending records in the
// dropped ledger, not leak them.
func TestClearDropsPending(t *testing.T) {
	l := NewAuditLog(100)
	for i := 0; i < 7; i++ {
		l.Append(AuditRecord{})
	}
	l.Clear()
	if l.Dropped() != 7 || l.Len() != 0 {
		t.Fatalf("after Clear: dropped=%d len=%d, want 7, 0", l.Dropped(), l.Len())
	}
	if l.Emitted() != 7 {
		t.Fatalf("emitted=%d, want 7 (sequence space keeps going)", l.Emitted())
	}
}

// TestRegisterAfterFreeze: satellite 1 — registration after boot is an
// explicit error, not a silent data race.
func TestRegisterAfterFreeze(t *testing.T) {
	s := NewStack()
	if err := s.Register(nullModule{"first"}); err != nil {
		t.Fatalf("pre-freeze Register: %v", err)
	}
	s.Freeze()
	if !s.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	if err := s.Register(nullModule{"late"}); err != ErrStackFrozen {
		t.Fatalf("post-freeze Register = %v, want ErrStackFrozen", err)
	}
	if got := s.Modules(); len(got) != 1 || got[0] != "first" {
		t.Fatalf("modules = %v, want [first]", got)
	}
}

type nullModule struct{ name string }

func (m nullModule) Name() string { return m.name }

// TestAuditMergeOrderUnderConcurrentSince: writers append from several
// call depths, so each one's records spread over several shards, while
// an exporter drains through Since and the small ring overwrites. Every
// Flush merges the shards' runs, so what the exporter reads must be in
// each writer's append order, each sequence exactly once, and the
// ledgers exact: read + missed == emitted == retained + dropped.
func TestAuditMergeOrderUnderConcurrentSince(t *testing.T) {
	l := NewAuditLog(512)
	const writers, perW = 4, 3000
	depths := []int{0, 3, 7, 12}
	spread := make([]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Count the shards this writer's depths reach, through a
			// private log nobody flushes.
			probe := NewAuditLog(0)
			for _, d := range depths {
				appendAt(probe, AuditRecord{}, d)
			}
			for i := range probe.shards {
				if len(probe.shards[i].pending) > 0 {
					spread[w]++
				}
			}
			for i := 0; i < perW; i++ {
				appendAt(l, AuditRecord{Subject: fmt.Sprintf("w%d", w), Detail: fmt.Sprintf("%06d", i)},
					depths[i%len(depths)])
			}
		}(w)
	}
	done := make(chan struct{})
	var read []AuditRecord
	var missed, cursor uint64
	exported := make(chan struct{})
	unsorted := 0 // pending runs seen out of capture order
	go func() {
		defer close(exported)
		drain := func() {
			for i := range l.shards {
				s := &l.shards[i]
				s.mu.Lock()
				for j := 1; j < len(s.pending); j++ {
					if s.pending[j].order < s.pending[j-1].order {
						unsorted++
					}
				}
				s.mu.Unlock()
			}
			recs, next, m := l.Since(cursor)
			read = append(read, recs...)
			missed += m
			cursor = next
		}
		for {
			select {
			case <-done:
				drain()
				return
			default:
				drain()
			}
		}
	}()
	wg.Wait()
	close(done)
	<-exported

	if unsorted > 0 {
		t.Fatalf("%d pending records sat behind a later capture token: a shard's run is not sorted", unsorted)
	}
	if slices.Max(spread) < 2 {
		t.Fatalf("writers' depths reached %v shards; want records spread over several", spread)
	}
	last := make(map[string]string)
	for i, r := range read {
		if i > 0 && r.Seq <= read[i-1].Seq {
			t.Fatalf("sequence %d read after %d", r.Seq, read[i-1].Seq)
		}
		if prev, ok := last[r.Subject]; ok && r.Detail <= prev {
			t.Fatalf("writer %s order inverted: %s after %s", r.Subject, r.Detail, prev)
		}
		last[r.Subject] = r.Detail
	}
	emitted := l.Emitted()
	if emitted != writers*perW {
		t.Fatalf("emitted %d, want %d", emitted, writers*perW)
	}
	if got := uint64(len(read)) + missed; got != emitted {
		t.Fatalf("read %d + missed %d = %d, want emitted %d", len(read), missed, got, emitted)
	}
	if got := uint64(l.Len()) + l.Dropped(); got != emitted {
		t.Fatalf("retained %d + dropped %d = %d, want emitted %d", l.Len(), l.Dropped(), got, emitted)
	}
}
