package lsm

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sys"
	"repro/internal/vfs"
)

// writeDenier denies every write and allows everything else.
type writeDenier struct{ Base }

func (writeDenier) Name() string { return "write-denier" }

func (writeDenier) InodePermission(_ *sys.Cred, _ string, _ *vfs.Inode, mask sys.Access) error {
	if mask&sys.MayWrite != 0 {
		return sys.EACCES
	}
	return nil
}

// TestMetricsSampledCounts: every hook call and every denial is counted
// exactly, but only ceil(n/sampleEvery) of a shard's n calls are timed,
// and the latency statistics are taken over those samples.
func TestMetricsSampledCounts(t *testing.T) {
	s := NewStack()
	if err := s.Register(writeDenier{}); err != nil {
		t.Fatal(err)
	}
	cred := sys.NewCred(0, 0)
	const workers, perWorker = 4, 250 // 1,000 calls, 300 of them denied
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				mask := sys.MayRead
				if i%10 < 3 {
					mask = sys.MayWrite
				}
				s.InodePermission(cred, "/x", nil, mask)
			}
		}()
	}
	wg.Wait()

	snap := s.Metrics().Snapshot()
	if len(snap) != 1 || snap[0].Hook != HookInodePermission {
		t.Fatalf("snapshot = %+v, want inode_permission only", snap)
	}
	st := snap[0]
	if st.Calls != workers*perWorker || st.Denials != 300 {
		t.Fatalf("calls=%d denials=%d, want 1000 and 300", st.Calls, st.Denials)
	}
	// Each shard times ceil(calls/sampleEvery) of its own calls, all
	// into the hook's one histogram.
	var wantSamples uint64
	for i := range s.metrics.shards {
		calls := s.metrics.shards[i].hooks[HookInodePermission].calls.Load()
		wantSamples += (calls + sampleEvery - 1) / sampleEvery
	}
	if got := st.Samples(); got != wantSamples || got >= st.Calls {
		t.Errorf("Samples() = %d, want %d (fewer than %d calls)", got, wantSamples, st.Calls)
	}

	// The first call of a stream is always timed.
	one := NewStack()
	one.InodePermission(cred, "/x", nil, sys.MayRead)
	if st := one.Metrics().Snapshot()[0]; st.Samples() != 1 || st.Quantile(0.5) == 0 {
		t.Errorf("single call: samples=%d p50=%d, want a timed call", st.Samples(), st.Quantile(0.5))
	}

	// Averages and quantiles divide by the samples, not the calls.
	var hs HookStat
	hs.Calls = 1000
	hs.Buckets[7] = 16 // 16 samples in [64, 128) ns
	hs.TotalNs = 16 * 100
	if got := hs.AvgNs(); got != 100 {
		t.Errorf("AvgNs = %d, want 100", got)
	}
	if got := hs.Quantile(0.99); got != 128 {
		t.Errorf("p99 = %d, want 128", got)
	}
}

// appendAt calls l.Append from depth frames below its caller. Append
// picks its shard from a stack address, so the depth moves one
// goroutine's records between shards.
//
//go:noinline
func appendAt(l *AuditLog, r AuditRecord, depth int) {
	if depth > 0 {
		appendAt(l, r, depth-1)
		return
	}
	l.Append(r)
}

// TestAuditFlushZeroAllocs: once the ring is full and the pending and
// spare buffers have grown, a pending buffer's worth of Appends plus a
// Flush allocates nothing, and neither buffer keeps a reference to the
// records it handed over. The Appends alternate between two call depths
// whose records land in different shards, so every cut interleaves two
// runs and Flush must merge them; the ring still holds the records in
// capture order.
func TestAuditFlushZeroAllocs(t *testing.T) {
	const max = 128
	l := NewAuditLog(max)
	recs := make([]AuditRecord, DefaultPendingCap)
	for i := range recs {
		recs[i] = AuditRecord{
			Module: "sack", Op: "inode_permission", Subject: "/usr/bin/app",
			Object: fmt.Sprintf("/srv/app/secret%d", i), Action: "DENIED",
			Detail: "mask=read no allow rule in state normal",
		}
	}
	for i := 0; i < max; i++ {
		l.Append(recs[0])
	}
	depth, spread := 0, 0 // spread: shards holding records at the last cut
	cycle := func() {
		for i := range recs {
			appendAt(l, recs[i], i%2*depth)
		}
		spread = 0
		for i := range l.shards {
			if len(l.shards[i].pending) > 0 {
				spread++
			}
		}
		l.Flush()
	}
	// Find a second depth whose Appends land in another shard. Each probe
	// runs the cycle from the call site the measurement uses, so the
	// stack addresses are the measured ones.
	for depth = 1; depth < 64; depth++ {
		testing.AllocsPerRun(1, cycle)
		if spread == 2 {
			break
		}
	}
	if spread != 2 {
		t.Fatalf("no call depth below 64 moves Appends to a second shard")
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("%d Appends + Flush allocate %.2f objects, want 0", DefaultPendingCap, got)
	}
	if spread != 2 {
		t.Fatalf("measured cuts drained %d shards, want 2", spread)
	}
	if l.Len() != max || l.Dropped() == 0 {
		t.Fatalf("ring len=%d dropped=%d, want a full ring", l.Len(), l.Dropped())
	}
	for i, r := range l.Records() {
		if want := recs[i%len(recs)].Object; r.Object != want {
			t.Fatalf("ring[%d] = %s, want %s: records left capture order", i, r.Object, want)
		}
	}
	for i := range l.shards {
		s := &l.shards[i]
		for _, buf := range [][]pendingRec{s.pending, s.spare} {
			for _, p := range buf[:cap(buf)] {
				if p != (pendingRec{}) {
					t.Fatalf("shard %d buffer still references a drained record", i)
				}
			}
		}
	}
}
