package lsm

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/shard"
)

// HookID identifies one LSM hook for metrics attribution.
type HookID int

// Hook identifiers, in the order the Module interface used to declare
// them. NumHooks bounds the metrics arrays.
const (
	HookTaskAlloc HookID = iota
	HookBprmCheck
	HookCapable
	HookInodePermission
	HookInodeCreate
	HookInodeUnlink
	HookInodeGetattr
	HookFileOpen
	HookFilePermission
	HookFileIoctl
	HookMmapFile
	HookSocketCreate
	HookSocketConnect
	HookSocketSendmsg
	NumHooks
)

var hookNames = [NumHooks]string{
	"task_alloc",
	"bprm_check",
	"capable",
	"inode_permission",
	"inode_create",
	"inode_unlink",
	"inode_getattr",
	"file_open",
	"file_permission",
	"file_ioctl",
	"mmap_file",
	"socket_create",
	"socket_connect",
	"socket_sendmsg",
}

// String names the hook like the kernel's security_* entry points.
func (h HookID) String() string {
	if h < 0 || h >= NumHooks {
		return fmt.Sprintf("hook(%d)", int(h))
	}
	return hookNames[h]
}

// latencyBuckets is the histogram resolution: bucket i counts samples
// with latency < 2^i ns, the last bucket absorbing everything slower
// (2^27 ns ≈ 134 ms, far beyond any simulated hook).
const latencyBuckets = 28

// hookMetrics is one slot's count of one hook's calls and denials. All
// fields are atomics so the hot path never takes a lock.
type hookMetrics struct {
	calls   atomic.Uint64
	denials atomic.Uint64
	hist    *histogram // the hook's one histogram, shared by every slot
}

// histogram holds one hook's sampled latencies. Only one call in
// sampleEvery reaches it, so a single copy per hook serves every slot.
type histogram struct {
	totalNs atomic.Uint64
	buckets [latencyBuckets]atomic.Uint64
}

// metricsShard is one slot's private copy of every hook's call and
// denial counters. Concurrent hooks on different slots update disjoint
// shards, so the counter cache lines stop bouncing between CPUs;
// Snapshot folds the shards, and because every call lands in exactly
// one shard the folded totals are exact. Sampling is per shard too:
// each shard's call counter picks its own sampled calls.
type metricsShard struct {
	hooks [NumHooks]hookMetrics
}

// Metrics aggregates per-hook call counts, denial counts, and sampled
// latency histograms for one Stack — the observability layer behind
// /sys/kernel/security/sack/metrics. Counts are exact; latencies are
// timed on one call in sampleEvery.
type Metrics struct {
	shards []metricsShard
	hists  [NumHooks]histogram
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	m := &Metrics{shards: make([]metricsShard, shard.Slots())}
	for i := range m.shards {
		for h := range m.shards[i].hooks {
			m.shards[i].hooks[h].hist = &m.hists[h]
		}
	}
	return m
}

// bucketFor maps a latency to its histogram bucket: index of the highest
// set bit, clamped to the last bucket.
func bucketFor(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	return b
}

// sampleEvery is the hook-timing sample period. Every call is counted,
// but only one call in sampleEvery, per hook and per shard, reads the
// clock. The first call of each stream is sampled, so a hook called once
// still records a latency.
const sampleEvery = 64

// begin counts one call of hook h and returns the shard counters to hand
// to end, with the start time on a sampled call and the zero Time
// otherwise.
func (m *Metrics) begin(h HookID) (*hookMetrics, time.Time) {
	hm := &m.shards[shard.Slot()].hooks[h]
	if (hm.calls.Add(1)-1)%sampleEvery != 0 {
		return hm, time.Time{}
	}
	return hm, time.Now()
}

// end completes a call begun with begin: if the call was sampled it
// records its latency, then it counts a denial, outside the timed span.
func (hm *hookMetrics) end(start time.Time, denied bool) {
	if !start.IsZero() {
		hm.hist.observe(time.Since(start))
	}
	if denied {
		hm.denials.Add(1)
	}
}

// observe adds one latency sample to the histogram.
func (h *histogram) observe(d time.Duration) {
	ns := d.Nanoseconds()
	h.totalNs.Add(uint64(ns))
	h.buckets[bucketFor(ns)].Add(1)
}

// HookStat is a point-in-time snapshot of one hook's metrics. Calls and
// Denials are exact; TotalNs and Buckets cover the sampled calls only.
type HookStat struct {
	Hook    HookID
	Calls   uint64
	Denials uint64
	TotalNs uint64
	Buckets [latencyBuckets]uint64
}

// Samples is the number of timed calls: the histogram's population.
func (s HookStat) Samples() uint64 {
	var n uint64
	for _, b := range s.Buckets {
		n += b
	}
	return n
}

// AvgNs is the mean sampled hook latency in nanoseconds.
func (s HookStat) AvgNs() uint64 {
	n := s.Samples()
	if n == 0 {
		return 0
	}
	return s.TotalNs / n
}

// Quantile returns an upper bound (the bucket ceiling) for the q-th
// latency quantile of the sampled calls, q in [0,1].
func (s HookStat) Quantile(q float64) uint64 {
	n := s.Samples()
	if n == 0 {
		return 0
	}
	target := uint64(q * float64(n))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, b := range s.Buckets {
		seen += b
		if seen >= target {
			return uint64(1) << uint(i) // bucket i holds samples < 2^i ns
		}
	}
	return uint64(1) << (latencyBuckets - 1)
}

// Snapshot returns the stats of every hook that has been called at least
// once, in hook order.
func (m *Metrics) Snapshot() []HookStat {
	var out []HookStat
	for h := HookID(0); h < NumHooks; h++ {
		st := HookStat{Hook: h, TotalNs: m.hists[h].totalNs.Load()}
		for s := range m.shards {
			hm := &m.shards[s].hooks[h]
			st.Calls += hm.calls.Load()
			st.Denials += hm.denials.Load()
		}
		for i := range st.Buckets {
			st.Buckets[i] = m.hists[h].buckets[i].Load()
		}
		if st.Calls == 0 {
			continue
		}
		out = append(out, st)
	}
	return out
}

// Render formats the snapshot in the flat key=value style of the other
// securityfs stats files, one hook per line.
func (m *Metrics) Render() string {
	var b strings.Builder
	for _, st := range m.Snapshot() {
		fmt.Fprintf(&b, "hook %-16s calls=%d denials=%d avg_ns=%d p50_ns<=%d p99_ns<=%d\n",
			st.Hook, st.Calls, st.Denials, st.AvgNs(), st.Quantile(0.50), st.Quantile(0.99))
	}
	return b.String()
}
