package lsm

// dispatch_test pins the capability-interface redesign: modules land only
// in the dispatch slices of hooks they implement, Base-embedding modules
// land everywhere, and the metrics layer observes every walked hook.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sys"
)

// capableOnly implements exactly one capability interface, no Base.
type capableOnly struct{}

func (capableOnly) Name() string                     { return "capable-only" }
func (capableOnly) Capable(*sys.Cred, sys.Cap) error { return nil }

func TestSparseModuleRegistersOnlyItsHooks(t *testing.T) {
	s := NewStack()
	if err := s.Register(capableOnly{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Registered(HookCapable); len(got) != 1 || got[0] != "capable-only" {
		t.Fatalf("capable slice = %v", got)
	}
	for h := HookID(0); h < NumHooks; h++ {
		if h == HookCapable {
			continue
		}
		if got := s.Registered(h); len(got) != 0 {
			t.Errorf("hook %s has unexpected entries %v", h, got)
		}
	}
}

func TestCapabilityModuleIsSparse(t *testing.T) {
	s := NewStack()
	if err := s.Register(NewCapability()); err != nil {
		t.Fatal(err)
	}
	if got := s.Registered(HookCapable); len(got) != 1 {
		t.Fatalf("capability not in capable slice: %v", got)
	}
	// The redesign's point: no dead-stub calls on the file fast path.
	if got := s.Registered(HookFilePermission); len(got) != 0 {
		t.Fatalf("capability wrongly dispatched on file_permission: %v", got)
	}
	if got := s.Registered(HookSocketCreate); len(got) != 0 {
		t.Fatalf("capability wrongly dispatched on socket_create: %v", got)
	}
}

func TestBaseEmbedderRegistersEverywhere(t *testing.T) {
	s := NewStack()
	if err := s.Register(&recordingModule{name: "full"}); err != nil {
		t.Fatal(err)
	}
	for h := HookID(0); h < NumHooks; h++ {
		if got := s.Registered(h); len(got) != 1 || got[0] != "full" {
			t.Errorf("hook %s: got %v, want [full]", h, got)
		}
	}
}

func TestModuleListReturnsInstancesInOrder(t *testing.T) {
	s := NewStack()
	if err := s.Register(capableOnly{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(&recordingModule{name: "rec"}); err != nil {
		t.Fatal(err)
	}
	ms := s.ModuleList()
	if len(ms) != 2 || ms[0].Name() != "capable-only" || ms[1].Name() != "rec" {
		t.Fatalf("ModuleList = %v", ms)
	}
}

func TestMetricsObserveHookWalks(t *testing.T) {
	s := NewStack()
	if err := s.Register(&recordingModule{name: "rec", deny: sys.EACCES}); err != nil {
		t.Fatal(err)
	}
	cred := sys.NewCred(0, 0)
	for i := 0; i < 3; i++ {
		s.InodePermission(cred, "/x", nil, sys.MayRead)
	}
	s.Capable(cred, sys.CapMacAdmin)

	var inode, capable *HookStat
	snap := s.Metrics().Snapshot()
	for i := range snap {
		switch snap[i].Hook {
		case HookInodePermission:
			inode = &snap[i]
		case HookCapable:
			capable = &snap[i]
		}
	}
	if inode == nil || inode.Calls != 3 || inode.Denials != 3 {
		t.Fatalf("inode_permission stat = %+v", inode)
	}
	if capable == nil || capable.Calls != 1 {
		t.Fatalf("capable stat = %+v", capable)
	}
	out := s.Metrics().Render()
	for _, frag := range []string{"hook inode_permission", "calls=3", "denials=3", "p99_ns<="} {
		if !strings.Contains(out, frag) {
			t.Errorf("Render missing %q:\n%s", frag, out)
		}
	}
}

func TestMetricsQuantileBounds(t *testing.T) {
	m := NewMetrics()
	// 99 fast samples and one slow one: p50 stays in the fast bucket,
	// p99 must not exceed the slow sample's bucket ceiling.
	hm := &m.shards[0].hooks[HookFileOpen]
	for i := 0; i < 100; i++ {
		hm.calls.Add(1)
		d := 100 * time.Nanosecond
		if i == 99 {
			d = 2 * time.Millisecond
		}
		hm.hist.observe(d)
	}
	st := m.Snapshot()[0]
	if p50 := st.Quantile(0.50); p50 > 256 {
		t.Errorf("p50 = %d ns, want <= 256", p50)
	}
	p99 := st.Quantile(0.99)
	if p99 > 1<<21 { // 2ms rounds into the 2^21 ns bucket
		t.Errorf("p99 = %d ns, want <= %d", p99, 1<<21)
	}
	if st.AvgNs() == 0 {
		t.Error("average latency is zero")
	}
}
