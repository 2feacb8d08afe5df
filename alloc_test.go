package sack_test

// The resilience layer must be free on the no-fault happy path: event
// delivery and quiet SDS polls run without per-operation heap
// allocations. Guarded by tests (exact) and benchmarks (trend). A reload
// of the installed text costs its swap, not a compile.

import (
	"strings"
	"testing"
	"time"

	sack "repro"
	"repro/internal/bench"
	"repro/internal/resilience"
	"repro/internal/sds"
)

func TestEventDeliveryHappyPathAllocFree(t *testing.T) {
	sys, err := sack.New(basicPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sink := sys.Events()
	// "all_clear" is a known event that does not transition out of the
	// initial state: the pure delivery path, no rule-set swap.
	if err := sink.DeliverEvent("all_clear"); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := sink.DeliverEvent("all_clear"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DeliverEvent allocates %.1f per event on the happy path", allocs)
	}
}

func TestQuietPollAllocFree(t *testing.T) {
	sys, err := sack.New(basicPolicy)
	if err != nil {
		t.Fatal(err)
	}
	root := sys.Kernel.Init()
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	service, err := sys.NewSDS(root, clock, sds.CrashDetector(8.0))
	if err != nil {
		t.Fatal(err)
	}
	// Steady dynamics: no events detected, nothing to flush.
	if _, err := service.Poll(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		clock.Advance(100 * time.Millisecond)
		if _, err := service.Poll(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("quiet Poll allocates %.1f per poll", allocs)
	}
}

func BenchmarkEventSinkDeliver(b *testing.B) {
	sys, err := sack.New(basicPolicy)
	if err != nil {
		b.Fatal(err)
	}
	sink := sys.Events()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.DeliverEvent("all_clear"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSDSQuietPoll(b *testing.B) {
	sys, err := sack.New(basicPolicy)
	if err != nil {
		b.Fatal(err)
	}
	root := sys.Kernel.Init()
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	service, err := sys.NewSDS(root, clock, sds.CrashDetector(8.0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(100 * time.Millisecond)
		if _, err := service.Poll(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReloadUnchangedSourceAllocGuard fences System.Reload of the text
// already installed, the reload a restarted fleet agent or a re-publish
// of unchanged content makes. It reuses the installed artifact and its
// diff is empty without comparing a rule, so its allocations do not grow
// with the policy: 5 here, where compiling and diffing the 500-rule
// policy again made 13,430. It is still a full commit: one
// generation, one policy_reload record reading "no changes", one AVC
// epoch.
func TestReloadUnchangedSourceAllocGuard(t *testing.T) {
	src := bench.GenRulesPolicy(500)
	sys, err := sack.New(src, sack.WithoutVehicle())
	if err != nil {
		t.Fatal(err)
	}
	gen, epoch, cursor := sys.SACK.ReloadStatus().Generation, sys.SACK.AVCStats().Epoch, sys.Audit.Cursor()
	report, err := sys.Reload(src)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Empty() {
		t.Fatalf("unchanged reload reported changes:\n%s", report)
	}
	if got := sys.SACK.ReloadStatus().Generation; got != gen+1 {
		t.Fatalf("generation %d -> %d, want +1", gen, got)
	}
	if got := sys.SACK.AVCStats().Epoch; got != epoch+1 {
		t.Fatalf("AVC epoch %d -> %d, want +1", epoch, got)
	}
	recs, _, _ := sys.Audit.Since(cursor)
	var reloads []string
	for _, r := range recs {
		if strings.HasPrefix(r.Op, "policy_reload") {
			reloads = append(reloads, r.Op+" "+r.Detail)
		}
	}
	if len(reloads) != 1 || !strings.HasPrefix(reloads[0], "policy_reload ") || !strings.Contains(reloads[0], "no changes") {
		t.Fatalf("reload records = %q, want one policy_reload reading \"no changes\"", reloads)
	}

	const budget = 64
	n := testing.AllocsPerRun(20, func() {
		if _, err := sys.Reload(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per unchanged-source Reload", n)
	if n > budget {
		t.Fatalf("Reload of the installed text makes %.0f allocations, budget %d", n, budget)
	}
}
