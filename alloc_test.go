package sack_test

// The resilience layer must be free on the no-fault happy path: event
// delivery and quiet SDS polls run without per-operation heap
// allocations. Guarded by tests (exact) and benchmarks (trend).

import (
	"testing"
	"time"

	sack "repro"
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
