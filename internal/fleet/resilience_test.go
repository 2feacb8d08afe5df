package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/resilience"
)

// failNTransport fails every call until `fails` calls have failed, then
// delegates to the inner transport.
type failNTransport struct {
	inner Transport
	fails atomic.Int64
}

func (f *failNTransport) failing() bool {
	for {
		n := f.fails.Load()
		if n <= 0 {
			return false
		}
		if f.fails.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

func (f *failNTransport) FetchBundle(vehicle, group, etag string, wait time.Duration) (policy.Bundle, bool, error) {
	if f.failing() {
		return policy.Bundle{}, false, fmt.Errorf("injected: %w", ErrDropped)
	}
	return f.inner.FetchBundle(vehicle, group, etag, wait)
}

func (f *failNTransport) ReportStatus(st VehicleStatus) error {
	return f.inner.ReportStatus(st)
}

func (f *failNTransport) UploadLogs(vehicle string, recs []LogRecord) (int, error) {
	return f.inner.UploadLogs(vehicle, recs)
}

// TestAgentDefaultRetrySchedule: an agent built without a policy
// option retries a failing round on exactly the schedule of a
// resilience.Retry built from DefaultBackoffBase, DefaultBackoffMax and
// the vehicle-derived jitter seed; custom pacing passed through
// WithPolicy is followed just as exactly.
func TestAgentDefaultRetrySchedule(t *testing.T) {
	const failures = 6
	const vehicle = "veh-retry"
	cases := []struct {
		name   string
		custom bool // pace through WithPolicy instead of the default
		cfg    resilience.RetryConfig
	}{
		{"derived-seed", false, resilience.RetryConfig{
			Base: DefaultBackoffBase, Max: DefaultBackoffMax, Seed: DeriveJitterSeed(vehicle),
		}},
		{"explicit-seed", true, resilience.RetryConfig{
			Base: 100 * time.Millisecond, Max: 400 * time.Millisecond, Seed: 12345,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer()
			if _, err := s.Publish("default", testPolicy); err != nil {
				t.Fatal(err)
			}
			ft := &failNTransport{inner: s}
			ft.fails.Store(failures)
			clock := resilience.NewAutoClock(time.Unix(0, 0))
			opts := []AgentOption{WithAgentClock(clock)}
			if tc.custom {
				cfg := tc.cfg
				cfg.Clock = clock
				opts = append(opts, WithPolicy(resilience.NewRetry(cfg)))
			}
			a, err := NewAgent(AgentConfig{
				Vehicle: vehicle, Group: "default",
				Transport: ft, Applier: &fakeApplier{},
				PollWait: time.Millisecond, Interval: time.Second,
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Sync(context.Background()); err != nil {
				t.Fatalf("sync: %v", err)
			}
			if a.AppliedGeneration() != 1 {
				t.Fatalf("generation = %d", a.AppliedGeneration())
			}

			refClock := resilience.NewAutoClock(time.Unix(0, 0))
			refCfg := tc.cfg
			refCfg.Clock = refClock
			left := failures
			resilience.NewRetry(refCfg).Do(context.Background(), func(context.Context) error {
				if left > 0 {
					left--
					return ErrDropped
				}
				return nil
			})
			got, want := clock.Slept(), refClock.Slept()
			if len(want) != failures || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("backoff schedule diverged from the reference retry:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestAgentRunIntervalPacing: after a clean round Run sleeps Interval
// on the agent clock.
func TestAgentRunIntervalPacing(t *testing.T) {
	s := NewServer()
	if _, err := s.Publish("default", testPolicy); err != nil {
		t.Fatal(err)
	}
	clock := resilience.NewAutoClock(time.Unix(0, 0))
	const interval = 250 * time.Millisecond
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-run", Group: "default",
		Transport: s, Applier: &fakeApplier{},
		PollWait: 0, Interval: interval,
	}, WithAgentClock(clock), WithPolicy(resilience.NewRetry(resilience.RetryConfig{
		Base: DefaultBackoffBase, Max: DefaultBackoffMax, Seed: 1, Clock: clock,
	})))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { a.Run(ctx); close(done) }()
	for {
		slept := clock.Slept()
		if len(slept) >= 3 {
			cancel()
			break
		}
	}
	<-done
	for i, d := range clock.Slept()[:3] {
		if d != interval {
			t.Fatalf("sleep %d = %v, want %v", i, d, interval)
		}
	}
}

// TestAgentCachedBundleFallback: with WithDefaultResilience, a control
// plane that dies after the first successful sync degrades rounds to
// the cached bundle — Sync returns nil, the applied generation stays
// live, the fallback and breaker are visible in the status report.
func TestAgentCachedBundleFallback(t *testing.T) {
	s := NewServer()
	if _, err := s.Publish("default", testPolicy); err != nil {
		t.Fatal(err)
	}
	ft := &failNTransport{inner: s}
	clock := resilience.NewAutoClock(time.Unix(0, 0))
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-fb", Group: "default",
		Transport: ft, Applier: &fakeApplier{},
		PollWait: time.Millisecond,
	}, WithAgentClock(clock), WithDefaultResilience())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Round 1: healthy control plane, bundle applied.
	if err := a.Sync(ctx); err != nil {
		t.Fatalf("healthy sync: %v", err)
	}
	if a.AppliedGeneration() != 1 || a.Fallbacks() != 0 {
		t.Fatalf("gen=%d fallbacks=%d after healthy round", a.AppliedGeneration(), a.Fallbacks())
	}

	// Control plane dies hard. Every subsequent round must still return
	// nil (cached-bundle fallback), never block, and keep the applied
	// generation live.
	ft.fails.Store(1 << 30)
	for round := 1; round <= 10; round++ {
		if err := a.Sync(ctx); err != nil {
			t.Fatalf("round %d not degraded to cached bundle: %v", round, err)
		}
	}
	if a.AppliedGeneration() != 1 {
		t.Fatalf("cached generation lost: %d", a.AppliedGeneration())
	}
	if got := a.Fallbacks(); got != 10 {
		t.Fatalf("fallbacks = %d, want 10", got)
	}
	st := a.Status()
	if st.Fallbacks != 10 || st.Breaker == "" {
		t.Fatalf("status fallbacks=%d breaker=%q", st.Fallbacks, st.Breaker)
	}
	// The breaker must have tripped: with DefaultResilienceAttempts
	// failures per round over 10 rounds, consecutive failures far exceed
	// the default trip threshold, so later attempts short-circuited
	// without touching the transport.
	b := resilience.BreakerOf(a.Policy())
	if b == nil {
		t.Fatal("default policy has no breaker")
	}
	if b.Stats().Counters["short_circuits"] == 0 {
		t.Fatal("breaker never short-circuited a dead-control-plane attempt")
	}

	// Without a cached bundle, the same dead control plane surfaces the
	// error: the fallback only degrades, it never invents success.
	fresh, err := NewAgent(AgentConfig{
		Vehicle: "veh-fresh", Group: "default",
		Transport: ft, Applier: &fakeApplier{},
		PollWait: time.Millisecond,
	}, WithAgentClock(clock), WithDefaultResilience())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Sync(ctx); err == nil {
		t.Fatal("bundle-less agent rescued a failed round")
	}
}

// TestAgentCountsServerSheds: a round shed by a server-side bulkhead is
// counted in the status report's Shed field.
func TestAgentCountsServerSheds(t *testing.T) {
	s := NewServer(WithGroupBulkhead(1, -1))
	if _, err := s.Publish("default", testPolicy); err != nil {
		t.Fatal(err)
	}
	ring := lsm.NewAuditLog(64)
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-shed", Group: "default",
		Transport: s, Applier: &fakeApplier{}, Audit: ring,
		PollWait: time.Millisecond,
	}, WithPolicy(resilience.NewRetry(resilience.RetryConfig{
		Base: DefaultBackoffBase, Max: DefaultBackoffMax, Seed: 9,
	})))
	if err != nil {
		t.Fatal(err)
	}
	// Prime: vehicle known to the server, so uploads land in "default"'s
	// compartment.
	if err := a.SyncOnce(); err != nil {
		t.Fatalf("prime: %v", err)
	}

	// Occupy the group's single admission slot, then sync with a pending
	// log record: the upload is shed with ErrBulkheadFull and the agent
	// counts it.
	ring.Append(lsm.AuditRecord{Action: "DENIED", Detail: "x"})
	release := make(chan struct{})
	occupied := make(chan struct{})
	go s.gates.Get("default").Do(context.Background(), func(context.Context) error {
		close(occupied)
		<-release
		return nil
	})
	<-occupied
	err = a.SyncOnce()
	close(release)
	if !errors.Is(err, resilience.ErrBulkheadFull) {
		t.Fatalf("sync during occupation = %v, want ErrBulkheadFull", err)
	}
	if st := a.Status(); st.Shed != 1 {
		t.Fatalf("status shed = %d, want 1", st.Shed)
	}
}

// TestServerGroupBulkheadIsolation: one group's saturated compartment
// sheds that group only; another group's uploads are untouched, and the
// render surfaces both compartments.
func TestServerGroupBulkheadIsolation(t *testing.T) {
	s := NewServer(WithGroupBulkhead(1, -1))
	for _, g := range []string{"floods", "quiet"} {
		if _, err := s.Publish(g, testPolicy); err != nil {
			t.Fatal(err)
		}
	}
	// Make both vehicles known so uploads route to their compartments.
	for v, g := range map[string]string{"veh-a": "floods", "veh-b": "quiet"} {
		if err := s.ReportStatus(VehicleStatus{Vehicle: v, Group: g}); err != nil {
			t.Fatal(err)
		}
	}
	recs := []LogRecord{{Seq: 1, Action: "DENIED"}}

	// Saturate the floods compartment.
	release := make(chan struct{})
	occupied := make(chan struct{})
	go s.gates.Get("floods").Do(context.Background(), func(context.Context) error {
		close(occupied)
		<-release
		return nil
	})
	<-occupied

	if _, err := s.UploadLogs("veh-a", recs); !errors.Is(err, resilience.ErrBulkheadFull) {
		t.Fatalf("flooded group upload = %v, want ErrBulkheadFull", err)
	}
	if n, err := s.UploadLogs("veh-b", recs); err != nil || n != 1 {
		t.Fatalf("quiet group upload: n=%d err=%v", n, err)
	}
	close(release)

	st := s.Stats()
	var floodShed, quietShed uint64 = 0, 0
	for _, in := range st.Ingest {
		switch in.Key {
		case "floods":
			floodShed = in.Shed
		case "quiet":
			quietShed = in.Shed
		}
	}
	if floodShed != 1 || quietShed != 0 {
		t.Fatalf("ingest sheds: floods=%d quiet=%d", floodShed, quietShed)
	}
	out := st.Render()
	for _, want := range []string{"ingest floods:", "ingest quiet:", "shed=1", "breakers_open:", "fallbacks:"} {
		if !contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
