package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/resilience"
)

// failNTransport fails every call until `fails` calls have failed, then
// delegates to the inner transport. It counts the bundle fetches that
// reach it, so tests see attempts the breaker short-circuited.
type failNTransport struct {
	inner   Transport
	fails   atomic.Int64
	fetches atomic.Int64
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
	f.fetches.Add(1)
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

// TestAgentDefaultRetrySchedule: an agent retries a failing round on
// exactly the schedule of a resilience.Retry seeded with the
// vehicle-derived jitter seed. The explicit-seed case pins that
// derivation to a literal, so a vehicle's schedule cannot drift between
// releases.
func TestAgentDefaultRetrySchedule(t *testing.T) {
	const failures = resilience.DefaultRetryAttempts - 1
	cases := []struct {
		name    string
		vehicle string
		seed    int64
	}{
		{"derived-seed", "veh-retry", DeriveJitterSeed("veh-retry")},
		{"explicit-seed", "ab", 'a'*131 + 'b'},
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
			a, err := NewAgent(AgentConfig{
				Vehicle: tc.vehicle, Group: "default",
				Transport: ft, Applier: &fakeApplier{},
				PollWait: time.Millisecond, Interval: time.Second,
			}, WithAgentClock(clock))
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
			left := failures
			resilience.NewRetry(tc.seed, refClock).Do(context.Background(), func(context.Context) error {
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
		PollWait: time.Millisecond, Interval: interval,
	}, WithAgentClock(clock))
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

// TestAgentCachedBundleFallback: a control plane that dies after the
// first successful sync degrades rounds to the cached bundle — Sync
// returns nil, the applied generation stays live, the fallback and the
// open breaker are visible in the status report, and the breaker keeps
// attempts off the dead transport.
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
	}, WithAgentClock(clock))
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
	ft.fetches.Store(0)
	const rounds = 10
	for round := 1; round <= rounds; round++ {
		if err := a.Sync(ctx); err != nil {
			t.Fatalf("round %d not degraded to cached bundle: %v", round, err)
		}
	}
	if a.AppliedGeneration() != 1 {
		t.Fatalf("cached generation lost: %d", a.AppliedGeneration())
	}
	if got := a.Fallbacks(); got != rounds {
		t.Fatalf("fallbacks = %d, want %d", got, rounds)
	}
	// The breaker must have tripped: resilience.DefaultRetryAttempts failures
	// per round over 10 rounds far exceed its threshold, so later
	// attempts short-circuited without touching the transport.
	st := a.Status()
	if st.Fallbacks != rounds || st.Breaker != "open" {
		t.Fatalf("status fallbacks=%d breaker=%q, want %d/open", st.Fallbacks, st.Breaker, rounds)
	}
	if got := ft.fetches.Load(); got >= rounds*resilience.DefaultRetryAttempts {
		t.Fatalf("%d of %d attempts reached the dead transport; the breaker never short-circuited",
			got, rounds*resilience.DefaultRetryAttempts)
	}

	// Without a cached bundle, the same dead control plane surfaces the
	// error: the fallback only degrades, it never invents success.
	fresh, err := NewAgent(AgentConfig{
		Vehicle: "veh-fresh", Group: "default",
		Transport: ft, Applier: &fakeApplier{},
		PollWait: time.Millisecond,
	}, WithAgentClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Sync(ctx); err == nil {
		t.Fatal("bundle-less agent rescued a failed round")
	}
	if fresh.Fallbacks() != 0 {
		t.Fatalf("bundle-less agent counted %d fallbacks", fresh.Fallbacks())
	}
}

// TestAgentFallbackOnlyWithCachedBundle: the cached-bundle fallback
// rescues a failed round only when a bundle is applied and the round
// was not ended by its caller. Every other failure is returned as the
// transport produced it, and no fallback is counted for it.
func TestAgentFallbackOnlyWithCachedBundle(t *testing.T) {
	s := NewServer()
	if _, err := s.Publish("default", testPolicy); err != nil {
		t.Fatal(err)
	}
	ft := &failNTransport{inner: s}
	ft.fails.Store(1 << 30)
	clock := resilience.NewAutoClock(time.Unix(0, 0))
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-rescue", Group: "default",
		Transport: ft, Applier: &fakeApplier{},
		PollWait: time.Millisecond,
	}, WithAgentClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// No bundle yet: the transport's error surfaces unchanged.
	if err := a.Sync(ctx); !errors.Is(err, ErrDropped) {
		t.Fatalf("bundle-less round returned %v, want the transport's ErrDropped", err)
	}
	if a.Fallbacks() != 0 {
		t.Fatalf("bundle-less agent counted %d fallbacks", a.Fallbacks())
	}

	// The control plane heals; the round applies the bundle without a
	// fallback.
	ft.fails.Store(0)
	if err := a.Sync(ctx); err != nil {
		t.Fatalf("healed round: %v", err)
	}
	if a.AppliedGeneration() != 1 || a.Fallbacks() != 0 {
		t.Fatalf("gen=%d fallbacks=%d after healed round", a.AppliedGeneration(), a.Fallbacks())
	}

	// A round its caller ended is not rescued, bundle or not.
	ft.fails.Store(1 << 30)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := a.Sync(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled round returned %v, want context.Canceled", err)
	}
	if a.Fallbacks() != 0 {
		t.Fatalf("cancelled round counted %d fallbacks", a.Fallbacks())
	}

	// With a bundle applied, the same dead control plane is rescued.
	if err := a.Sync(ctx); err != nil {
		t.Fatalf("round with a cached bundle not rescued: %v", err)
	}
	if a.Fallbacks() != 1 || a.AppliedGeneration() != 1 {
		t.Fatalf("gen=%d fallbacks=%d after rescued round, want 1/1", a.AppliedGeneration(), a.Fallbacks())
	}
}

// TestAgentStatusReportsBreaker: the breaker's position is read from
// the agent's status report, the one place it is shown. It reads closed
// on a fresh and a healthy agent, open once a dead control plane trips
// it, and closed again after the cooldown's probe succeeds.
func TestAgentStatusReportsBreaker(t *testing.T) {
	s := NewServer()
	if _, err := s.Publish("default", testPolicy); err != nil {
		t.Fatal(err)
	}
	ft := &failNTransport{inner: s}
	clock := resilience.NewAutoClock(time.Unix(0, 0))
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-breaker", Group: "default",
		Transport: ft, Applier: &fakeApplier{},
		PollWait: time.Millisecond,
	}, WithAgentClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	breaker := func(want string) {
		t.Helper()
		if got := a.Status().Breaker; got != want {
			t.Fatalf("status breaker = %q, want %q", got, want)
		}
	}

	breaker("closed")
	if err := a.Sync(ctx); err != nil {
		t.Fatalf("healthy sync: %v", err)
	}
	breaker("closed")

	// Fail exactly enough attempts to trip it: the round that sees the
	// trip has further attempts short-circuited, off the transport.
	ft.fails.Store(resilience.DefaultBreakerFailures)
	ft.fetches.Store(0)
	for ft.fails.Load() > 0 {
		if err := a.Sync(ctx); err != nil {
			t.Fatalf("round not degraded to cached bundle: %v", err)
		}
	}
	breaker("open")
	if got := ft.fetches.Load(); got != resilience.DefaultBreakerFailures {
		t.Fatalf("%d fetches reached the transport, want %d before the trip", got, resilience.DefaultBreakerFailures)
	}

	clock.Advance(resilience.DefaultBreakerCooldown)
	if err := a.Sync(ctx); err != nil {
		t.Fatalf("probe round: %v", err)
	}
	breaker("closed")
}

// TestAgentSlowAttemptNeverRollsBack: an attempt that outlives its
// request deadline fails, and its late answer is never applied. The
// first bundle fetch hangs in fleetd until the client has given up, and
// only then answers with generation 1, which was current when the
// request arrived; generation 2 is published meanwhile. The round must
// fail that attempt, apply generation 2 on the retry, and no older
// bundle may ever reach the applier.
func TestAgentSlowAttemptNeverRollsBack(t *testing.T) {
	s := NewServer()
	if _, err := s.Publish("default", testPolicy); err != nil {
		t.Fatal(err)
	}
	h := Handler(s)
	var hung atomic.Bool
	answered := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/bundle/") || !hung.CompareAndSwap(false, true) {
			h.ServeHTTP(w, r)
			return
		}
		defer close(answered)
		old := httptest.NewRecorder()
		h.ServeHTTP(old, r)
		if _, err := s.Publish("default", testPolicyV2); err != nil {
			t.Error(err)
		}
		<-r.Context().Done() // the client tore the request down
		for k, v := range old.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(old.Code)
		w.Write(old.Body.Bytes())
	}))
	defer srv.Close()

	client := NewClient(srv.URL)
	client.HTTP = &http.Client{Timeout: 250 * time.Millisecond}
	app := &fakeApplier{}
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-slow", Group: "default",
		Transport: client, Applier: app,
		PollWait: time.Millisecond,
	}, WithAgentClock(resilience.NewAutoClock(time.Unix(0, 0))))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(context.Background()); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if gen := a.AppliedGeneration(); gen != 2 || a.Fallbacks() != 0 {
		t.Fatalf("round ended at generation %d with %d fallbacks, want 2 and 0", gen, a.Fallbacks())
	}
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("the hung fetch never answered")
	}
	if err := a.SyncOnce(); err != nil {
		t.Fatalf("sync after the late answer: %v", err)
	}
	if gen := a.AppliedGeneration(); gen != 2 {
		t.Fatalf("the late answer moved the vehicle back to generation %d", gen)
	}
	app.mu.Lock()
	defer app.mu.Unlock()
	if len(app.applied) != 1 || app.applied[0] != testPolicyV2 {
		t.Fatalf("applier saw %d bundles; want only generation 2", len(app.applied))
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
	})
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
