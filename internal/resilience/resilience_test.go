package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// runtimeGosched yields the processor so another goroutine can make an
// observable state transition; no time is consumed.
func runtimeGosched() { runtime.Gosched() }

var errBoom = errors.New("boom")

func t0() time.Time { return time.Unix(1_700_000_000, 0) }

// --- Stack ---------------------------------------------------------------

// recorder logs enter order to prove stacking nests outermost-first.
type recorder struct {
	name string
	log  *[]string
}

func (r recorder) Do(ctx context.Context, op Op) error {
	*r.log = append(*r.log, r.name)
	return op(ctx)
}

func TestStackOrderAndPassthrough(t *testing.T) {
	var log []string
	p := Stack(recorder{"a", &log}, recorder{"b", &log}, recorder{"c", &log})
	if err := p.Do(context.Background(), func(context.Context) error {
		log = append(log, "op")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(log); got != "[a b c op]" {
		t.Fatalf("stack order = %v", log)
	}

	if err := Stack().Do(context.Background(), func(context.Context) error { return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("empty stack error = %v", err)
	}
	single := NewBreaker(BreakerConfig{})
	if Stack(single) != Policy(single) {
		t.Fatal("single-policy stack should return the policy itself")
	}
}

func TestStackConcurrentReuse(t *testing.T) {
	p := Stack(recorderlessPassthrough{}, recorderlessPassthrough{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				want := errBoom
				if (i+j)%2 == 0 {
					want = nil
				}
				err := p.Do(context.Background(), func(context.Context) error { return want })
				if !errors.Is(err, want) {
					t.Errorf("err = %v, want %v", err, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

type recorderlessPassthrough struct{}

func (recorderlessPassthrough) Do(ctx context.Context, op Op) error { return op(ctx) }

// TestStackDetachingPolicyAbandonedOps: a stack containing a Detaching
// policy (here Timeout) must keep each call's frame alive for the
// abandoned op goroutine — timed-out ops finish later without touching
// a recycled frame. Regression test: the pooled-frame fast path used
// to nil the op reference on return, and the abandoned goroutine then
// dereferenced it.
func TestStackDetachingPolicyAbandonedOps(t *testing.T) {
	clock := NewVirtualClock(t0())
	p := Stack(
		recorderlessPassthrough{},
		NewTimeout(TimeoutConfig{Limit: time.Millisecond, Clock: clock}),
	)
	const rounds = 64
	stop := make(chan struct{})
	defer close(stop)
	go func() { // fire each round's timeout as soon as its timer parks
		for {
			select {
			case <-stop:
				return
			default:
			}
			clock.BlockUntil(1)
			clock.Advance(time.Millisecond)
		}
	}()
	release := make(chan struct{})
	var finished sync.WaitGroup
	finished.Add(rounds)
	for i := 0; i < rounds; i++ {
		err := p.Do(context.Background(), func(ctx context.Context) error {
			defer finished.Done()
			<-release // every op outlives its Do by construction
			return nil
		})
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("round %d: err = %v, want ErrTimeout", i, err)
		}
	}
	close(release)
	finished.Wait()
}

// --- Breaker -------------------------------------------------------------

func TestBreakerTripProbeClose(t *testing.T) {
	clock := NewVirtualClock(t0())
	b := NewBreaker(BreakerConfig{Failures: 3, Cooldown: time.Second, Probes: 2, Clock: clock})
	ctx := context.Background()
	fail := func(context.Context) error { return errBoom }
	ok := func(context.Context) error { return nil }

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if b.State() != Closed {
			t.Fatalf("state before failure %d = %v", i, b.State())
		}
		if err := b.Do(ctx, fail); !errors.Is(err, errBoom) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if b.State() != Open {
		t.Fatalf("state after trip = %v", b.State())
	}

	// Open: calls short-circuit without invoking the operation.
	called := false
	if err := b.Do(ctx, func(context.Context) error { called = true; return nil }); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open call error = %v", err)
	}
	if called {
		t.Fatal("open breaker invoked the operation")
	}

	// Cooldown lapses: one probe admitted; success moves toward Closed.
	clock.Advance(time.Second)
	if err := b.Do(ctx, ok); err != nil {
		t.Fatalf("probe 1: %v", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state after probe 1 = %v (want half-open, Probes=2)", b.State())
	}
	if err := b.Do(ctx, ok); err != nil {
		t.Fatalf("probe 2: %v", err)
	}
	if b.State() != Closed {
		t.Fatalf("state after probe 2 = %v", b.State())
	}

	st := b.Stats()
	if st.Policy != "breaker" || st.State != "closed" {
		t.Fatalf("stats = %+v", st)
	}
	if st.Counters["trips"] != 1 || st.Counters["short_circuits"] != 1 {
		t.Fatalf("counters = %v", st.Counters)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clock := NewVirtualClock(t0())
	b := NewBreaker(BreakerConfig{Failures: 1, Cooldown: time.Second, Clock: clock})
	ctx := context.Background()
	b.Do(ctx, func(context.Context) error { return errBoom })
	if b.State() != Open {
		t.Fatalf("state = %v", b.State())
	}
	clock.Advance(time.Second)
	if err := b.Do(ctx, func(context.Context) error { return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("probe error = %v", err)
	}
	if b.State() != Open {
		t.Fatalf("failed probe left state %v", b.State())
	}
	// The fresh open window enforces a fresh cooldown.
	if err := b.Do(ctx, func(context.Context) error { return nil }); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("post-reopen call error = %v", err)
	}
}

func TestBreakerSingleProbeSlot(t *testing.T) {
	clock := NewVirtualClock(t0())
	b := NewBreaker(BreakerConfig{Failures: 1, Cooldown: time.Second, Clock: clock})
	ctx := context.Background()
	b.Do(ctx, func(context.Context) error { return errBoom })
	clock.Advance(time.Second)

	// First caller takes the probe slot and parks; a second caller must
	// short-circuit rather than pile onto a possibly-sick server.
	release := make(chan struct{})
	probeErr := make(chan error, 1)
	go func() {
		probeErr <- b.Do(ctx, func(context.Context) error { <-release; return nil })
	}()
	for b.State() != HalfOpen {
		// The probe transition happens inside admit; spin-yield until the
		// goroutine got there (no time involved).
		runtimeGosched()
	}
	if err := b.Do(ctx, func(context.Context) error { return nil }); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second probe error = %v", err)
	}
	close(release)
	if err := <-probeErr; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v", b.State())
	}
}

// --- Bulkhead ------------------------------------------------------------

func TestBulkheadAdmissionQueueShed(t *testing.T) {
	b := NewBulkhead(BulkheadConfig{Capacity: 2, Queue: 1})
	ctx := context.Background()

	release := make(chan struct{})
	errs := make(chan error, 4)
	started := make(chan struct{}, 2)
	// Two admitted operations occupy the compartment.
	for i := 0; i < 2; i++ {
		go func() {
			errs <- b.Do(ctx, func(context.Context) error {
				started <- struct{}{}
				<-release
				return nil
			})
		}()
	}
	<-started
	<-started

	// One caller queues (bounded), parked on the semaphore.
	queued := make(chan error, 1)
	go func() {
		queued <- b.Do(ctx, func(context.Context) error { return nil })
	}()
	for b.Queued() != 1 {
		runtimeGosched()
	}

	// The next caller overflows the queue and is shed immediately.
	if err := b.Do(ctx, func(context.Context) error { return nil }); !errors.Is(err, ErrBulkheadFull) {
		t.Fatalf("overflow error = %v", err)
	}
	if b.Shed() != 1 {
		t.Fatalf("shed = %d", b.Shed())
	}

	close(release)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued caller: %v", err)
	}
	if got := b.Admitted(); got != 3 {
		t.Fatalf("admitted = %d", got)
	}
}

func TestBulkheadQueuedCallerHonoursContext(t *testing.T) {
	b := NewBulkhead(BulkheadConfig{Capacity: 1, Queue: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	go b.Do(context.Background(), func(context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started

	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- b.Do(ctx, func(context.Context) error { return nil })
	}()
	for b.Queued() != 1 {
		runtimeGosched()
	}
	cancel(errBoom)
	if err := <-done; !errors.Is(err, errBoom) {
		t.Fatalf("cancelled queue wait = %v", err)
	}
	close(release)
}

func TestKeyedBulkheadsIsolate(t *testing.T) {
	k := NewKeyedBulkheads(BulkheadConfig{Capacity: 1, Queue: -1})
	ctx := context.Background()
	release := make(chan struct{})
	started := make(chan struct{})
	go k.Do(ctx, "flood", func(context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started
	// flood's compartment is full (no queue): shed.
	if err := k.Do(ctx, "flood", func(context.Context) error { return nil }); !errors.Is(err, ErrBulkheadFull) {
		t.Fatalf("flood error = %v", err)
	}
	// quiet's compartment is untouched.
	if err := k.Do(ctx, "quiet", func(context.Context) error { return nil }); err != nil {
		t.Fatalf("quiet error = %v", err)
	}
	close(release)
	stats := k.Stats()
	if len(stats) != 2 || stats[0].Key != "flood" || stats[0].Shed != 1 || stats[1].Key != "quiet" || stats[1].Shed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// --- Retry ---------------------------------------------------------------

func TestRetryBackoffScheduleDeterministic(t *testing.T) {
	clock := NewAutoClock(t0())
	r := NewRetry(RetryConfig{Base: 100 * time.Millisecond, Max: 400 * time.Millisecond, Seed: 42, Clock: clock})

	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 5 {
			return errBoom
		}
		return nil
	})
	if err != nil || calls != 5 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}

	// The schedule is exactly the legacy full-jitter formula: pause ~
	// Uniform[0, ceiling], ceiling doubling 100ms -> 400ms (capped).
	rng := rand.New(rand.NewSource(42))
	want := []time.Duration{}
	ceiling := 100 * time.Millisecond
	for i := 0; i < 4; i++ {
		want = append(want, time.Duration(rng.Int63n(int64(ceiling)+1)))
		ceiling *= 2
		if ceiling > 400*time.Millisecond {
			ceiling = 400 * time.Millisecond
		}
	}
	got := clock.Slept()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("backoff schedule = %v, want %v", got, want)
	}
}

func TestRetryBoundedAttemptsAndAborts(t *testing.T) {
	clock := NewAutoClock(t0())
	r := NewRetry(RetryConfig{Attempts: 3, Base: time.Millisecond, Seed: 1, Clock: clock})
	calls := 0
	if err := r.Do(context.Background(), func(context.Context) error { calls++; return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	if st := r.Stats(); st.Counters["give_ups"] != 1 || st.Counters["retries"] != 2 {
		t.Fatalf("stats = %v", st.Counters)
	}

	// Context cancellation is never retried.
	calls = 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := r.Do(ctx, func(context.Context) error { calls++; return ctx.Err() })
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}

	// RetryOn filters.
	filtered := NewRetry(RetryConfig{Attempts: 5, Base: time.Millisecond, Seed: 1, Clock: clock,
		RetryOn: func(err error) bool { return !errors.Is(err, errBoom) }})
	calls = 0
	if err := filtered.Do(context.Background(), func(context.Context) error { calls++; return errBoom }); !errors.Is(err, errBoom) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

// --- Timeout -------------------------------------------------------------

func TestTimeoutCancelsSlowOperation(t *testing.T) {
	// Fast path: the op finishes; no timer involvement needed. Uses its
	// own clock — even an unfired select arm parks a waiter, which would
	// skew BlockUntil below.
	fast := NewTimeout(TimeoutConfig{Limit: time.Second, Clock: NewVirtualClock(t0())})
	if err := fast.Do(context.Background(), func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}

	clock := NewVirtualClock(t0())
	to := NewTimeout(TimeoutConfig{Limit: time.Second, Clock: clock})

	// Slow path: the op parks on its context; advancing virtual time
	// past the limit cancels it with cause ErrTimeout.
	opSawCause := make(chan error, 1)
	done := make(chan error, 1)
	go func() {
		done <- to.Do(context.Background(), func(ctx context.Context) error {
			<-ctx.Done()
			opSawCause <- context.Cause(ctx)
			return context.Cause(ctx)
		})
	}()
	clock.BlockUntil(1)
	clock.Advance(time.Second)
	if err := <-done; !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout error = %v", err)
	}
	if cause := <-opSawCause; !errors.Is(cause, ErrTimeout) {
		t.Fatalf("op context cause = %v", cause)
	}
	if st := to.Stats(); st.Counters["timeouts"] != 1 {
		t.Fatalf("stats = %v", st.Counters)
	}
}

// --- Clock ---------------------------------------------------------------

func TestVirtualClock(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewVirtualClock(start)
	if !c.Now().Equal(start) {
		t.Fatal("start time wrong")
	}
	c.Advance(3 * time.Second)
	if got := c.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("advance = %v", got)
	}
}

// --- Fallback ------------------------------------------------------------

func TestFallbackRescuesMatchedErrors(t *testing.T) {
	f := NewFallback(
		func(err error) bool { return errors.Is(err, ErrCircuitOpen) },
		func(ctx context.Context, err error) error { return nil },
	)
	ctx := context.Background()
	if err := f.Do(ctx, func(context.Context) error { return ErrCircuitOpen }); err != nil {
		t.Fatalf("matched failure not rescued: %v", err)
	}
	if err := f.Do(ctx, func(context.Context) error { return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("unmatched failure rewritten: %v", err)
	}
	if f.Rescued() != 1 {
		t.Fatalf("rescued = %d", f.Rescued())
	}
}

// --- Introspection -------------------------------------------------------

func TestStatsOfAndBreakerOf(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	r := NewRetry(RetryConfig{Seed: 1})
	p := Stack(NewFallback(nil, func(ctx context.Context, err error) error { return err }), b, r)

	stats := StatsOf(p)
	if len(stats) != 3 || stats[0].Policy != "fallback" || stats[1].Policy != "breaker" || stats[2].Policy != "retry" {
		t.Fatalf("StatsOf = %+v", stats)
	}
	if BreakerOf(p) != b {
		t.Fatal("BreakerOf missed the stacked breaker")
	}
	if BreakerOf(r) != nil {
		t.Fatal("BreakerOf invented a breaker")
	}
	out := Render(stats)
	for _, want := range []string{"policy fallback", "policy breaker", "state=closed", "policy retry"} {
		if !containsStr(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// --- HTTP mapping --------------------------------------------------------

func TestHTTPStatusDistinct(t *testing.T) {
	seen := map[int]error{}
	for _, err := range []error{ErrCircuitOpen, ErrBulkheadFull, ErrTimeout} {
		code := HTTPStatus(err)
		if prev, dup := seen[code]; dup {
			t.Fatalf("status %d shared by %v and %v", code, prev, err)
		}
		seen[code] = err
	}
	if HTTPStatus(nil) != 200 || HTTPStatus(errBoom) != 500 {
		t.Fatal("nil/unknown mapping")
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && (haystack == needle || indexOf(haystack, needle) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
