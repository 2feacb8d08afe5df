package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"
)

// runtimeGosched yields the processor so another goroutine can make an
// observable state transition; no time is consumed.
func runtimeGosched() { runtime.Gosched() }

var errBoom = errors.New("boom")

func t0() time.Time { return time.Unix(1_700_000_000, 0) }

// --- Breaker -------------------------------------------------------------

func TestBreakerTripProbeClose(t *testing.T) {
	clock := NewVirtualClock(t0())
	b := NewBreaker(clock)
	ctx := context.Background()
	fail := func(context.Context) error { return errBoom }
	ok := func(context.Context) error { return nil }

	// DefaultBreakerFailures consecutive failures trip the breaker.
	for i := 0; i < DefaultBreakerFailures; i++ {
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

	// Cooldown lapses: one probe admitted; its success closes the breaker.
	clock.Advance(DefaultBreakerCooldown)
	if err := b.Do(ctx, ok); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if b.State() != Closed {
		t.Fatalf("state after probe = %v", b.State())
	}

	// A success while closed resets the consecutive-failure count.
	for i := 0; i < DefaultBreakerFailures-1; i++ {
		b.Do(ctx, fail)
	}
	b.Do(ctx, ok)
	b.Do(ctx, fail)
	if b.State() != Closed {
		t.Fatalf("non-consecutive failures tripped the breaker: %v", b.State())
	}
}

// tripped returns a breaker that has just opened.
func tripped(clock Clock) *Breaker {
	b := NewBreaker(clock)
	for i := 0; i < DefaultBreakerFailures; i++ {
		b.Do(context.Background(), func(context.Context) error { return errBoom })
	}
	return b
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clock := NewVirtualClock(t0())
	b := tripped(clock)
	ctx := context.Background()
	if b.State() != Open {
		t.Fatalf("state = %v", b.State())
	}
	clock.Advance(DefaultBreakerCooldown)
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
	b := tripped(clock)
	ctx := context.Background()
	clock.Advance(DefaultBreakerCooldown)

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
	r := NewRetry(42, clock)

	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < DefaultRetryAttempts {
			return errBoom
		}
		return nil
	})
	if err != nil || calls != DefaultRetryAttempts {
		t.Fatalf("err=%v calls=%d", err, calls)
	}

	// The schedule is exactly the full-jitter formula: pause k ~
	// Uniform[0, ceiling], ceiling 100, 200, 400 ms.
	rng := rand.New(rand.NewPCG(42, 0))
	want := []time.Duration{}
	for _, ceiling := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond} {
		want = append(want, time.Duration(rng.Int64N(int64(ceiling)+1)))
	}
	got := clock.Slept()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("backoff schedule = %v, want %v", got, want)
	}
}

func TestRetryBoundedAttemptsAndAborts(t *testing.T) {
	clock := NewAutoClock(t0())
	r := NewRetry(1, clock)
	calls := 0
	if err := r.Do(context.Background(), func(context.Context) error { calls++; return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if calls != DefaultRetryAttempts || len(clock.Slept()) != DefaultRetryAttempts-1 {
		t.Fatalf("calls = %d, backoffs = %d", calls, len(clock.Slept()))
	}

	// Context cancellation is never retried.
	calls = 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := r.Do(ctx, func(context.Context) error { calls++; return ctx.Err() })
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}

	// A request's own deadline is a failure, not an abort: retried.
	calls = 0
	if err := r.Do(context.Background(), func(context.Context) error { calls++; return ErrTimeout }); !errors.Is(err, ErrTimeout) || calls != DefaultRetryAttempts {
		t.Fatalf("err=%v calls=%d", err, calls)
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
