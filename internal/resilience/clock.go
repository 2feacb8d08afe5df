package resilience

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time for the breaker, the retry, the fleet agent's
// Run loop and the SDS service, so breaker cooldowns, retry backoffs,
// agent pacing and drive traces are all testable in virtual time with
// no real sleeps. The production implementation is RealClock; tests
// and simulations use VirtualClock.
type Clock interface {
	Now() time.Time
	// After returns a channel that receives once d has elapsed.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d elapses or ctx is done, returning the
	// context's cause in the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock reads the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// After implements Clock.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// VirtualClock is a deterministic clock for tests. Two modes:
//
//   - Manual (default): After registers a waiter that fires when
//     Advance moves the clock past its deadline; Sleep parks on such a
//     waiter — no polling, no real time.
//   - Auto-advance (NewAutoClock): Sleep advances
//     the clock by the requested duration immediately and returns, so
//     retry/backoff loops run to completion without any goroutine
//     coordination. Every requested sleep is recorded for assertions
//     (Slept). After timers are deadline waiters in both modes: they
//     fire when virtual time reaches them — advanced by sleeps or
//     Advance — so a deadline sharing an auto clock with a retry only
//     fires when backoff actually consumes it, not instantly.
type VirtualClock struct {
	mu      sync.Mutex
	now     time.Time
	auto    bool
	waiters []*virtualWaiter
	slept   []time.Duration
}

type virtualWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewVirtualClock starts a manual virtual clock at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// NewAutoClock starts a virtual clock whose sleeps complete
// immediately, advancing virtual time by the requested amount.
func NewAutoClock(start time.Time) *VirtualClock {
	c := NewVirtualClock(start)
	c.auto = true
	return c
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After implements Clock. The channel fires when virtual time reaches
// the deadline — via Advance, or via auto-mode sleeps moving the clock.
func (c *VirtualClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, &virtualWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

// Sleep implements Clock.
func (c *VirtualClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	if c.auto || d <= 0 {
		c.now = c.now.Add(d)
		c.slept = append(c.slept, d)
		c.fireDueLocked()
		c.mu.Unlock()
		return ctx.Err()
	}
	c.slept = append(c.slept, d)
	w := &virtualWaiter{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-w.ch:
		return nil
	}
}

// Advance moves virtual time forward, firing every waiter whose
// deadline is reached.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.fireDueLocked()
}

// fireDueLocked delivers to every waiter whose deadline has been
// reached. Callers hold c.mu.
func (c *VirtualClock) fireDueLocked() {
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

// Slept returns every sleep duration requested so far — the schedule a
// backoff policy actually asked for, used by equivalence tests.
func (c *VirtualClock) Slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}
