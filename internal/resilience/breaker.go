package resilience

import (
	"context"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int32

// Breaker states.
const (
	Closed   BreakerState = iota // calls flow; consecutive failures are counted
	Open                         // calls short-circuit with ErrCircuitOpen until the cooldown lapses
	HalfOpen                     // one probe call at a time; a success closes, a failure re-opens
)

// String names the state for renders.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker tuning.
const (
	// DefaultBreakerFailures consecutive failures trip the breaker.
	DefaultBreakerFailures = 5
	// DefaultBreakerCooldown is how long the breaker stays open before
	// admitting a half-open probe.
	DefaultBreakerCooldown = time.Second
)

// Breaker is a deterministic closed/open/half-open circuit breaker:
// DefaultBreakerFailures consecutive failures trip it open; after
// DefaultBreakerCooldown one probe call at a time is admitted; a probe
// success closes it, a probe failure re-opens it. While open (or while
// the probe slot is taken) calls fail fast with ErrCircuitOpen — the
// operation is never invoked, which is what keeps a vehicle's sync
// round short when the control plane is dead.
type Breaker struct {
	clock Clock

	mu       sync.Mutex
	state    BreakerState
	fails    int  // consecutive failures while closed
	probing  bool // a half-open probe is in flight
	openedAt time.Time
}

// NewBreaker builds a closed circuit breaker whose cooldown runs on
// clock.
func NewBreaker(clock Clock) *Breaker {
	return &Breaker{clock: clock}
}

// Do runs op unless the breaker short-circuits it, and folds the
// result into the breaker's state.
func (b *Breaker) Do(ctx context.Context, op Op) error {
	probe, err := b.admit()
	if err != nil {
		return err
	}
	opErr := op(ctx)
	b.record(opErr, probe)
	return opErr
}

// admit decides whether a call may proceed; probe reports whether it
// holds the half-open probe slot.
func (b *Breaker) admit() (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		if b.clock.Now().Sub(b.openedAt) < DefaultBreakerCooldown {
			return false, ErrCircuitOpen
		}
		b.state = HalfOpen
		b.probing = true
		return true, nil
	case HalfOpen:
		if b.probing {
			return false, ErrCircuitOpen
		}
		b.probing = true
		return true, nil
	}
	return false, nil
}

// record folds one operation result into the state machine. Caller-side
// aborts (context cancellation) release the probe slot without counting
// either way.
func (b *Breaker) record(opErr error, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if opErr != nil && abortive(opErr) {
		return
	}
	switch b.state {
	case Closed:
		if opErr == nil {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= DefaultBreakerFailures {
			b.trip()
		}
	case HalfOpen:
		if !probe {
			// A straggler admitted before the trip; its verdict belongs
			// to the old closed window, not the probe.
			return
		}
		if opErr != nil {
			b.trip()
			return
		}
		b.state = Closed
	case Open:
		// A straggler finished after the trip; the verdict is stale.
	}
}

// trip opens the breaker. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.clock.Now()
	b.fails = 0
}

// State returns the breaker's stored position (an Open breaker past its
// cooldown reports Open until the next call moves it to HalfOpen).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
