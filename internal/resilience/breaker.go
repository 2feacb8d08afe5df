package resilience

import (
	"context"
	"sync"
	"time"

	"repro/internal/shard"
)

// BreakerState is the circuit breaker's position.
type BreakerState int32

// Breaker states.
const (
	Closed   BreakerState = iota // calls flow; consecutive failures are counted
	Open                         // calls short-circuit with ErrCircuitOpen until the cooldown lapses
	HalfOpen                     // one probe call at a time; successes close, a failure re-opens
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

// Breaker defaults.
const (
	DefaultBreakerFailures = 5
	DefaultBreakerCooldown = time.Second
	DefaultBreakerProbes   = 1
)

// BreakerConfig tunes a circuit breaker. Zero values select defaults.
type BreakerConfig struct {
	// Failures is how many consecutive failures trip the breaker.
	Failures int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe.
	Cooldown time.Duration
	// Probes is how many consecutive half-open successes close the
	// breaker again.
	Probes int
	// Clock drives cooldown timing (default RealClock).
	Clock Clock
}

// Breaker is a deterministic closed/open/half-open circuit breaker:
// Failures consecutive failures trip it open; after Cooldown one probe
// call at a time is admitted; Probes consecutive probe successes close
// it, any probe failure re-opens it. While open (or while the probe
// slot is taken) calls fail fast with ErrCircuitOpen — the operation is
// never invoked, which is what keeps a vehicle's poll loop latency
// bounded when the control plane stalls.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	fails    int  // consecutive failures while closed
	probeOK  int  // consecutive successes while half-open
	probing  bool // a half-open probe is in flight
	openedAt time.Time

	successes shard.Counter
	failures  shard.Counter
	trips     shard.Counter
	shorts    shard.Counter // short-circuited calls
}

// NewBreaker builds a circuit breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Failures <= 0 {
		cfg.Failures = DefaultBreakerFailures
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerCooldown
	}
	if cfg.Probes <= 0 {
		cfg.Probes = DefaultBreakerProbes
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	return &Breaker{
		cfg:       cfg,
		successes: shard.NewCounter(),
		failures:  shard.NewCounter(),
		trips:     shard.NewCounter(),
		shorts:    shard.NewCounter(),
	}
}

// Do implements Policy.
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
		if b.cfg.Clock.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.shorts.Add(1)
			return false, ErrCircuitOpen
		}
		b.state = HalfOpen
		b.probeOK = 0
		b.probing = true
		return true, nil
	case HalfOpen:
		if b.probing {
			b.shorts.Add(1)
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
	if opErr != nil && abortive(opErr) {
		if probe {
			b.mu.Lock()
			b.probing = false
			b.mu.Unlock()
		}
		return
	}
	if opErr == nil {
		b.successes.Add(1)
	} else {
		b.failures.Add(1)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	switch b.state {
	case Closed:
		if opErr == nil {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.cfg.Failures {
			b.trip()
		}
	case HalfOpen:
		if !probe {
			// A straggler admitted before the trip; its verdict belongs
			// to the old closed window, not the probe sequence.
			return
		}
		if opErr != nil {
			b.trip()
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.Probes {
			b.state = Closed
			b.fails = 0
		}
	case Open:
		// A straggler finished after the trip; the verdict is stale.
	}
}

// trip opens the breaker. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.cfg.Clock.Now()
	b.fails = 0
	b.probeOK = 0
	b.trips.Add(1)
}

// State returns the breaker's current position, accounting for a lapsed
// cooldown (an Open breaker past its cooldown reports Open until the
// next call transitions it; renders show the stored state).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats implements Observable.
func (b *Breaker) Stats() PolicyStats {
	return PolicyStats{
		Policy: "breaker",
		State:  b.State().String(),
		Counters: map[string]uint64{
			"successes":      b.successes.Load(),
			"failures":       b.failures.Load(),
			"trips":          b.trips.Load(),
			"short_circuits": b.shorts.Load(),
		},
	}
}
