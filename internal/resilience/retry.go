package resilience

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/shard"
)

// Retry defaults; the fleet agent's sync rounds back off on these.
const (
	DefaultRetryBase = 100 * time.Millisecond
	DefaultRetryMax  = 5 * time.Second
)

// RetryConfig tunes a retry policy. Zero values select defaults.
type RetryConfig struct {
	// Attempts bounds total tries (first call included); 0 means retry
	// until success or context cancellation.
	Attempts int
	// Base is the first backoff ceiling; it doubles after every failure
	// up to Max (full jitter: each pause is uniform in [0, ceiling]).
	Base time.Duration
	// Max caps the backoff ceiling.
	Max time.Duration
	// Seed seeds the jitter stream, making the backoff schedule
	// deterministic for a given failure sequence. 0 derives a seed from
	// the wall clock.
	Seed int64
	// Clock performs the backoff sleeps (default RealClock).
	Clock Clock
	// RetryOn, when set, restricts which errors are retried. Context
	// cancellation is never retried regardless.
	RetryOn func(error) bool
}

// Retry re-runs a failed operation with exponentially growing, fully
// jittered backoff — the kit form of the fleet agent's historical
// hand-rolled loop: pause ~ Uniform[0, ceiling], ceiling doubling from
// Base to Max. Caller-side aborts (context cancellation) are returned
// immediately, never retried.
type Retry struct {
	cfg RetryConfig

	mu  sync.Mutex
	rng *rand.Rand

	retries shard.Counter
	giveUps shard.Counter
}

// NewRetry builds a retry policy.
func NewRetry(cfg RetryConfig) *Retry {
	if cfg.Base <= 0 {
		cfg.Base = DefaultRetryBase
	}
	if cfg.Max <= 0 {
		cfg.Max = DefaultRetryMax
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Retry{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(seed)),
		retries: shard.NewCounter(),
		giveUps: shard.NewCounter(),
	}
}

// Do implements Policy.
func (r *Retry) Do(ctx context.Context, op Op) error {
	ceiling := r.cfg.Base
	for attempt := 1; ; attempt++ {
		err := op(ctx)
		if err == nil {
			return nil
		}
		if abortive(err) || (r.cfg.RetryOn != nil && !r.cfg.RetryOn(err)) {
			return err
		}
		if r.cfg.Attempts > 0 && attempt >= r.cfg.Attempts {
			r.giveUps.Add(1)
			return err
		}
		if serr := r.cfg.Clock.Sleep(ctx, r.pause(ceiling)); serr != nil {
			return err // context ended during backoff; surface the op error
		}
		ceiling *= 2
		if ceiling > r.cfg.Max {
			ceiling = r.cfg.Max
		}
		r.retries.Add(1)
	}
}

// pause draws one fully jittered backoff from the seeded stream:
// uniform in [0, ceiling].
func (r *Retry) pause(ceiling time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.rng.Int63n(int64(ceiling) + 1))
}

// Stats implements Observable.
func (r *Retry) Stats() PolicyStats {
	return PolicyStats{
		Policy: "retry",
		Counters: map[string]uint64{
			"retries":  r.retries.Load(),
			"give_ups": r.giveUps.Load(),
		},
	}
}
