package resilience

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// Retry tuning; the fleet agent's sync rounds run on it.
const (
	// DefaultRetryAttempts bounds one retried operation, the first call
	// included.
	DefaultRetryAttempts = 4
	// DefaultRetryBase is the first pause's ceiling; each later pause's
	// ceiling doubles, so DefaultRetryAttempts attempts pause at most
	// 100, 200 and 400 ms.
	DefaultRetryBase = 100 * time.Millisecond
)

// Retry re-runs a failed operation on the caller's goroutine, up to
// DefaultRetryAttempts attempts, with exponentially growing, fully
// jittered backoff: pause k ~ Uniform[0, DefaultRetryBase·2^(k-1)].
// Caller-side aborts (context cancellation) are returned immediately,
// never retried.
type Retry struct {
	clock Clock

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetry builds a retry whose jitter stream is seeded by seed, making
// the backoff schedule deterministic for a given failure sequence, and
// whose pauses run on clock. The stream is a PCG generator: 16 bytes of
// state, where math/rand's source carries a 4.9 KiB table, which every
// fleet agent would hold.
func NewRetry(seed int64, clock Clock) *Retry {
	return &Retry{clock: clock, rng: rand.New(rand.NewPCG(uint64(seed), 0))}
}

// Do runs op until it succeeds, fails abortively, or has used every
// attempt, and returns its last error.
func (r *Retry) Do(ctx context.Context, op Op) error {
	ceiling := DefaultRetryBase
	for attempt := 1; ; attempt++ {
		err := op(ctx)
		if err == nil || abortive(err) || attempt >= DefaultRetryAttempts {
			return err
		}
		if serr := r.clock.Sleep(ctx, r.pause(ceiling)); serr != nil {
			return err // context ended during backoff; surface the op error
		}
		ceiling *= 2
	}
}

// pause draws one fully jittered backoff from the seeded stream:
// uniform in [0, ceiling].
func (r *Retry) pause(ceiling time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.rng.Int64N(int64(ceiling) + 1))
}
