package resilience

import (
	"context"
	"testing"
	"time"
)

// happyStack is the agent-shaped stack minus the policies that
// inherently spawn goroutines (timeout): those buy isolation at
// the cost of a goroutine + channel per call and are excluded from the
// zero-alloc guarantee.
func happyStack() Policy {
	return Stack(
		NewFallback(nil, func(ctx context.Context, err error) error { return err }),
		NewBreaker(BreakerConfig{Failures: 5, Cooldown: time.Second}),
		NewBulkhead(BulkheadConfig{Capacity: 64, Queue: 256}),
		NewRetry(RetryConfig{Attempts: 3, Base: time.Millisecond, Seed: 1}),
	)
}

// TestStackHappyPathZeroAllocs is the in-tree guard for the benchmark
// claim: a wrapped successful call must not allocate.
func TestStackHappyPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc count is not meaningful")
	}
	p := happyStack()
	ctx := context.Background()
	op := Op(func(context.Context) error { return nil })
	// Warm the frame pool.
	if err := p.Do(ctx, op); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := p.Do(ctx, op); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("stacked happy path allocates %.2f objects/call, want 0", avg)
	}
}

// TestResilienceOverheadGuard is the bench-smoke regression fence for
// the stack's happy-path cost: a wrapped successful call must stay
// under 1µs. (The measured overhead is ~150ns — the slack absorbs CI
// noise.)
func TestResilienceOverheadGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("timing fence is not meaningful under -race instrumentation")
	}
	p := happyStack()
	ctx := context.Background()
	op := Op(func(context.Context) error { return nil })
	best := time.Duration(1 << 62)
	const rounds, iters = 5, 20000
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := p.Do(ctx, op); err != nil {
				t.Fatal(err)
			}
		}
		if d := time.Since(start) / iters; d < best {
			best = d
		}
	}
	t.Logf("stacked happy path: %v/op", best)
	if best > time.Microsecond {
		t.Errorf("stacked happy path took %v/op, budget 1µs", best)
	}
}

// BenchmarkResilienceOverhead measures the cost a full
// breaker+bulkhead+retry+fallback stack adds to a trivial successful
// operation. make bench-smoke asserts 0 allocs/op and <1µs/op.
func BenchmarkResilienceOverhead(b *testing.B) {
	p := happyStack()
	ctx := context.Background()
	op := Op(func(context.Context) error { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Do(ctx, op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBareOp is the baseline for BenchmarkResilienceOverhead.
func BenchmarkBareOp(b *testing.B) {
	ctx := context.Background()
	op := Op(func(context.Context) error { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
