// Package resilience is a small composable policy kit for the fleet
// control plane: circuit breaker, bulkhead, retry with jittered
// backoff, timeout, and fallback, each implementing one Policy
// interface and stackable with Stack. The vehicle-side fleet agent
// wraps its poll/upload RPCs in a stack (breaker + retry + timeout +
// fallback-to-cached-bundle) so a slow or flapping control plane never
// stalls the decision loop; fleetd wraps per-vehicle-group ingestion in
// bulkheads so one flooding group sheds load without starving others.
//
// Every policy takes an injectable Clock, so unit and chaos tests run
// entirely in virtual time — no real sleeps, deterministic under
// -race. Per-policy state counters are built on internal/shard's
// sharded counters and surfaced through Stats for the securityfs-style
// renders (`sackctl fleet status`, `sackmon -fleet`).
//
// Errors are typed, not stringly: ErrCircuitOpen, ErrBulkheadFull,
// ErrTimeout are errors.Is-matchable through any stack
// and map onto distinct HTTP statuses at the fleetd boundary (see
// HTTPStatus).
package resilience

import (
	"context"
	"errors"
	"net/http"
	"sync"
)

// Typed policy errors. Callers match with errors.Is; the fleet HTTP
// layer maps them to distinct status codes and back.
var (
	// ErrCircuitOpen: the breaker is open (or the single half-open probe
	// slot is taken); the call was short-circuited without reaching the
	// operation.
	ErrCircuitOpen = errors.New("resilience: circuit open")
	// ErrBulkheadFull: the bulkhead's concurrent admissions and bounded
	// queue are both full; the call was shed.
	ErrBulkheadFull = errors.New("resilience: bulkhead full")
	// ErrTimeout: the operation exceeded the timeout policy's limit. The
	// operation's context is cancelled with this cause.
	ErrTimeout = errors.New("resilience: operation timed out")
)

// HTTPStatus maps the typed error taxonomy onto distinct HTTP status
// codes — the contract fleetd serves and the fleet client inverts, so
// callers on either side of the wire match typed errors instead of
// strings. Unrecognised errors map to 500.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrBulkheadFull):
		return http.StatusTooManyRequests // 429: shed, retry later
	case errors.Is(err, ErrCircuitOpen):
		return http.StatusServiceUnavailable // 503: short-circuited
	case errors.Is(err, ErrTimeout):
		return http.StatusGatewayTimeout // 504: gave up waiting
	default:
		return http.StatusInternalServerError
	}
}

// Op is one guarded operation. Implementations must honour ctx: the
// timeout policy cancels it (with an ErrTimeout cause) to abandon an
// attempt.
type Op func(ctx context.Context) error

// Policy guards the execution of an operation. Implementations are
// safe for concurrent use; a policy instance carries state (breaker
// trips, bulkhead occupancy), so share one instance across the calls
// it should govern.
type Policy interface {
	// Do runs op under the policy and returns its error, or a typed
	// policy error when the call was short-circuited, shed, or timed
	// out.
	Do(ctx context.Context, op Op) error
}

// PolicyStats is one policy's observable state: a kind tag, the
// current state (breakers), and monotonic counters.
type PolicyStats struct {
	Policy   string            `json:"policy"`          // "breaker", "bulkhead", ...
	State    string            `json:"state,omitempty"` // breaker: closed/open/half-open
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// Observable is implemented by policies that expose state counters.
type Observable interface {
	Stats() PolicyStats
}

// abortive reports whether err is a caller-side abort (context
// cancellation or deadline) rather than an operation failure. Breakers
// do not count aborts as failures and retries do not retry them.
func abortive(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Detaching marks policies that can return from Do while the guarded
// operation is still running in a goroutine they abandoned (Timeout
// after the limit). A stack containing one —
// at any nesting depth — never reuses call frames, because the zombie
// attempt keeps referencing its frame after Do returns.
type Detaching interface {
	Detaches()
}

// stack composes policies outermost-first. For stacks of purely
// synchronous policies, frames are pooled and the per-level closures
// are bound once per frame, so a stacked happy path adds no per-call
// allocations over the bare call (see BenchmarkResilienceOverhead).
// Stacks containing a Detaching policy allocate one fresh frame per
// call instead, which is what keeps an abandoned in-flight attempt
// safe: its frame is simply garbage once it finishes, never handed to
// another call.
type stack struct {
	policies []Policy
	pooled   bool
	frames   sync.Pool
}

type stackFrame struct {
	s     *stack
	op    Op
	bound []Op // bound[i] runs level i; created once per frame
}

// Stack composes policies into one: Stack(a, b, c).Do(ctx, op) runs
// a.Do wrapping b.Do wrapping c.Do wrapping op — the first policy is
// outermost. Stacking zero policies returns a passthrough; stacking
// one returns it unchanged.
func Stack(policies ...Policy) Policy {
	switch len(policies) {
	case 0:
		return passthrough{}
	case 1:
		return policies[0]
	}
	s := &stack{policies: policies, pooled: true}
	for _, p := range policies {
		if detaches(p) {
			s.pooled = false
			break
		}
	}
	s.frames.New = func() any {
		f := &stackFrame{s: s, bound: make([]Op, len(policies)+1)}
		for i := range f.bound {
			level := i
			f.bound[i] = func(ctx context.Context) error { return f.call(ctx, level) }
		}
		return f
	}
	return s
}

// detaches reports whether p (or any member, for nested stacks) can
// abandon an in-flight attempt after Do returns.
func detaches(p Policy) bool {
	switch v := p.(type) {
	case Detaching:
		return true
	case *stack:
		return !v.pooled
	}
	return false
}

func (f *stackFrame) call(ctx context.Context, level int) error {
	if level == len(f.s.policies) {
		return f.op(ctx)
	}
	return f.s.policies[level].Do(ctx, f.bound[level+1])
}

// Do implements Policy.
func (s *stack) Do(ctx context.Context, op Op) error {
	if !s.pooled {
		// A detaching member (timeout) may keep running op in an
		// abandoned goroutine after we return, so this frame can never
		// be recycled — let the abandoned attempt keep it alive and the
		// GC reclaim it afterwards.
		f := s.frames.New().(*stackFrame)
		f.op = op
		return f.call(ctx, 0)
	}
	f := s.frames.Get().(*stackFrame)
	f.op = op
	err := f.call(ctx, 0)
	f.op = nil
	s.frames.Put(f)
	return err
}

// Stats implements Observable: the stats of every observable member,
// outermost first.
func (s *stack) Stats() PolicyStats {
	// A stack has no state of its own; StatsOf flattens members.
	return PolicyStats{Policy: "stack"}
}

// Policies returns the stack members, outermost first (a single policy
// or passthrough returns itself/nothing via StatsOf instead).
func (s *stack) Policies() []Policy { return s.policies }

type passthrough struct{}

func (passthrough) Do(ctx context.Context, op Op) error { return op(ctx) }

// StatsOf flattens the observable state of a policy: a stack yields
// one entry per observable member (outermost first), a bare observable
// policy yields one entry, anything else none.
func StatsOf(p Policy) []PolicyStats {
	switch v := p.(type) {
	case *stack:
		var out []PolicyStats
		for _, member := range v.policies {
			out = append(out, StatsOf(member)...)
		}
		return out
	case Observable:
		return []PolicyStats{v.Stats()}
	default:
		return nil
	}
}

// BreakerOf returns the first circuit breaker found in p (walking into
// stacks, outermost first), or nil — the introspection hook status
// surfaces use to report breaker state.
func BreakerOf(p Policy) *Breaker {
	switch v := p.(type) {
	case *Breaker:
		return v
	case *stack:
		for _, member := range v.policies {
			if b := BreakerOf(member); b != nil {
				return b
			}
		}
	}
	return nil
}
