// Package resilience holds the fault-tolerance pieces of the fleet
// control plane: a circuit breaker and a retry with jittered backoff,
// which pace the vehicle-side fleet agent's sync round, and bulkheads,
// which compartment fleetd's per-vehicle-group ingestion so one
// flooding group sheds load without starving others.
//
// Every piece runs on an injectable Clock, so unit and chaos tests run
// entirely in virtual time — no real sleeps, deterministic under
// -race.
//
// Errors are typed, not stringly: ErrCircuitOpen, ErrBulkheadFull and
// ErrTimeout are errors.Is-matchable.
package resilience

import (
	"context"
	"errors"
)

// Typed errors. Callers match with errors.Is.
var (
	// ErrCircuitOpen: the breaker is open (or the single half-open probe
	// slot is taken); the call was short-circuited without reaching the
	// operation.
	ErrCircuitOpen = errors.New("resilience: circuit open")
	// ErrBulkheadFull: the bulkhead's concurrent admissions and bounded
	// queue are both full; the call was shed.
	ErrBulkheadFull = errors.New("resilience: bulkhead full")
	// ErrTimeout: the operation outlived its own deadline. Unlike
	// context.DeadlineExceeded, which is a caller abort, it is a failure:
	// retries retry it and breakers count it.
	ErrTimeout = errors.New("resilience: operation timed out")
)

// Op is one guarded operation.
type Op func(ctx context.Context) error

// abortive reports whether err is a caller-side abort (context
// cancellation or deadline) rather than an operation failure. Breakers
// do not count aborts as failures and retries do not retry them.
func abortive(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
