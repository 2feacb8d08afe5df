package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sign"
)

// Applier is the vehicle-side apply primitive: PR 3's transactional
// reload. *sack.System satisfies it; tests use fakes. A reload that
// fails validation or commit returns an error and leaves the running
// policy untouched — the agent reports the failure and stays on its
// current generation.
type Applier interface {
	Reload(src string) (policy.DiffReport, error)
}

// CompiledApplier is the compile-once fast path: an Applier that can
// also install an already compiled artifact directly. *sack.System
// satisfies it (ReloadCompiled). When a fetched bundle carries the
// control plane's compiled policy — the in-process transport does — the
// agent prefers this and skips the per-vehicle parse/validate/compile
// pass entirely; bundles arriving over the wire (Compiled == nil after
// decode) fall back to Reload.
type CompiledApplier interface {
	Applier
	ReloadCompiled(compiled *policy.Compiled, source string) (policy.DiffReport, error)
}

// Agent defaults.
const (
	DefaultPollWait  = 5 * time.Second
	DefaultInterval  = time.Second
	DefaultBatchSize = 256
)

// AgentConfig wires one vehicle's agent.
type AgentConfig struct {
	Vehicle   string
	Group     string
	Transport Transport
	Applier   Applier
	// Audit is the vehicle's kernel audit ring; the agent exports it
	// incrementally through the cursor API. Optional: without it the
	// agent only distributes bundles.
	Audit *lsm.AuditLog
	// Pipeline, when set, lets status reports carry the vehicle's
	// degraded/failsafe-pinned health.
	Pipeline *core.Pipeline
	// Keyring, when non-empty, makes bundle signatures mandatory: a
	// fetched bundle whose detached signature fails verification —
	// unsigned, unknown key-id, wrong algorithm, tampered payload — is
	// refused before it reaches the reload path, counted in
	// VehicleStatus.SigRejects, and the attempt fails (a round whose
	// attempts all fail degrades to the cached bundle). Nil or empty
	// keeps the legacy checksum-only behaviour.
	Keyring *sign.Keyring

	PollWait  time.Duration // long-poll hold time for FetchBundle
	Interval  time.Duration // pause between successful sync rounds
	BatchSize int           // max records per UploadLogs call
}

// AgentOption customises an Agent beyond AgentConfig.
type AgentOption func(*Agent)

// WithAgentClock injects the clock that paces the agent's Run loop, its
// retry backoff and its breaker cooldown. Tests pass a
// resilience.VirtualClock to drive the agent in virtual time.
func WithAgentClock(c resilience.Clock) AgentOption {
	return func(a *Agent) { a.clock = c }
}

// Agent is the vehicle-side fleet client: it polls the control plane
// for policy bundles, applies them through the kernel's transactional
// reload, reports status, and ships the audit ring upstream in batches.
// Sync runs one round of retried, breaker-gated attempts that degrades
// to the cached bundle.
type Agent struct {
	cfg     AgentConfig
	clock   resilience.Clock
	retry   *resilience.Retry
	breaker *resilience.Breaker

	mu      sync.Mutex
	etag    string
	applied policy.Bundle
	diff    string
	cursor  uint64 // audit-ring cursor: highest Seq exported or written off
	ledger  struct {
		uploaded uint64
		dropped  uint64
	}
	pending    []LogRecord // exported from the ring, not yet accepted upstream
	syncs      uint64
	syncFails  uint64
	fallbacks  uint64 // rounds degraded to the cached bundle
	shedSeen   uint64 // rounds shed by a server-side bulkhead (429)
	sigRejects uint64 // bundles refused on signature verification
	lastErr    string
}

// DeriveJitterSeed seeds the default retry's jitter: a small
// polynomial hash of the vehicle ID, so every vehicle gets a distinct,
// reproducible jitter stream without configuration.
func DeriveJitterSeed(vehicle string) int64 {
	var seed int64
	for _, c := range vehicle {
		seed = seed*131 + int64(c)
	}
	return seed
}

// NewAgent validates the config and builds an agent. Its sync rounds
// retry with full-jitter exponential backoff (resilience.Retry), seeded
// by DeriveJitterSeed(cfg.Vehicle).
func NewAgent(cfg AgentConfig, opts ...AgentOption) (*Agent, error) {
	if cfg.Vehicle == "" || cfg.Group == "" {
		return nil, fmt.Errorf("fleet: agent needs a vehicle id and group")
	}
	if cfg.Transport == nil || cfg.Applier == nil {
		return nil, fmt.Errorf("fleet: agent needs a transport and an applier")
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = DefaultPollWait
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	a := &Agent{cfg: cfg, clock: resilience.RealClock{}}
	for _, opt := range opts {
		opt(a)
	}
	a.retry = resilience.NewRetry(DeriveJitterSeed(cfg.Vehicle), a.clock)
	a.breaker = resilience.NewBreaker(a.clock)
	return a, nil
}

// SyncOnce runs one bare attempt, with no retry, breaker or fallback:
// fetch (long-poll) → verify → apply → export logs → report status. It
// returns the first transport or apply error; partial progress (an
// applied bundle, uploaded batches) is kept and the next attempt
// resumes from it. Sync runs this as each attempt of its round.
func (a *Agent) SyncOnce() error {
	err := a.syncBundle()
	if uerr := a.shipLogs(); err == nil {
		err = uerr
	}
	if rerr := a.cfg.Transport.ReportStatus(a.Status()); err == nil {
		err = rerr
	}
	a.mu.Lock()
	a.syncs++
	if err != nil {
		a.syncFails++
		if errors.Is(err, resilience.ErrBulkheadFull) {
			a.shedSeen++
		}
		a.lastErr = err.Error()
	} else {
		a.lastErr = ""
	}
	a.mu.Unlock()
	return err
}

// Sync runs one round on the caller's goroutine: up to
// resilience.DefaultRetryAttempts (4) attempts of SyncOnce, with pauses
// uniform in [0, 100 ms], [0, 200 ms] and [0, 400 ms] between them.
// Each attempt is gated by the breaker: once
// resilience.DefaultBreakerFailures attempts in a row have failed, it
// short-circuits attempts until its 1 s cooldown lapses, so a dead
// control plane costs a round no transport call. Every attempt has
// returned before the next starts, so a slow attempt can never land
// after a newer one. When every attempt fails and a bundle is already
// applied, the round degrades to that cached bundle: it counts one
// fallback and returns nil. Otherwise, and when ctx ends mid-round, it
// returns the last attempt's error.
func (a *Agent) Sync(ctx context.Context) error {
	err := a.retry.Do(ctx, a.attempt)
	if err == nil || ctx.Err() != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.applied.Generation == 0 {
		return err
	}
	a.fallbacks++
	return nil
}

// attempt is one breaker-gated SyncOnce, skipped once ctx has ended
// (the transports predate contexts).
func (a *Agent) attempt(ctx context.Context) error {
	return a.breaker.Do(ctx, func(ctx context.Context) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return a.SyncOnce()
	})
}

func (a *Agent) syncBundle() error {
	a.mu.Lock()
	etag := a.etag
	a.mu.Unlock()

	b, modified, err := a.cfg.Transport.FetchBundle(a.cfg.Vehicle, a.cfg.Group, etag, a.cfg.PollWait)
	if err != nil {
		return fmt.Errorf("fetch bundle: %w", err)
	}
	if !modified {
		return nil
	}
	// End-to-end integrity: recompute the checksum over the received
	// source before it reaches the reload path. A corrupted transport
	// surfaces here and the agent retries rather than applying garbage.
	if got := policy.ChecksumSource(b.Source); got != b.Checksum {
		return fmt.Errorf("fleet: bundle %s checksum mismatch (got %s)", b.ETag(), got)
	}
	// End-to-end authenticity: with a keyring configured, the detached
	// signature must verify over the canonical encoding (which binds
	// group and generation, so a replayed or transplanted signature
	// fails too). A rejected bundle never reaches the reload path; the
	// vehicle keeps deciding on its cached bundle.
	if !a.cfg.Keyring.Empty() {
		if err := a.cfg.Keyring.Verify(b.KeyID, b.SigAlg, b.SignedPayload(), b.SignatureBytes()); err != nil {
			a.mu.Lock()
			a.sigRejects++
			a.mu.Unlock()
			return fmt.Errorf("fleet: bundle %s refused: %w", b.ETag(), err)
		}
	}
	var diff policy.DiffReport
	if ca, ok := a.cfg.Applier.(CompiledApplier); ok && b.Compiled != nil {
		diff, err = ca.ReloadCompiled(b.Compiled, b.Source)
	} else {
		diff, err = a.cfg.Applier.Reload(b.Source)
	}
	if err != nil {
		return fmt.Errorf("apply bundle %s: %w", b.ETag(), err)
	}
	a.mu.Lock()
	a.etag = b.ETag()
	a.applied = b
	a.diff = diff.Summary()
	a.mu.Unlock()
	return nil
}

// shipLogs drains the audit ring through its cursor into bounded
// batches. Ring overwrites that outran the cursor are written off as
// dropped immediately — the cursor then points past the gap, so a
// retry never double-counts the same loss. Batches that fail to upload
// stay pending and are retried (at least once delivery); the server
// deduplicates by sequence number.
func (a *Agent) shipLogs() error {
	if a.cfg.Audit == nil {
		return nil
	}
	recs, next, missed := a.cfg.Audit.Since(a.cursorSnapshot())
	a.mu.Lock()
	if missed > 0 {
		a.ledger.dropped += missed
	}
	a.cursor = next
	for _, r := range recs {
		a.pending = append(a.pending, FromAudit(r))
	}
	pending := a.pending
	a.mu.Unlock()

	for len(pending) > 0 {
		n := len(pending)
		if n > a.cfg.BatchSize {
			n = a.cfg.BatchSize
		}
		accepted, err := a.cfg.Transport.UploadLogs(a.cfg.Vehicle, pending[:n])
		// Count whatever the server newly took even when the call also
		// errored (a duplicated upload whose second leg failed): the
		// retry will be deduplicated, so this is the only time these
		// records count.
		if accepted > 0 {
			a.mu.Lock()
			a.ledger.uploaded += uint64(accepted)
			a.mu.Unlock()
		}
		if err != nil {
			// Keep the unshipped batch pending for the next round; the
			// server dedupes by sequence, so re-sending is safe.
			a.mu.Lock()
			a.pending = pending
			a.mu.Unlock()
			return fmt.Errorf("upload logs: %w", err)
		}
		pending = pending[n:]
	}
	a.mu.Lock()
	a.pending = nil
	a.mu.Unlock()
	return nil
}

func (a *Agent) cursorSnapshot() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cursor
}

// Status snapshots the agent's view for a ReportStatus upload,
// including the resilience surface: breaker position, rounds shed by
// server-side bulkheads, rounds degraded to the cached bundle.
func (a *Agent) Status() VehicleStatus {
	a.mu.Lock()
	st := VehicleStatus{
		Vehicle:           a.cfg.Vehicle,
		Group:             a.cfg.Group,
		AppliedGeneration: a.applied.Generation,
		Checksum:          a.applied.Checksum,
		DiffSummary:       a.diff,
		Uploaded:          a.ledger.uploaded,
		Dropped:           a.ledger.dropped,
		Fallbacks:         a.fallbacks,
		Shed:              a.shedSeen,
		SigRejects:        a.sigRejects,
	}
	a.mu.Unlock()
	st.Breaker = a.breaker.State().String()
	if a.cfg.Audit != nil {
		st.Emitted = a.cfg.Audit.Emitted()
	}
	if a.cfg.Pipeline != nil {
		st.Degraded = a.cfg.Pipeline.Degraded()
		st.Pinned = a.cfg.Pipeline.Pinned()
	}
	if ws, ok := a.cfg.Transport.(WireStatser); ok {
		w := ws.WireStats()
		st.WireBytesOut = w.BytesOut
		st.WireRawBytesOut = w.RawBytesOut
		st.WireBytesIn = w.BytesIn
		st.DeltaPulls = w.DeltaPulls
		st.FullPulls = w.FullPulls
	}
	return st
}

// AppliedGeneration returns the bundle generation the vehicle runs.
func (a *Agent) AppliedGeneration() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied.Generation
}

// Fallbacks returns how many rounds degraded to the cached bundle.
func (a *Agent) Fallbacks() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fallbacks
}

// SigRejects returns how many bundles were refused on signature
// verification.
func (a *Agent) SigRejects() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sigRejects
}

// LastError returns the most recent sync error ("" after a clean
// round).
func (a *Agent) LastError() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastErr
}

// Run loops sync rounds until the context ends, pausing Interval
// between them on the agent's clock. Failure pacing lives in the round:
// full-jitter backoff, so a fleet knocked loose by a server restart
// does not stampede back in lockstep, and the breaker and cached-bundle
// fallback, so a dead control plane never blocks the decision loop.
func (a *Agent) Run(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
		a.Sync(ctx)
		if ctx.Err() != nil {
			return
		}
		if err := a.clock.Sleep(ctx, a.cfg.Interval); err != nil {
			return
		}
	}
}
