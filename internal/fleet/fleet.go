// Package fleet is the control plane that scales SACK from one vehicle
// to a fleet: a server holding a versioned, checksummed policy-bundle
// registry with per-vehicle-group assignment and a decision-log
// ingestion endpoint, and a vehicle-side agent that polls for bundles,
// applies them through the kernel's transactional reload, and ships
// batched audit records upstream.
//
// The shape follows the proven bundle/decision-log architecture of
// agent-based policy engines (and SEAndroid's fleet-scale policy
// evolution): the server never pushes into a vehicle — vehicles pull
// on their own schedule with jittered backoff, so a million-vehicle
// fleet is a million independent pollers against a read-mostly
// registry, not a fan-out coordination problem. Three transports are
// provided: the Server itself (in-process, for tests, benchmarks, and
// single-binary simulations), an HTTP client/handler pair (cmd/fleetd),
// and a fault-injecting wrapper that subjects any transport to the
// drop/delay/duplicate/stall taxonomy of internal/faults.
//
// Ledger-exact accounting is a design invariant, not best effort: every
// audit record a vehicle emits is eventually either accepted by the
// server exactly once (duplicates from at-least-once retries are
// deduplicated by sequence number) or counted dropped (ring overwrite
// before export), so `accepted + dropped == emitted` holds for every
// vehicle at quiescence.
package fleet

import (
	"errors"
	"time"

	"repro/internal/lsm"
	"repro/internal/policy"
)

// Typed transport/ingestion errors, errors.Is-matchable through every
// transport (the HTTP client maps status codes back onto them).
var (
	// ErrBackpressure: the server's decision-log buffer cannot take the
	// batch; the agent keeps the records and retries with backoff.
	ErrBackpressure = errors.New("fleet: decision-log buffer full")
	// ErrUnknownGroup: no bundle has ever been published for the group.
	ErrUnknownGroup = errors.New("fleet: unknown vehicle group")
	// ErrDropped is what an injected transport drop surfaces as.
	ErrDropped = errors.New("fleet: injected transport drop")
	// ErrInvariantViolation: the publish-time verifier proved the bundle
	// violates the group's (or its own embedded) invariant set; the
	// wrapped message carries the witness trace. Nothing was published.
	ErrInvariantViolation = errors.New("fleet: bundle violates invariants")
	// ErrRolloutActive: the group has a staged rollout in flight; direct
	// publishes are refused until it completes, halts, or is aborted.
	ErrRolloutActive = errors.New("fleet: staged rollout in flight for group")
	// ErrNoRollout: a rollout operation named a group with none active.
	ErrNoRollout = errors.New("fleet: no rollout in flight for group")
	// ErrRolloutHalted: the rollout brake tripped — a canary cohort
	// regressed on denial rate or failsafe pinning and every vehicle was
	// pinned back to the stable bundle.
	ErrRolloutHalted = errors.New("fleet: rollout halted on regression")
)

// LogRecord is one decision-log (audit) record in transit. It mirrors
// lsm.AuditRecord; the Seq is the vehicle-local audit cursor the server
// deduplicates on.
type LogRecord struct {
	Seq     uint64    `json:"seq"`
	When    time.Time `json:"when"`
	Module  string    `json:"module"`
	Op      string    `json:"op"`
	Subject string    `json:"subject,omitempty"`
	Object  string    `json:"object,omitempty"`
	Action  string    `json:"action"`
	Detail  string    `json:"detail,omitempty"`
}

// FromAudit converts a kernel audit record for upload.
func FromAudit(r lsm.AuditRecord) LogRecord {
	return LogRecord{
		Seq: r.Seq, When: r.When, Module: r.Module, Op: r.Op,
		Subject: r.Subject, Object: r.Object, Action: r.Action, Detail: r.Detail,
	}
}

// VehicleStatus is one agent → server report: which bundle generation
// the vehicle runs, what the reload transaction said, the pipeline's
// health, and the vehicle-side decision-log ledger.
type VehicleStatus struct {
	Vehicle           string `json:"vehicle"`
	Group             string `json:"group"`
	AppliedGeneration uint64 `json:"applied_generation"`
	Checksum          string `json:"checksum,omitempty"`     // of the applied bundle
	DiffSummary       string `json:"diff_summary,omitempty"` // DiffReport the reload applied
	Degraded          bool   `json:"degraded,omitempty"`
	Pinned            bool   `json:"pinned,omitempty"`
	// Decision-log ledger, agent side: records emitted by the audit
	// ring, records shipped upstream, records lost before export.
	Emitted  uint64 `json:"emitted"`
	Uploaded uint64 `json:"uploaded"`
	Dropped  uint64 `json:"dropped"`
	// Resilience surface, agent side: the sync round's circuit breaker
	// position (closed, open or half-open), attempts shed by a
	// server-side bulkhead, rounds degraded to the cached bundle.
	Breaker   string `json:"breaker,omitempty"`
	Shed      uint64 `json:"shed,omitempty"`
	Fallbacks uint64 `json:"fallbacks,omitempty"`
	// SigRejects counts bundles the agent refused to apply because their
	// signature failed keyring verification (unsigned, unknown key,
	// tampered payload).
	SigRejects uint64 `json:"sig_rejects,omitempty"`
	// Wire surface, filled when the transport does client-side wire
	// accounting (WireStatser — the HTTP client does, the in-process
	// transport has no wire): the bytes the vehicle put on / took off
	// the wire, and how many bundle pulls were served as deltas vs full
	// bodies.
	WireBytesOut    uint64 `json:"wire_bytes_out,omitempty"`
	WireRawBytesOut uint64 `json:"wire_raw_bytes_out,omitempty"` // pre-compression
	WireBytesIn     uint64 `json:"wire_bytes_in,omitempty"`
	DeltaPulls      uint64 `json:"delta_pulls,omitempty"`
	FullPulls       uint64 `json:"full_pulls,omitempty"`
}

// AgentWireStats is a transport's client-side wire accounting, exposed
// through WireStatser so agents can fold it into their status reports.
type AgentWireStats struct {
	BytesOut    uint64 // log-upload bytes put on the wire
	RawBytesOut uint64 // the same uploads before compression
	BytesIn     uint64 // bundle/delta bytes taken off the wire
	DeltaPulls  uint64
	FullPulls   uint64
}

// WireStatser is implemented by transports that account their wire
// traffic (Client does; the in-process Server, which has no wire, does
// not).
type WireStatser interface {
	WireStats() AgentWireStats
}

// Transport is the agent's view of the control plane. The *Server
// implements it directly (in-process transport); Client implements it
// over HTTP; FaultyTransport wraps either with fault injection.
type Transport interface {
	// FetchBundle returns the current bundle for the group when its
	// ETag differs from etag ("" = unconditional). With wait > 0 and no
	// newer bundle available the call long-polls up to wait for one.
	// modified reports whether a bundle is returned. The vehicle id
	// identifies the caller so a staged rollout can split the group into
	// canary cohorts; "" is a legitimate anonymous fetch and always sees
	// the stable revision.
	FetchBundle(vehicle, group, etag string, wait time.Duration) (b policy.Bundle, modified bool, err error)
	// ReportStatus records a vehicle's applied generation, health, and
	// decision-log ledger in the server's per-vehicle state.
	ReportStatus(st VehicleStatus) error
	// UploadLogs ships one batch of decision-log records. The server
	// deduplicates by sequence number, so at-least-once retries are
	// safe; accepted counts the records newly taken. ErrBackpressure
	// reports a full ingestion buffer (retry later; nothing was taken).
	UploadLogs(vehicle string, recs []LogRecord) (accepted int, err error)
}
