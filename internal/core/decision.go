package core

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/sys"
)

// Decision is the fully explained result of one access-control query —
// what the enforcement fast path would decide for a (subject, object,
// mask) triple, plus why. It exists so tools and tests can interrogate
// the module through a supported API instead of reaching into internals:
// sackctl's decide command, the examples, and the differential suites
// all consume this.
type Decision struct {
	// Allowed is the verdict: would the access proceed.
	Allowed bool

	// Covered reports whether any policy pattern matches the object. An
	// uncovered object is allowed by passthrough — SACK does not mediate
	// it and the next LSM in the stack decides.
	Covered bool

	// CacheHit reports whether the AVC currently holds this verdict under
	// the live epoch (the enforcement path would skip rule evaluation).
	CacheHit bool

	// Pinned reports whether the event pipeline is degraded and the SSM
	// is held in the failsafe state — the decision reflects failsafe
	// policy, not the detected situation.
	Pinned bool

	// State is the situation state the decision was evaluated under.
	State string

	// Rule is the deciding rule: the matched deny rule, or the last allow
	// rule that contributed a granted bit. Nil for uncovered objects and
	// for denials where nothing matched.
	Rule *policy.CompiledRule

	// Reason is a one-line human-readable explanation.
	Reason string
}

// Check evaluates what the enforcement path would decide for the triple,
// without side effects: no counters move, no audit record is appended,
// and nothing is inserted into the AVC. The query runs against the same
// immutable snapshot the hooks read, so the answer is exactly what a
// concurrent access would get.
func (s *SACK) Check(subject, path string, mask sys.Access) (Decision, error) {
	if s.mode == EnhancedAppArmor {
		return Decision{}, fmt.Errorf("sack: decision queries need independent mode; %s enforces through AppArmor profiles", s.mode)
	}
	if mask == 0 {
		return Decision{}, fmt.Errorf("sack: decision query needs a non-empty access mask")
	}

	snap := s.snap.Load()
	d := Decision{State: snap.state.Name, Pinned: s.pipe.Pinned()}

	covered, allowed, matched := snap.matcher.Evaluate(subject, path, mask)
	if !covered {
		d.Allowed = true
		d.Reason = "uncovered object: passed through to the next LSM"
		return d, nil
	}
	d.Covered = true
	d.Allowed = allowed
	d.Rule = matched

	if s.cache != nil {
		_, _, d.CacheHit = s.cache.PeekAt(snap.epoch, subject, path, mask)
	}

	switch {
	case allowed:
		d.Reason = fmt.Sprintf("allowed by %q in state %s", matched.String(), snap.state.Name)
	case matched != nil:
		d.Reason = fmt.Sprintf("denied by %q in state %s", matched.String(), snap.state.Name)
	default:
		d.Reason = fmt.Sprintf("no allow rule grants %s in state %s", mask, snap.state.Name)
	}
	if d.Pinned {
		d.Reason += " (pipeline degraded: state pinned to failsafe)"
	}
	return d, nil
}

// CheckCred is Check with the subject resolved from a kernel credential,
// the way the LSM hooks see it (the executable path recorded at exec).
func (s *SACK) CheckCred(cred *sys.Cred, path string, mask sys.Access) (Decision, error) {
	return s.Check(Subject(cred), path, mask)
}
