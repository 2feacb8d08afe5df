package core

import (
	"fmt"

	"repro/internal/lsm"
	"repro/internal/sys"
)

// Break-glass support implements the optimistic access control pattern
// the paper imports from Malkin et al. (§II-A.2): critical permissions
// stay locked down by default, but an authorised principal can force the
// SSM into an exceptional state — with an indelible audit trail — when
// the situation detection pipeline itself is unavailable (sensor failure,
// SDS crash) and a human or watchdog must "break the glass".

// BreakGlassRecord captures one break-glass invocation.
type BreakGlassRecord struct {
	Seq      uint64
	Invoker  string // subject label of the caller
	UID      int
	ToState  string
	Reason   string
	Reverted bool
}

// BreakGlass forces the situation state machine into the named state.
// The caller must hold CAP_MAC_ADMIN; every invocation is audited and
// counted. reason is recorded verbatim for post-incident review.
func (s *SACK) BreakGlass(cred *sys.Cred, state, reason string) error {
	if cred == nil || !cred.HasCap(sys.CapMacAdmin) {
		if s.audit != nil {
			s.audit.Append(lsm.AuditRecord{
				Module: ModuleName, Op: "break_glass",
				Subject: Subject(cred), Object: state, Action: "DENIED",
				Detail: "caller lacks CAP_MAC_ADMIN",
			})
		}
		return sys.EPERM
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	from := s.snap.Load().state
	if err := s.forceLocked(state); err != nil {
		return err
	}
	seq := uint64(len(s.breakGlassLog)) + 1
	rec := BreakGlassRecord{
		Seq: seq, Invoker: Subject(cred), UID: cred.UID,
		ToState: state, Reason: reason,
	}
	s.breakGlassLog = append(s.breakGlassLog, rec)
	if s.audit != nil {
		s.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: "break_glass",
			Subject: rec.Invoker, Object: state, Action: "ALLOWED",
			Detail: fmt.Sprintf("seq=%d from=%s reason=%q", seq, from.Name, reason),
		})
	}
	return nil
}

// RevertBreakGlass returns the SSM to the named state (normally the
// policy's initial state) and marks the most recent outstanding
// break-glass record as reverted. Requires CAP_MAC_ADMIN.
func (s *SACK) RevertBreakGlass(cred *sys.Cred, state string) error {
	if cred == nil || !cred.HasCap(sys.CapMacAdmin) {
		return sys.EPERM
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.forceLocked(state); err != nil {
		return err
	}
	for i := len(s.breakGlassLog) - 1; i >= 0; i-- {
		if !s.breakGlassLog[i].Reverted {
			s.breakGlassLog[i].Reverted = true
			break
		}
	}
	if s.audit != nil {
		s.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: "break_glass_revert",
			Subject: Subject(cred), Object: state, Action: "ALLOWED",
		})
	}
	return nil
}

// BreakGlassLog returns a copy of all break-glass invocations.
func (s *SACK) BreakGlassLog() []BreakGlassRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BreakGlassRecord, len(s.breakGlassLog))
	copy(out, s.breakGlassLog)
	return out
}

// OutstandingBreakGlass reports whether a break-glass grant has not been
// reverted yet — watchdogs poll this to nag operators.
func (s *SACK) OutstandingBreakGlass() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.breakGlassLog) - 1; i >= 0; i-- {
		if !s.breakGlassLog[i].Reverted {
			return true
		}
	}
	return false
}
