package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/ssm"
	"repro/internal/sys"
)

const internalFailsafePolicy = `
states { normal = 0 emergency = 1 lockdown = 2 }
initial normal
failsafe lockdown
permissions { NORMAL }
state_per { normal: NORMAL emergency: NORMAL lockdown: NORMAL }
per_rules { NORMAL { allow read /etc/** } }
transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
  lockdown -> normal on all_clear
}
`

// TestRecoverRemapWhenPrevStateVanished drives the defensive branch of
// recoverLocked directly: the ReplacePolicy transaction remaps
// prevState so no public path leaves it dangling, but recovery must
// still never silently restore "whatever state is current" if it ever
// does dangle — it lands in the installed initial state and audits a
// pipeline_recover_remap record.
func TestRecoverRemapWhenPrevStateVanished(t *testing.T) {
	compiled, _, err := policy.Load(internalFailsafePolicy)
	if err != nil {
		t.Fatal(err)
	}
	audit := lsm.NewAuditLog(0)
	s, err := New(Config{Policy: compiled, Source: internalFailsafePolicy, Audit: audit})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Pipeline()
	t0 := time.Unix(9000, 0)
	s.Deliver("crash_detected")
	p.Observe(Heartbeat{Seq: 1, At: t0, Cap: 8})
	p.Check(t0.Add(p.window + time.Second))
	if !p.Pinned() {
		t.Fatal("setup: not pinned")
	}

	// Simulate a stale prevState (the bug class the transaction closes).
	p.mu.Lock()
	p.prevState = "ghost_state"
	p.mu.Unlock()

	p.Observe(Heartbeat{Seq: 2, At: t0.Add(3 * p.window), Cap: 8})
	if p.Degraded() {
		t.Fatal("did not recover")
	}
	if st := s.CurrentState().Name; st != "normal" {
		t.Fatalf("recovered state = %s, want initial fallback", st)
	}
	var remapped, recovered bool
	for _, r := range audit.Records() {
		switch r.Op {
		case "pipeline_recover_remap":
			remapped = true
			if r.Subject != "ghost_state" || r.Object != "normal" {
				t.Fatalf("remap record = %+v", r)
			}
		case "pipeline_recovered":
			recovered = true
			if r.Object != "normal" {
				t.Fatalf("recover record restored %q", r.Object)
			}
		}
	}
	if !remapped || !recovered {
		t.Fatalf("audit missing remap/recover records: remap=%v recover=%v", remapped, recovered)
	}
}

// TestDegradeUnforceableFailsafeDoesNotPin covers the pinnedFlag
// consistency fix: if forcing the failsafe fails, the degradation must
// stay observational — pinning with no enforced failsafe would wedge
// event delivery in ErrDegraded for nothing.
func TestDegradeUnforceableFailsafeDoesNotPin(t *testing.T) {
	compiled, _, err := policy.Load(internalFailsafePolicy)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: compiled, Source: internalFailsafePolicy})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Pipeline()
	// Point the override at a state the machine does not know. Boot
	// validates overrides, so reach in directly to model the stale
	// window the fix defends against.
	p.mu.Lock()
	p.failsafeOverride = "ghost_state"
	p.mu.Unlock()

	t0 := time.Unix(9500, 0)
	s.Deliver("crash_detected")
	p.Observe(Heartbeat{Seq: 1, At: t0, Cap: 8})
	p.Check(t0.Add(p.window + time.Second))
	if !p.Degraded() {
		t.Fatal("did not degrade")
	}
	if p.Pinned() {
		t.Fatal("pinned with an unforceable failsafe")
	}
	// Events must keep flowing: nothing is enforcing a failsafe.
	if err := s.Deliver("all_clear"); err != nil {
		t.Fatalf("delivery during record-only degradation: %v", err)
	}
	if st := s.CurrentState().Name; st != "normal" {
		t.Fatalf("state = %s", st)
	}
}

// TestReloadUnknownStateFailsClosed replays the window between the APE
// subscriber's machine check and its publish: a transition committed on
// the outgoing machine publishes its state name after ReplacePolicy has
// installed a policy that lacks that state. The rule set published for
// it must deny every path the new policy covers with EACCES, cached or
// not, and still pass uncovered paths through.
func TestReloadUnknownStateFailsClosed(t *testing.T) {
	const narrow = `
states { normal = 0 }
initial normal
permissions { NORMAL }
state_per { normal: NORMAL }
per_rules { NORMAL { allow read /etc/** } }
`
	compiled, _, err := policy.Load(internalFailsafePolicy)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: compiled, Source: internalFailsafePolicy})
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := policy.Load(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReplacePolicy(next, narrow); err != nil {
		t.Fatal(err)
	}
	s.applyState(ssm.State{Name: "emergency", Encoding: 1})
	if rs := s.ActiveRules(); rs.State != "emergency" || rs.Len() != 0 {
		t.Fatalf("published rule set = %q with %d rules", rs.State, rs.Len())
	}

	cred := sys.NewCred(1000, 1000)
	for round := 0; round < 2; round++ { // the second round is served by the AVC
		if err := s.InodePermission(cred, "/etc/fstab", nil, sys.MayRead); !errors.Is(err, sys.EACCES) {
			t.Fatalf("round %d: covered path under an unknown state: err=%v, want EACCES", round, err)
		}
		if err := s.InodePermission(cred, "/tmp/x", nil, sys.MayRead); err != nil {
			t.Fatalf("round %d: uncovered path under an unknown state: %v", round, err)
		}
	}
	if d, err := s.Check("", "/etc/fstab", sys.MayRead); err != nil || !d.Covered || d.Allowed {
		t.Fatalf("decision query: %+v, %v", d, err)
	}
}
