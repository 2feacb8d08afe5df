package sack_test

// verify_pack_test closes the loop between the symbolic verifier and
// the live kernel. First, the shipped policy pack must satisfy the
// shipped baseline invariant set — the `make verify` gate. Second, the
// differential property: any witness the verifier reports for a `never`
// violation must replay as a real allow on a booted system, by driving
// the witness's event trace through the SSM (break-glass and
// degradation pseudo-steps included) and asking System.Check for the
// exact (subject, op, path) access. A witness that does not replay
// would mean the verifier explores a product space the kernel does not
// actually implement.

import (
	"strings"
	"testing"
	"time"

	sack "repro"
	"repro/internal/sys"
	"repro/policies"
)

func TestVerifyPackAgainstBaseline(t *testing.T) {
	set, err := sack.ParseInvariants(policies.Baseline())
	if err != nil {
		t.Fatalf("baseline set: %v", err)
	}
	for _, name := range policies.Names() {
		src, err := policies.Load(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := sack.VerifyPolicy(src, set)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !rep.OK() {
			t.Errorf("%s violates the pack baseline:\n%s", name, rep.Render())
		}
	}
}

// verifyDiffPolicy spans every entry class the explorer models: a
// normal event ring (parked/driving/emergency), a state behind the
// failsafe (limp -> workshop on towed_in), and a break-glass-only
// vault.
const verifyDiffPolicy = `
states { parked driving emergency limp workshop vault }
initial parked
failsafe limp
permissions { BASE CAN DOORS SECRETS }
state_per {
  parked: BASE
  driving: BASE, CAN
  emergency: BASE, DOORS
  limp: BASE
  workshop: BASE, CAN
  vault: SECRETS
}
per_rules {
  BASE { allow read /etc/** }
  CAN { allow write /dev/can/actuator* subject /usr/bin/diagtool }
  DOORS { allow write,ioctl /dev/vehicle/door* }
  SECRETS { allow read /data/keys/** }
}
transitions {
  parked -> driving on ignition_on
  driving -> parked on ignition_off
  driving -> emergency on crash_detected
  emergency -> parked on all_clear
  limp -> workshop on towed_in
}
`

// replayTrace drives one verifier witness trace on a live system.
// Normal steps deliver the event; a «break-glass» pseudo-step forces
// the state as CAP_MAC_ADMIN would; a final «pipeline degradation»
// pseudo-step is reproduced with a real heartbeat lapse (the watchdog
// pins the failsafe). A non-final degradation step is entered by
// break-glass instead: a pinned pipeline rejects event delivery, so
// forcing the state is the live-system way to continue past the
// failsafe — exactly the entry the explorer models.
func replayTrace(t *testing.T, system *sack.System, trace []string) {
	t.Helper()
	admin := sys.NewCred(0, 0)
	for i, step := range trace {
		if strings.HasPrefix(step, "start: ") {
			continue
		}
		open := strings.Index(step, "-[")
		close := strings.Index(step, "]-> ")
		if open != 0 || close < 0 {
			t.Fatalf("unparseable trace step %q", step)
		}
		event := step[2:close]
		target := step[close+len("]-> "):]
		switch event {
		case "«break-glass»":
			if err := system.SACK.BreakGlass(admin, target, "verify replay"); err != nil {
				t.Fatalf("break-glass to %s: %v", target, err)
			}
		case "«pipeline degradation»":
			if i == len(trace)-1 {
				p := system.Pipeline()
				t0 := time.Unix(1_700_000_000, 0)
				p.Observe(sack.Heartbeat{Seq: 1, At: t0, Cap: 8})
				if !p.Check(t0.Add(p.Window() + time.Second)) {
					t.Fatal("watchdog did not lapse")
				}
			} else if err := system.SACK.BreakGlass(admin, target, "verify replay"); err != nil {
				t.Fatalf("break-glass to failsafe %s: %v", target, err)
			}
		default:
			if err := system.Events().DeliverEvent(sack.Event(event)); err != nil {
				t.Fatalf("event %q: %v", event, err)
			}
		}
	}
}

func TestVerifyWitnessReplaysAsLiveAllow(t *testing.T) {
	// One invariant per entry class; each is violated, and each witness
	// must replay.
	invariants := []string{
		"never /usr/bin/diagtool write /dev/can/actuator*",      // normal path (driving)
		"never - read /data/keys/**",                            // break-glass only (vault)
		"never /usr/bin/diagtool write /dev/can/** in workshop", // behind the failsafe
		"never - read /etc/** in limp",                          // witness state is the failsafe itself
	}
	for _, inv := range invariants {
		set, err := sack.ParseInvariants(inv)
		if err != nil {
			t.Fatalf("%q: %v", inv, err)
		}
		rep, err := sack.VerifyPolicy(verifyDiffPolicy, set)
		if err != nil {
			t.Fatalf("%q: %v", inv, err)
		}
		if rep.OK() {
			t.Fatalf("%q: expected a violation", inv)
		}
		for _, v := range rep.Violations {
			system, err := sack.New(verifyDiffPolicy)
			if err != nil {
				t.Fatal(err)
			}
			replayTrace(t, system, v.Trace)
			if got := system.CurrentState().Name; got != v.State {
				t.Fatalf("%q: trace %v landed in %s, witness says %s", inv, v.Trace, got, v.State)
			}
			mask, err := sack.ParseAccess(v.Op)
			if err != nil {
				t.Fatalf("%q: witness op: %v", inv, err)
			}
			d, err := system.Check(v.Subject, v.Path, mask)
			if err != nil {
				t.Fatalf("%q: live check: %v", inv, err)
			}
			if !d.Allowed {
				t.Fatalf("%q: witness does not replay live: state %s subject %q %s %s (reason: %s)",
					inv, v.State, v.Subject, v.Op, v.Path, d.Reason)
			}
		}
	}
}
