package core_test

// The situation state machine is the compiled policy's transition index
// plus the state in the module's published snapshot; these tests drive
// it through Deliver, the way every event producer does.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sys"
)

// fig2Policy is the paper's Fig. 2 example: emergency, driving,
// parking-with-driver, parking-without-driver.
const fig2Policy = `
states { driving = 0 emergency = 1 parking_with_driver = 2 parking_without_driver = 3 }
initial parking_with_driver
permissions { BASE }
state_per { driving: BASE emergency: BASE parking_with_driver: BASE parking_without_driver: BASE }
per_rules { BASE { allow read /etc/** } }
transitions {
  parking_with_driver -> driving on start_driving
  driving -> parking_with_driver on park
  parking_with_driver -> parking_without_driver on driver_leaves
  parking_without_driver -> parking_with_driver on driver_enters
  driving -> emergency on crash_detected
  emergency -> parking_with_driver on all_clear
}
`

// newSACK builds a module over a policy without a kernel around it.
func newSACK(t *testing.T, src string) *core.SACK {
	t.Helper()
	c, _, err := policy.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(core.Config{Policy: c, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFig2Walkthrough(t *testing.T) {
	s := newSACK(t, fig2Policy)
	steps := []struct {
		event policy.Event
		want  string
		trans bool
	}{
		{"start_driving", "driving", true},
		{"crash_detected", "emergency", true},
		{"crash_detected", "emergency", false}, // already there; no rule
		{"all_clear", "parking_with_driver", true},
		{"driver_leaves", "parking_without_driver", true},
		{"start_driving", "parking_without_driver", false}, // nobody driving
		{"driver_enters", "parking_with_driver", true},
	}
	for i, st := range steps {
		_, _, _, before := s.Stats()
		if err := s.Deliver(st.event); err != nil {
			t.Fatalf("step %d (%s): %v", i, st.event, err)
		}
		_, _, _, after := s.Stats()
		if trans, got := after > before, s.CurrentState().Name; trans != st.trans || got != st.want {
			t.Fatalf("step %d (%s): got trans=%v state=%s, want trans=%v state=%s",
				i, st.event, trans, got, st.trans, st.want)
		}
		if rs := s.ActiveRules(); rs.State != st.want {
			t.Fatalf("step %d (%s): enforcing %s's rules in %s", i, st.event, rs.State, st.want)
		}
	}
	if _, _, in, hit := s.Stats(); hit != 5 || in-hit != 2 {
		t.Fatalf("transitions, ignored = (%d,%d), want (5,2)", hit, in-hit)
	}
}

// TestTransitionInForceWhenDeliverReturns: when Deliver returns, the new
// state's rule set is what the hooks enforce and its audit record is
// logged — no later step completes the transition.
func TestTransitionInForceWhenDeliverReturns(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	cred := sys.NewCred(1000, 1000)
	if err := s.InodePermission(cred, "/dev/vehicle/door0", nil, sys.MayIoctl); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("door ioctl in normal: %v, want EACCES", err)
	}
	if err := s.Deliver("crash_detected"); err != nil {
		t.Fatal(err)
	}
	if err := s.InodePermission(cred, "/dev/vehicle/door0", nil, sys.MayIoctl); err != nil {
		t.Fatalf("door ioctl right after the transition: %v", err)
	}
	if d, err := s.Check("", "/dev/vehicle/door0", sys.MayIoctl); err != nil || !d.Allowed || d.State != "emergency" {
		t.Fatalf("decision after the transition: %+v, %v", d, err)
	}
	var seen []string
	for _, r := range k.Audit.Records() {
		if r.Op == "state_transition" {
			seen = append(seen, fmt.Sprintf("%s/%s", r.Detail, r.Subject))
		}
	}
	if len(seen) != 1 || seen[0] != "from=normal to=emergency/crash_detected" {
		t.Fatalf("transition records = %v", seen)
	}
}

// TestForceUnknownStateEINVAL: the administrative paths that force a
// state — break-glass and the SACKfs state write — refuse a state the
// live policy does not declare with EINVAL and leave the state alone,
// and apply a declared one.
func TestForceUnknownStateEINVAL(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	root := k.Init()
	if err := s.BreakGlass(root.Cred, "bogus", "test"); !sys.IsErrno(err, sys.EINVAL) {
		t.Fatalf("break-glass to an unknown state: %v", err)
	}
	if err := root.WriteFileAll(core.StateFile, []byte("bogus\n"), 0); !sys.IsErrno(err, sys.EINVAL) {
		t.Fatalf("state write of an unknown state: %v", err)
	}
	if got := s.CurrentState().Name; got != "normal" || s.Forced() != 0 {
		t.Fatalf("state = %s, forced = %d after refused forces", got, s.Forced())
	}
	if err := s.BreakGlass(root.Cred, "emergency", "test"); err != nil {
		t.Fatal(err)
	}
	if got := s.CurrentState().Name; got != "emergency" {
		t.Fatalf("break-glass landed in %s", got)
	}
	if err := root.WriteFileAll(core.StateFile, []byte("normal\n"), 0); err != nil {
		t.Fatal(err)
	}
	if got := s.CurrentState().Name; got != "normal" || s.Forced() != 2 {
		t.Fatalf("state = %s, forced = %d, want normal after two forces", got, s.Forced())
	}
}

const flipPolicy = `
states { a = 0 b = 1 }
initial a
permissions { BASE }
state_per { a: BASE b: BASE }
per_rules { BASE { allow read /etc/** } }
transitions {
  a -> b on flip
  b -> a on flip
}
`

func TestConcurrentDeliverIsSerializable(t *testing.T) {
	// Two states, a<->b on "flip": after an even number of flips delivered
	// from racing goroutines, the module must be back at "a", and every
	// flip must be a hit (every flip matches in either state).
	s := newSACK(t, flipPolicy)
	const goroutines = 8
	const per = 250 // even total
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Deliver("flip"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, _, in, hit := s.Stats(); hit != goroutines*per || in != hit {
		t.Fatalf("in, hit = (%d,%d), want (%d,%d)", in, hit, goroutines*per, goroutines*per)
	}
	if got := s.CurrentState().Name; got != "a" {
		t.Fatalf("state = %s after even flips, want a", got)
	}
}

const ringPolicy = `
states { s0 = 0 s1 = 1 s2 = 2 s3 = 3 }
initial s0
permissions { BASE }
state_per { s0: BASE s1: BASE s2: BASE s3: BASE }
per_rules { BASE { allow read /etc/** } }
transitions {
  s0 -> s1 on e0
  s1 -> s2 on e1
  s2 -> s3 on e2
  s3 -> s0 on e3
  s1 -> s0 on e0
  s2 -> s0 on e0
}
`

// Property: delivering any event sequence is deterministic — two modules
// over the same policy end in identical states with identical counters.
func TestPropertyDeterminism(t *testing.T) {
	f := func(seq []uint8) bool {
		a, b := newSACK(t, ringPolicy), newSACK(t, ringPolicy)
		for _, x := range seq {
			ev := policy.Event(fmt.Sprintf("e%d", x%5)) // e4 never matches
			_ = a.Deliver(ev)
			_ = b.Deliver(ev)
		}
		_, _, ai, ah := a.Stats()
		_, _, bi, bh := b.Stats()
		return a.CurrentState() == b.CurrentState() && ai == bi && ah == bh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

const goBackPolicy = `
states { a = 0 b = 1 }
initial a
permissions { BASE }
state_per { a: BASE b: BASE }
per_rules { BASE { allow read /etc/** } }
transitions {
  a -> b on go
  b -> a on back
}
`

// Property: every delivered event is counted in, and it is a hit exactly
// when a transition rule matches — as a walk of the rules by hand says.
// An event no rule names is ErrUnknownEvent and still counted.
func TestPropertyEventAccounting(t *testing.T) {
	f := func(seq []uint8) bool {
		s := newSACK(t, goBackPolicy)
		events := []policy.Event{"go", "back", "noop"}
		state, hits := "a", uint64(0)
		for _, x := range seq {
			ev := events[int(x)%len(events)]
			err := s.Deliver(ev)
			if (ev == "noop") != errors.Is(err, core.ErrUnknownEvent) {
				return false
			}
			if state == "a" && ev == "go" || state == "b" && ev == "back" {
				state = map[string]string{"a": "b", "b": "a"}[state]
				hits++
			}
		}
		_, _, in, hit := s.Stats()
		return in == uint64(len(seq)) && hit == hits && s.CurrentState().Name == state
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
