package sack_test

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"
	"time"

	sack "repro"
	"repro/internal/core"
)

// TestOneStateUnderConcurrentWriters races every writer of the situation
// state — event delivery, compiled-policy reloads over the reload pool,
// dark and clean heartbeats with watchdog ticks, break-glass grants and
// reverts, and SACKfs state writes — and at each quiescent barrier checks
// that the module holds one state:
//
//   - the enforced policy is the last one committed: SACK.Policy() is
//     that compiled policy and the reload status hashes its source;
//   - a pinned pipeline holds the failsafe state;
//   - the state the hooks enforce is the state CurrentState reports, and
//     the live policy declares it.
//
// Break-glass and state writes bypass the pin by design, so each round
// ends with a fresh degrade cycle that runs after they finish while
// deliveries and reloads still race it. Run it under -race
// (make reload-stress).
func TestOneStateUnderConcurrentWriters(t *testing.T) {
	type variant struct {
		c   *sack.CompiledPolicy
		src string
	}
	var variants []variant
	for _, src := range []string{reloadPolicyFull, reloadPolicyNoFailsafe, reloadPolicyDropEmergency, reloadPolicyAltFailsafe} {
		c, _, err := sack.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, variant{c, src})
	}
	sys, err := sack.New(reloadPolicyFull, sack.WithoutVehicle())
	if err != nil {
		t.Fatal(err)
	}
	pipe := sys.Pipeline()
	admin := sys.Kernel.Init().Cred
	writer, err := sys.Kernel.Init().Fork()
	if err != nil {
		t.Fatal(err)
	}
	events := []sack.Event{"driving_started", "driving_stopped", "crash_detected", "all_clear", "bogus_event"}
	states := []string{"parked", "driving", "emergency", "safe_stop"}

	last := variant{sys.SACK.Policy(), reloadPolicyFull}
	now := time.Unix(1_700_000_000, 0)
	var beatSeq uint64
	beat := func(dark bool) {
		now = now.Add(500 * time.Millisecond)
		beatSeq++
		h := sack.Heartbeat{Seq: beatSeq, At: now, Cap: 8}
		if dark {
			h.Dark = []string{"speed"}
		}
		pipe.Observe(h)
	}

	const rounds, per = 20, 40
	for round := 0; round < rounds; round++ {
		var wg, admins sync.WaitGroup
		stop := make(chan struct{})
		running := func(i int) bool {
			if i < per {
				return true
			}
			select {
			case <-stop:
				return false
			default:
				return true
			}
		}
		spawn := func(group *sync.WaitGroup, f func()) {
			group.Add(1)
			go func() {
				defer group.Done()
				f()
			}()
		}
		spawn(&wg, func() {
			for i := 0; running(i); i++ {
				_ = sys.Events().DeliverEvent(events[(round+i)%len(events)])
			}
		})
		spawn(&wg, func() {
			for i := 0; running(i); i++ {
				v := variants[(round+i)%len(variants)]
				if _, err := sys.ReloadCompiled(v.c, v.src); err != nil {
					t.Errorf("round %d: reload: %v", round, err)
					return
				}
				last = v
			}
		})
		spawn(&admins, func() {
			for i := 0; i < per; i++ {
				if i%2 == 0 {
					_ = sys.SACK.BreakGlass(admin, states[(round+i)%len(states)], "race")
				} else {
					_ = sys.SACK.RevertBreakGlass(admin, "parked")
				}
			}
		})
		spawn(&admins, func() {
			for i := 0; i < per; i++ {
				_ = writer.WriteFileAll(core.StateFile, []byte(states[(round+i+1)%len(states)]), 0)
			}
		})
		spawn(&wg, func() {
			defer close(stop)
			cycle := func(n int) {
				for i := 0; i < n; i++ {
					switch i % 4 {
					case 1:
						beat(true)
					case 3:
						pipe.Check(now.Add(pipe.Window() + time.Second))
					default:
						beat(false)
					}
				}
			}
			cycle(per)
			admins.Wait()
			cycle(per/2 + round%4)
		})
		wg.Wait()

		if got := sys.SACK.Policy(); got != last.c {
			t.Errorf("round %d: enforced policy is not the last committed one (lost reload)", round)
		}
		sum := sha256.Sum256([]byte(last.src))
		if got, want := sys.SACK.ReloadStatus().SourceHash, hex.EncodeToString(sum[:8]); got != want {
			t.Errorf("round %d: reload status hash %s, last committed %s", round, got, want)
		}
		state := sys.CurrentState().Name
		if pipe.Pinned() && state != pipe.Failsafe() {
			t.Errorf("round %d: pinned in %q, failsafe %q (pin bypass)", round, state, pipe.Failsafe())
		}
		d, err := sys.Check("", "/dev/vehicle/door0", sack.MayWrite)
		if err != nil {
			t.Fatal(err)
		}
		if d.State != state {
			t.Errorf("round %d: hooks enforce %q, state machine reports %q (split state)", round, d.State, state)
		}
		if _, ok := sys.SACK.Policy().StateSets[d.State]; !ok {
			t.Errorf("round %d: enforced state %q not declared by the live policy", round, d.State)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}
