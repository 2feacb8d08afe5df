package sack_test

// parallel_stress_test is the -race companion to the lock-free read
// side: checker goroutines hammer the decision fast path on two systems
// (AVC on, AVC off) while the driver applies an identical interleaving
// of situation events, policy reloads, break-glass overrides, and
// pipeline degradation/recovery to both. After every mutation the
// driver re-probes both systems and requires identical verdicts — the
// cached==uncached trace property — with the checkers still racing the
// snapshot swaps underneath.

import (
	"sync"
	"testing"
	"time"

	sack "repro"
	"repro/internal/core"
	"repro/internal/sys"
)

const stressPolicy = `
states {
  parked = 0
  driving = 1
  emergency = 2
}

initial parked
failsafe parked

permissions {
  DEVICE_READ
  CONTROL_CAR_DOORS
}

state_per {
  parked:    DEVICE_READ, CONTROL_CAR_DOORS
  driving:   DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
}

per_rules {
  DEVICE_READ {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door*
  }
}

transitions {
  parked -> driving on driving_started
  driving -> parked on driving_stopped
  driving -> emergency on crash_detected
  emergency -> parked on all_clear
}
`

// stressPolicyAlt keeps the same states and transitions (so the current
// state survives the reload) but narrows what parked grants, flipping
// several probe verdicts.
const stressPolicyAlt = `
states {
  parked = 0
  driving = 1
  emergency = 2
}

initial parked
failsafe parked

permissions {
  DEVICE_READ
  CONTROL_CAR_DOORS
}

state_per {
  parked:    DEVICE_READ
  driving:   DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
}

per_rules {
  DEVICE_READ {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door*
  }
}

transitions {
  parked -> driving on driving_started
  driving -> parked on driving_stopped
  driving -> emergency on crash_detected
  emergency -> parked on all_clear
}
`

func TestParallelDecisionStress(t *testing.T) {
	boot := func(opts ...sack.Option) *sack.System {
		t.Helper()
		s, err := sack.New(stressPolicy, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cached := boot()
	plain := boot(sack.WithoutAVC())
	systems := []*sack.System{cached, plain}

	// Checker goroutines: hammer both systems' fast paths for the whole
	// run. They race every mutation, so they assert only race-freedom
	// and that uncovered paths always pass through.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cred := sys.NewCred(0, 0)
			target := systems[w%2]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pr := avcProbes[i%len(avcProbes)]
				err := target.SACK.InodePermission(cred, pr.path, nil, pr.mask)
				if pr.path == "/tmp/uncovered.dat" && err != nil {
					t.Errorf("uncovered path denied: %v", err)
					return
				}
			}
		}(w)
	}

	admin := sys.NewCred(0, 0) // full capability set, CAP_MAC_ADMIN included
	cred := sys.NewCred(0, 0)
	base := time.Unix(1_700_000_000, 0)

	heartbeat := func(i int, dark []string) core.Heartbeat {
		return core.Heartbeat{Seq: uint64(i + 1), At: base.Add(time.Duration(i) * time.Second), Dark: dark}
	}
	onAlt := false

	const iterations = 140
	for i := 0; i < iterations; i++ {
		var desc string
		switch i % 10 {
		case 0:
			desc = "event driving_started"
			for _, s := range systems {
				s.Events().DeliverEvent("driving_started")
			}
		case 1:
			desc = "event crash_detected"
			for _, s := range systems {
				s.Events().DeliverEvent("crash_detected")
			}
		case 2:
			desc = "event all_clear"
			for _, s := range systems {
				s.Events().DeliverEvent("all_clear")
			}
		case 3:
			desc = "event driving_stopped"
			for _, s := range systems {
				s.Events().DeliverEvent("driving_stopped")
			}
		case 4:
			desc = "policy reload"
			src := stressPolicyAlt
			if onAlt {
				src = stressPolicy
			}
			onAlt = !onAlt
			for _, s := range systems {
				if _, err := s.Reload(src); err != nil {
					t.Fatalf("iteration %d: reload: %v", i, err)
				}
			}
		case 5:
			desc = "break-glass to emergency"
			for _, s := range systems {
				if err := s.SACK.BreakGlass(admin, "emergency", "stress"); err != nil {
					t.Fatalf("iteration %d: break-glass: %v", i, err)
				}
			}
		case 6:
			desc = "revert break-glass"
			for _, s := range systems {
				if err := s.SACK.RevertBreakGlass(admin, "parked"); err != nil {
					t.Fatalf("iteration %d: revert: %v", i, err)
				}
			}
		case 7:
			desc = "pipeline degrade (dark sensor)"
			for _, s := range systems {
				s.Pipeline().Observe(heartbeat(i, []string{"accel"}))
			}
		case 8:
			desc = "pipeline recover"
			for _, s := range systems {
				s.Pipeline().Observe(heartbeat(i, nil))
			}
		case 9:
			desc = "watchdog tick"
			for _, s := range systems {
				s.Pipeline().Check(base.Add(time.Duration(i) * time.Second))
			}
		}

		if a, b := cached.CurrentState().Name, plain.CurrentState().Name; a != b {
			t.Fatalf("iteration %d (%s): states diverged: cached=%s plain=%s", i, desc, a, b)
		}
		if a, b := cached.Pipeline().Pinned(), plain.Pipeline().Pinned(); a != b {
			t.Fatalf("iteration %d (%s): pinned diverged: cached=%v plain=%v", i, desc, a, b)
		}

		// The trace property, asserted while the checkers keep racing:
		// the two systems are in the same logical state, so every probe
		// must agree, and both must agree with a fresh evaluation.
		for _, pr := range avcProbes {
			for rep := 0; rep < 2; rep++ {
				gotCached := cached.SACK.InodePermission(cred, pr.path, nil, pr.mask)
				gotPlain := plain.SACK.InodePermission(cred, pr.path, nil, pr.mask)
				if (gotCached == nil) != (gotPlain == nil) {
					t.Fatalf("iteration %d (%s) probe %s mask=%v rep %d: cached=%v plain=%v",
						i, desc, pr.path, pr.mask, rep, gotCached, gotPlain)
				}
				want := true
				if cached.SACK.Policy().Coverage.Covers(pr.path) {
					want, _ = cached.SACK.ActiveRules().Decide("", pr.path, pr.mask)
				}
				if got := gotCached == nil; got != want {
					t.Fatalf("iteration %d (%s) probe %s mask=%v rep %d: verdict %v, fresh Decide says %v",
						i, desc, pr.path, pr.mask, rep, got, want)
				}
			}
		}
	}
	close(stop)
	wg.Wait()

	if st := cached.SACK.AVCStats(); st.Hits == 0 {
		t.Errorf("cached system never hit its AVC: %+v", st)
	}
	// Ledger sanity after the storm: the audit ring's accounting must
	// still close exactly (async emission may not lose records).
	aud := cached.Audit
	if got := uint64(len(aud.Records())) + aud.Dropped(); got != aud.Emitted() {
		t.Errorf("audit ledger: retained+dropped=%d, emitted=%d", got, aud.Emitted())
	}
}
