package sack_test

// pipeline_fuzz_test drives randomly generated traces through the whole
// stack — sensors, SDS detectors, SACKfs, SSM, APE, enforcement — and
// checks after every step that the kernel's decisions agree with the
// situation state the trace implies. Failures replay deterministically
// from the seed.

import (
	"fmt"
	"testing"
	"time"

	sack "repro"
	"repro/internal/ivi"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/trace"
	"repro/internal/vehicle"
)

const fuzzPolicy = `
states {
  parked = 0
  driving = 1
  emergency = 2
}

initial parked

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

func TestPipelineFuzzRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			sys, err := sack.New(fuzzPolicy)
			if err != nil {
				t.Fatal(err)
			}
			root := sys.Kernel.Init()
			clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
			service, err := sys.NewSDS(root, clock,
				sds.DrivingDetector(),
				sds.CrashDetector(8.0),
				sds.AllClearDetector(8.0),
			)
			if err != nil {
				t.Fatal(err)
			}
			dash := &ivi.Dashboard{Vehicle: sys.Vehicle, SACK: sys.SACK}

			tr := trace.NewGenerator(seed).Generate(120)
			var prev time.Duration
			for step, p := range tr.Points {
				if p.T > prev {
					clock.Advance(p.T - prev)
					prev = p.T
				}
				trace.Apply(p, sys.Vehicle.Dynamics)
				if _, err := service.Poll(); err != nil {
					t.Fatalf("seed %d step %d: poll: %v", seed, step, err)
				}

				// Invariant: door control permission exactly matches the
				// situation state SACK holds.
				state := sys.CurrentState().Name
				wantAllowed := state == "parked" || state == "emergency"
				fd, err := root.Open("/dev/vehicle/door0", sack.ORdonly, 0)
				if err != nil {
					t.Fatalf("seed %d step %d: read-open door: %v", seed, step, err)
				}
				_, ioctlErr := root.Ioctl(fd, vehicle.IoctlDoorStatus, 0)
				root.Close(fd)
				gotAllowed := ioctlErr == nil
				if gotAllowed != wantAllowed {
					t.Fatalf("seed %d step %d: state=%s speed=%.1f allowed=%v want=%v (err=%v)",
						seed, step, state, p.Speed, gotAllowed, wantAllowed, ioctlErr)
				}

				// The dashboard must always render.
				if out := dash.Render(); len(out) == 0 {
					t.Fatal("empty dashboard")
				}
			}

			// Accounting invariant: every SSM transition came from a
			// delivered event.
			transitions, ignored := sys.SACK.Machine().Stats()
			_, _, eventsIn, eventsHit := sys.SACK.Stats()
			if eventsHit != transitions || eventsIn != transitions+ignored {
				t.Fatalf("seed %d: event accounting: in=%d hit=%d trans=%d ignored=%d",
					seed, eventsIn, eventsHit, transitions, ignored)
			}
		})
	}
}

func TestGeneratedTracesAreWellFormed(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tr := trace.NewGenerator(seed).Generate(200)
		if len(tr.Points) != 200 {
			t.Fatalf("seed %d: %d points", seed, len(tr.Points))
		}
		for i, p := range tr.Points {
			if p.Speed < 0 || p.Speed > 130 {
				t.Fatalf("seed %d point %d: speed %v out of range", seed, i, p.Speed)
			}
			if p.AccelG < 0 {
				t.Fatalf("seed %d point %d: negative accel", seed, i)
			}
			if i > 0 && p.T <= tr.Points[i-1].T {
				t.Fatalf("seed %d point %d: time not increasing", seed, i)
			}
		}
	}
	// Determinism: same seed, same trace.
	a := trace.NewGenerator(7).Generate(100)
	b := trace.NewGenerator(7).Generate(100)
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("generator is not deterministic per seed")
		}
	}
}
