package sack_test

// chaos_property_test drives randomly generated fault plans through the
// whole resilience pipeline — faulty sensors, bounded SDS queue, faulty
// transmitter, SACKfs, pipeline watchdog, SSM — and checks that every
// event is accounted for: nothing is lost without a drop, hold, stall,
// or degradation being recorded somewhere. Failures replay
// deterministically from the seed.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	sack "repro"
	"repro/internal/faults"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/trace"
	"repro/internal/vehicle"
)

const chaosPolicy = `
states {
  parked = 0
  driving = 1
  emergency = 2
  safe_stop = 3
}

initial parked

failsafe safe_stop

permissions {
  DEVICE_READ
  CONTROL_CAR_DOORS
}

state_per {
  parked:    DEVICE_READ, CONTROL_CAR_DOORS
  driving:   DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
  safe_stop: DEVICE_READ, CONTROL_CAR_DOORS
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
  safe_stop -> parked on all_clear
}
`

// randomPlan builds a bounded random fault plan: every rule has a
// finite window (After+For <= 55 ops), so sufficiently long runs always
// quiesce and the pipeline must recover.
func randomPlan(rng *rand.Rand, seed int64) *faults.Plan {
	targets := []string{
		faults.TargetTransmitter,
		faults.TargetTransmitterEvent,
		faults.SensorTarget(sds.SensorAccel),
		faults.SensorTarget(sds.SensorSpeed),
		faults.TargetCANBus,
	}
	kindsFor := map[string][]faults.Kind{
		faults.TargetTransmitter:             {faults.Stall, faults.Delay},
		faults.TargetTransmitterEvent:        {faults.Drop, faults.Duplicate, faults.Corrupt, faults.Reorder},
		faults.SensorTarget(sds.SensorAccel): {faults.Drop, faults.Delay, faults.Corrupt},
		faults.SensorTarget(sds.SensorSpeed): {faults.Drop, faults.Delay, faults.Corrupt},
		faults.TargetCANBus:                  {faults.Drop, faults.Duplicate, faults.Corrupt, faults.Reorder},
	}
	plan := &faults.Plan{Seed: seed}
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		target := targets[rng.Intn(len(targets))]
		kinds := kindsFor[target]
		plan.Add(faults.Rule{
			Target: target,
			Kind:   kinds[rng.Intn(len(kinds))],
			After:  rng.Intn(40),
			For:    1 + rng.Intn(15),
			Mag:    1,
		})
	}
	return plan
}

func TestChaosRandomFaultPlans(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			plan := randomPlan(rng, seed)
			sys, err := sack.New(chaosPolicy, sack.WithFaultPlan(plan))
			if err != nil {
				t.Fatal(err)
			}
			root := sys.Kernel.Init()
			clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))

			// Assemble the SDS by hand so the test can reach the
			// concrete FaultyTransmitter for its committed ledger.
			tx, err := sds.NewKernelTransmitter(root)
			if err != nil {
				t.Fatal(err)
			}
			ft := sds.NewFaultyTransmitter(tx, sys.Faults).(*sds.FaultyTransmitter)
			raw := sds.VehicleSensors(sys.Vehicle.Dynamics)
			sensors := make([]sds.Sensor, len(raw))
			for i, sn := range raw {
				sensors[i] = sds.NewFaultySensor(sn, sys.Faults)
			}
			service := sds.NewService(clock,
				sensors,
				[]sds.Detector{
					sds.DrivingDetector(),
					sds.CrashDetector(8.0),
					sds.AllClearDetector(8.0),
				},
				ft,
				sds.WithHeartbeat(500*time.Millisecond),
				sds.WithQueueCapacity(8),
				sds.WithJitterSeed(seed),
			)

			pipe := sys.Pipeline()
			valid := map[string]bool{"parked": true, "driving": true, "emergency": true, "safe_stop": true}
			var probes uint64   // direct pinned deliveries made by this test
			var detected uint64 // events the service's detectors raised
			tr := trace.NewGenerator(seed).Generate(100)
			var prev time.Duration
			for step, p := range tr.Points {
				if p.T > prev {
					clock.Advance(p.T - prev)
					prev = p.T
				}
				trace.Apply(p, sys.Vehicle.Dynamics)
				// Errors are expected mid-chaos (stalls, queue overflow);
				// they must be the typed ones.
				evs, err := service.Poll()
				detected += uint64(len(evs))
				if err != nil && !errors.Is(err, faults.ErrStall) && !errors.Is(err, sack.ErrQueueFull) {
					t.Fatalf("seed %d step %d: unexpected poll error: %v", seed, step, err)
				}
				pipe.Check(clock.Now())

				if state := sys.CurrentState().Name; !valid[state] {
					t.Fatalf("seed %d step %d: undeclared state %q", seed, step, state)
				}
				// While pinned, the direct path must reject with the
				// typed error and must not leak into the accounting.
				if pipe.Pinned() {
					probes++
					if err := sys.Events().DeliverEvent("all_clear"); !errors.Is(err, sack.ErrDegraded) {
						t.Fatalf("seed %d step %d: pinned delivery error = %v", seed, step, err)
					}
				}

				// The vehicle keeps working under CAN faults: probing a
				// door must never error in an allowed state, and frames
				// on the wire stay parseable.
				state := sys.CurrentState().Name
				fd, err := root.Open("/dev/vehicle/door0", sack.ORdonly, 0)
				if err != nil {
					t.Fatalf("seed %d step %d: read-open door: %v", seed, step, err)
				}
				_, ioctlErr := root.Ioctl(fd, vehicle.IoctlDoorStatus, 0)
				root.Close(fd)
				wantAllowed := state != "driving"
				if got := ioctlErr == nil; got != wantAllowed {
					t.Fatalf("seed %d step %d: state=%s ioctl allowed=%v want=%v (%v)",
						seed, step, state, got, wantAllowed, ioctlErr)
				}
			}

			// All fault windows are finite: keep polling until the plan
			// quiesces, the queue drains, and the pipeline recovers.
			recovered := false
			for i := 0; i < 300; i++ {
				clock.Advance(time.Second)
				evs, _ := service.Poll()
				detected += uint64(len(evs))
				pipe.Check(clock.Now())
				depth, _, _, _ := service.QueueStats()
				if depth == 0 && len(service.DarkSensors()) == 0 && !pipe.Degraded() {
					recovered = true
					break
				}
			}
			if !recovered {
				depth, _, retries, drops := service.QueueStats()
				t.Fatalf("seed %d: pipeline never recovered: depth=%d retries=%d drops=%d degraded=%v reason=%q dark=%v",
					seed, depth, retries, drops, pipe.Degraded(), pipe.Reason(), service.DarkSensors())
			}

			// Ledger: every detected event is forwarded, dropped, or
			// still queued — duplicates add, holds subtract — and the
			// committed forwarded count matches what the kernel saw,
			// split between accepted (eventsIn) and rejected-degraded.
			st := ft.Stats()
			depth, _, _, qdrops := service.QueueStats()
			enqueued := detected - qdrops
			wantForwarded := enqueued - uint64(depth) - st.Dropped + st.Duplicated - st.Held
			if st.Forwarded != wantForwarded {
				t.Fatalf("seed %d: transmitter ledger: forwarded=%d want=%d (detected=%d qdrops=%d depth=%d dropped=%d dup=%d held=%d)",
					seed, st.Forwarded, wantForwarded, detected, qdrops, depth, st.Dropped, st.Duplicated, st.Held)
			}
			_, _, eventsIn, eventsHit := sys.SACK.Stats()
			ps := pipe.Stats()
			// RejectedDegraded counts both transmitter-path rejections
			// and this test's own direct pinned probes; only the former
			// passed through the transmitter.
			rejectedTx := ps.RejectedDegraded - probes
			if st.Forwarded != eventsIn+rejectedTx {
				t.Fatalf("seed %d: kernel ledger: forwarded=%d eventsIn=%d rejectedTx=%d (probes=%d)",
					seed, st.Forwarded, eventsIn, rejectedTx, probes)
			}
			hits, forced := transitionLedger(t, sys)
			if eventsHit != hits || sys.SACK.Forced() != forced || eventsIn < eventsHit {
				t.Fatalf("seed %d: accounting: in=%d hit=%d forced=%d, audited hits=%d forced=%d",
					seed, eventsIn, eventsHit, sys.SACK.Forced(), hits, forced)
			}
			// No transition lost silently: the gap between detected and
			// kernel-seen events is exactly the sum of recorded causes
			// (queue drops, queued, transmitter drops, holds, degraded
			// rejections), minus injected duplicates. Corruption is not
			// a cause: a corrupted event still reaches the kernel and
			// counts as ignored-unknown.
			gap := int64(detected) - int64(eventsIn)
			explained := int64(qdrops+uint64(depth)+st.Dropped+st.Held+rejectedTx) - int64(st.Duplicated)
			if gap != explained {
				t.Fatalf("seed %d: %d events unaccounted, %d explained (qdrops=%d depth=%d dropped=%d held=%d rejectedTx=%d dup=%d)",
					seed, gap, explained, qdrops, depth, st.Dropped, st.Held, rejectedTx, st.Duplicated)
			}
		})
	}
}

// TestChaosCachedVsUncachedDecisions boots two identical systems under
// the same fault plan — one with the AVC, one cache-ablated — and
// checks that every access decision and situation state agrees at every
// step. Faults must never desynchronize the cache from ground truth.
func TestChaosCachedVsUncachedDecisions(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			plan := randomPlan(rng, seed)

			type half struct {
				sys     *sack.System
				root    *sack.Task
				clock   *resilience.VirtualClock
				service *sack.SDS
			}
			mk := func(opts ...sack.Option) *half {
				opts = append(opts, sack.WithFaultPlan(plan))
				sys, err := sack.New(chaosPolicy, opts...)
				if err != nil {
					t.Fatal(err)
				}
				root := sys.Kernel.Init()
				clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
				service, err := sys.NewSDSWith(root, clock,
					[]sds.Detector{
						sds.DrivingDetector(),
						sds.CrashDetector(8.0),
						sds.AllClearDetector(8.0),
					},
					sds.WithHeartbeat(500*time.Millisecond),
					sds.WithJitterSeed(seed),
				)
				if err != nil {
					t.Fatal(err)
				}
				return &half{sys: sys, root: root, clock: clock, service: service}
			}
			cached, ablated := mk(), mk(sack.WithoutAVC())

			tr := trace.NewGenerator(seed).Generate(80)
			var prev time.Duration
			for step, p := range tr.Points {
				for _, h := range []*half{cached, ablated} {
					if p.T > prev {
						h.clock.Advance(p.T - prev)
					}
					trace.Apply(p, h.sys.Vehicle.Dynamics)
					_, _ = h.service.Poll()
					h.sys.Pipeline().Check(h.clock.Now())
				}
				if p.T > prev {
					prev = p.T
				}

				a, b := cached.sys.CurrentState().Name, ablated.sys.CurrentState().Name
				if a != b {
					t.Fatalf("seed %d step %d: states diverge: cached=%s ablated=%s", seed, step, a, b)
				}
				probe := func(h *half) error {
					fd, err := h.root.Open("/dev/vehicle/door0", sack.ORdonly, 0)
					if err != nil {
						return err
					}
					_, err = h.root.Ioctl(fd, vehicle.IoctlDoorStatus, 0)
					h.root.Close(fd)
					return err
				}
				ea, eb := probe(cached), probe(ablated)
				if (ea == nil) != (eb == nil) {
					t.Fatalf("seed %d step %d state %s: decisions diverge: cached=%v ablated=%v",
						seed, step, a, ea, eb)
				}
			}
		})
	}
}

// transitionLedger counts the state_transition audit records of sys:
// moves a delivered event caused, and forced ones (break-glass, state
// writes, failsafe pinning and recovery). It fails the test if the log
// dropped a record, which would leave the count short.
func transitionLedger(t *testing.T, sys *sack.System) (hits, forced uint64) {
	t.Helper()
	recs := sys.Audit.Records()
	if d := sys.Audit.Dropped(); d != 0 {
		t.Fatalf("audit log dropped %d records; the transition ledger needs them all", d)
	}
	for _, r := range recs {
		if r.Op != "state_transition" {
			continue
		}
		if r.Subject == "force_state" {
			forced++
		} else {
			hits++
		}
	}
	return hits, forced
}
