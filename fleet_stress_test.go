package sack_test

// fleet_stress_test is the fleet-convergence property suite: N vehicles
// (1000 in the full run) each boot a real kernel, join one control
// plane through fault-injecting transports (drops, delays, duplicates,
// corruption — per-vehicle random plans off a fixed seed), and must
// converge to every pushed bundle generation with a ledger-exact
// decision-log account: for every vehicle,
//
//	accepted(server) + dropped(agent) == emitted(kernel audit ring)
//
// at quiescence, duplicates from at-least-once retries notwithstanding.
// A slice of the fleet is degraded (heartbeat lapse → failsafe pinning)
// before the second push and must still apply it — PR 3's reload works
// while pinned, so a degraded vehicle converges without wedging.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	sack "repro"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/lsm"
	"repro/internal/resilience"
)

const fleetPolicyBody = `
permissions {
  DEVICE_READ
  CONTROL_CAR_DOORS
}

per_rules {
  DEVICE_READ {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door*
  }
}
`

const fleetPolicyV1 = `
states { parked = 0 driving = 1 emergency = 2 safe_stop = 3 }
initial parked
failsafe safe_stop
state_per {
  parked:    DEVICE_READ, CONTROL_CAR_DOORS
  driving:   DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
  safe_stop: DEVICE_READ
}
transitions {
  parked -> driving on driving_started
  driving -> parked on driving_stopped
  driving -> emergency on crash_detected
  emergency -> parked on all_clear
  safe_stop -> parked on all_clear
}
` + fleetPolicyBody

// V2 widens safe_stop (door control while pinned) — a real permission
// diff, so converged vehicles report a non-empty DiffSummary.
const fleetPolicyV2 = `
states { parked = 0 driving = 1 emergency = 2 safe_stop = 3 }
initial parked
failsafe safe_stop
state_per {
  parked:    DEVICE_READ, CONTROL_CAR_DOORS
  driving:   DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
  safe_stop: DEVICE_READ, CONTROL_CAR_DOORS
}
transitions {
  parked -> driving on driving_started
  driving -> parked on driving_stopped
  driving -> emergency on crash_detected
  emergency -> parked on all_clear
  safe_stop -> parked on all_clear
}
` + fleetPolicyBody

// randomFleetPlan builds a per-vehicle transport fault plan: each RPC
// target gets a random fault kind striking with random probability for
// a bounded window, so chaos is heavy early and exhausts — convergence
// is then guaranteed, and the test asserts it actually happens.
func randomFleetPlan(rng *rand.Rand) *faults.Plan {
	kinds := []faults.Kind{faults.Drop, faults.Stall, faults.Delay, faults.Duplicate, faults.Corrupt}
	plan := &faults.Plan{Seed: rng.Int63()}
	for _, target := range []string{fleet.TargetBundle, fleet.TargetStatus, fleet.TargetLogs} {
		if rng.Float64() < 0.2 {
			continue // this vehicle's RPC stays healthy
		}
		plan.Add(faults.Rule{
			Target: target,
			Kind:   kinds[rng.Intn(len(kinds))],
			Prob:   0.2 + 0.5*rng.Float64(),
			For:    50 + rng.Intn(150),
		})
	}
	return plan
}

// fleetVehicle is one simulated fleet member in the stress run.
type fleetVehicle struct {
	id    string
	sys   *sack.System
	noisy bool // floods its audit ring past capacity (forces drops)
}

func TestFleetConvergence(t *testing.T) {
	nVehicles := 1000
	if testing.Short() {
		nVehicles = 100
	}
	const (
		group     = "prod"
		nNoisy    = 20   // vehicles that overflow their audit ring
		noisyRecs = 6000 // records each noisy vehicle emits (> ring cap)
		degraded  = 25   // vehicles pinned to failsafe before the push
		maxRounds = 5000 // sync rounds before declaring non-convergence
	)
	rng := rand.New(rand.NewSource(42))

	server := fleet.NewServer(fleet.WithLogCapacity(16384))
	if _, err := server.Publish(group, fleetPolicyV1); err != nil {
		t.Fatalf("publish v1: %v", err)
	}

	// Background consumer: drains accepted records the way fleetd's
	// downstream would, keeping the bounded buffer from wedging the
	// whole fleet while also exercising the backpressure path.
	drainCtx, stopDrain := context.WithCancel(context.Background())
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			server.Drain(4096)
			select {
			case <-drainCtx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	// Boot the fleet.
	vehicles := make([]*fleetVehicle, nVehicles)
	for i := range vehicles {
		id := fmt.Sprintf("veh-%04d", i)
		transport := fleet.NewFaultyTransport(server, randomFleetPlan(rng))
		transport.DelayUnit = time.Microsecond // keep injected delays cheap
		sys, err := sack.New(fleetPolicyV1,
			sack.WithoutVehicle(),
			sack.WithFleet(sack.FleetAgentConfig{
				Vehicle:   id,
				Group:     group,
				Transport: transport,
				PollWait:  time.Millisecond,
				BatchSize: 512,
			}),
		)
		if err != nil {
			t.Fatalf("boot %s: %v", id, err)
		}
		vehicles[i] = &fleetVehicle{id: id, sys: sys, noisy: i < nNoisy}
	}

	// syncUntil drives every agent concurrently until cond holds for it
	// (or maxRounds passes, which fails the test).
	syncUntil := func(phase string, cond func(*fleetVehicle) bool) {
		t.Helper()
		var wg sync.WaitGroup
		failed := make(chan string, nVehicles)
		for _, v := range vehicles {
			wg.Add(1)
			go func(v *fleetVehicle) {
				defer wg.Done()
				for round := 0; ; round++ {
					if cond(v) {
						return
					}
					if round >= maxRounds {
						failed <- fmt.Sprintf("%s: %s did not converge (gen=%d lastErr=%q)",
							phase, v.id, v.sys.Fleet.AppliedGeneration(), v.sys.Fleet.LastError())
						return
					}
					v.sys.Fleet.SyncOnce() // errors are the chaos; retry
				}
			}(v)
		}
		wg.Wait()
		close(failed)
		for msg := range failed {
			t.Fatal(msg)
		}
	}

	// Phase 1: everyone converges to generation 1 through the chaos.
	syncUntil("phase1", func(v *fleetVehicle) bool {
		return v.sys.Fleet.AppliedGeneration() == 1
	})

	// Noisy vehicles flood their audit rings past capacity between
	// syncs, so the overwrite → dropped-record accounting must carry
	// the loss into the ledger.
	for _, v := range vehicles[:nNoisy] {
		for i := 0; i < noisyRecs; i++ {
			v.sys.Audit.Append(lsm.AuditRecord{
				Module: "sack", Op: "probe", Action: "DENIED",
				Object: fmt.Sprintf("/dev/vehicle/door%d", i%4),
			})
		}
	}
	// The rest emit a modest amount of real kernel audit traffic:
	// denied opens in the driving state land in the ring via the LSM.
	for _, v := range vehicles[nNoisy:] {
		if err := v.sys.Events().DeliverEvent("driving_started"); err != nil {
			t.Fatalf("%s: driving_started: %v", v.id, err)
		}
		task := v.sys.Kernel.Init()
		for i := 0; i < 3; i++ {
			task.Open("/dev/vehicle/door0", sack.OWronly, 0) // denied while driving
		}
		if err := v.sys.Events().DeliverEvent("driving_stopped"); err != nil {
			t.Fatalf("%s: driving_stopped: %v", v.id, err)
		}
	}

	// Degrade a slice of the fleet: observe one heartbeat, then let the
	// watchdog window lapse — the pipeline pins to safe_stop.
	t0 := time.Unix(1_700_000_000, 0)
	for _, v := range vehicles[nNoisy : nNoisy+degraded] {
		p := v.sys.Pipeline()
		p.Observe(sack.Heartbeat{Seq: 1, At: t0, Cap: 8})
		if !p.Check(t0.Add(p.Window() + time.Second)) {
			t.Fatalf("%s: watchdog did not lapse", v.id)
		}
		if !p.Pinned() || v.sys.CurrentState().Name != "safe_stop" {
			t.Fatalf("%s: not pinned to failsafe (state %s)", v.id, v.sys.CurrentState().Name)
		}
	}

	// Phase 2: push v2 while the fleet is mid-flight — noisy rings
	// overflowing, a slice pinned degraded, transports still faulting.
	if _, err := server.Publish(group, fleetPolicyV2); err != nil {
		t.Fatalf("publish v2: %v", err)
	}
	syncUntil("phase2", func(v *fleetVehicle) bool {
		return v.sys.Fleet.AppliedGeneration() == 2 && v.sys.Fleet.LastError() == ""
	})
	// One final clean round each so the server holds every vehicle's
	// settled ledger (the convergence round may have preceded the last
	// status report).
	syncUntil("settle", func(v *fleetVehicle) bool {
		st := v.sys.Fleet.Status()
		return st.Uploaded+st.Dropped == st.Emitted && func() bool {
			sv, ok := server.Vehicle(v.id)
			return ok && sv.Emitted == st.Emitted && sv.Uploaded == st.Uploaded && sv.Dropped == st.Dropped
		}()
	})

	stopDrain()
	drainWG.Wait()

	// Server-side verification: applied generation, diff, and the
	// decision-log ledger for every vehicle.
	states := server.Vehicles()
	if len(states) != nVehicles {
		t.Fatalf("server tracks %d vehicles, want %d", len(states), nVehicles)
	}
	current, err := server.Bundle(group)
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range states {
		if sv.AppliedGeneration != 2 || sv.Checksum != current.Checksum {
			t.Fatalf("%s not converged: %+v", sv.Vehicle, sv)
		}
		if sv.DiffSummary == "" || sv.DiffSummary == "no changes" {
			t.Fatalf("%s converged without a real diff: %q", sv.Vehicle, sv.DiffSummary)
		}
		if sv.Accepted+sv.Dropped != sv.Emitted {
			t.Fatalf("%s ledger not exact: accepted=%d dropped=%d emitted=%d",
				sv.Vehicle, sv.Accepted, sv.Dropped, sv.Emitted)
		}
		if sv.Uploaded != sv.Accepted {
			t.Fatalf("%s upload/accept mismatch: uploaded=%d accepted=%d",
				sv.Vehicle, sv.Uploaded, sv.Accepted)
		}
	}

	// The noisy slice really lost records (the ring overwrote), and the
	// quiet slice lost none — drops come from accounting, not leakage.
	for i, sv := range states[:nNoisy] {
		if sv.Dropped == 0 {
			t.Fatalf("noisy vehicle %d dropped nothing (emitted %d)", i, sv.Emitted)
		}
	}
	for _, v := range vehicles[nNoisy:] {
		if sv, _ := server.Vehicle(v.id); sv.Dropped != 0 {
			t.Fatalf("%s dropped %d records without ring pressure", v.id, sv.Dropped)
		} else if sv.Emitted == 0 {
			t.Fatalf("%s emitted no audit records; denial path broken", v.id)
		}
	}

	// Degraded vehicles applied v2 while pinned — and stayed pinned.
	for _, v := range vehicles[nNoisy : nNoisy+degraded] {
		sv, _ := server.Vehicle(v.id)
		if !sv.Degraded || !sv.Pinned {
			t.Fatalf("%s lost its degraded/pinned report: %+v", v.id, sv)
		}
		if v.sys.CurrentState().Name != "safe_stop" {
			t.Fatalf("%s left failsafe during reload: %s", v.id, v.sys.CurrentState().Name)
		}
	}

	// Aggregate coherence: per-vehicle accepts sum to the ingestion
	// counter, and everything accepted was drained (buffer empty).
	st := server.Stats()
	var sumAccepted uint64
	for _, sv := range states {
		sumAccepted += sv.Accepted
	}
	if sumAccepted != st.Logs.Accepted {
		t.Fatalf("accepted sum %d != ingestion counter %d", sumAccepted, st.Logs.Accepted)
	}
	if drained := server.Drain(0); uint64(len(drained))+st.Logs.Drained != st.Logs.Accepted {
		t.Fatalf("drain ledger: %d drained + %d pending != %d accepted",
			st.Logs.Drained, len(drained), st.Logs.Accepted)
	}
	if len(st.Groups) != 1 || st.Groups[0].Converged != nVehicles {
		t.Fatalf("fleet stats disagree on convergence: %+v", st.Groups)
	}
	t.Logf("fleet: %d vehicles converged to gen %d; logs accepted=%d duplicates=%d rejected_batches=%d",
		nVehicles, current.Generation, st.Logs.Accepted, st.Logs.Duplicates, st.Logs.BatchesRejected)
}

// TestFleetRunLoopConverges exercises the agent's self-paced Run loop
// (jittered exponential backoff, breaker, cached-bundle fallback) end
// to end: a small fleet under chaotic transports converges to a
// mid-flight publish with no manual sync driving. Each agent backs off
// and cools its breaker down on its own auto-advancing virtual clock,
// so only the transports' fault delays and long-polls take real time.
func TestFleetRunLoopConverges(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(7))
	server := fleet.NewServer()
	if _, err := server.Publish("prod", fleetPolicyV1); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		transport := fleet.NewFaultyTransport(server, randomFleetPlan(rng))
		transport.DelayUnit = time.Microsecond
		vehicle := fmt.Sprintf("run-%02d", i)
		sys, err := sack.New(fleetPolicyV1,
			sack.WithoutVehicle(),
			sack.WithFleet(sack.FleetAgentConfig{
				Vehicle:   vehicle,
				Group:     "prod",
				Transport: transport,
				PollWait:  time.Millisecond,
				Interval:  500 * time.Microsecond,
			}, fleet.WithAgentClock(resilience.NewAutoClock(time.Unix(1_700_000_000, 0)))),
		)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(a *sack.FleetAgent) {
			defer wg.Done()
			a.Run(ctx)
		}(sys.Fleet)
	}

	// Wait on the server's view, not the agents': a log upload that
	// reaches the server before a vehicle's first status report files
	// the vehicle under group "" until that report lands.
	waitFor := func(gen uint64) {
		t.Helper()
		deadline := time.Now().Add(25 * time.Second)
		for {
			st := server.Stats()
			if len(st.Groups) == 1 && st.Groups[0].Group == "prod" &&
				st.Groups[0].Generation == gen && st.Groups[0].Converged == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("server view never converged on generation %d: %+v", gen, st.Groups)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(1)
	if _, err := server.Publish("prod", fleetPolicyV2); err != nil {
		t.Fatal(err)
	}
	waitFor(2)
	cancel()
	wg.Wait()

	if st := server.Stats(); len(st.Groups) != 1 || st.Groups[0].Generation != 2 {
		t.Fatalf("stats after run loop: %+v", st.Groups)
	}
}
