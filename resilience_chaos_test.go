package sack_test

// resilience_chaos_test crosses the agent's sync round and fleetd's
// bulkheads with the fault injector at system scope: a flapping control
// plane must never block the vehicle's decision loop (the breaker
// short-circuits dead attempts, the cached-bundle fallback keeps Sync
// green), and one vehicle group flooding fleetd's ingestion must not
// move another group's convergence schedule by a single round. Both
// scenarios settle the decision-log ledger invariant — accepted +
// dropped == emitted, exactly — and run with virtual agent clocks: no
// real sleeps back off anywhere.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sack "repro"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/resilience"
)

// downableTransport is a kill switch in front of a transport: while
// down, every RPC fails immediately — a control plane that is hard-dead
// rather than merely lossy. It counts the bundle fetches that reach it,
// so the test sees the attempts the breaker short-circuited.
type downableTransport struct {
	inner   fleet.Transport
	down    atomic.Bool
	fetches atomic.Int64
}

func (d *downableTransport) err() error {
	return fmt.Errorf("control plane down: %w", fleet.ErrDropped)
}

func (d *downableTransport) FetchBundle(vehicle, group, etag string, wait time.Duration) (sack.Bundle, bool, error) {
	d.fetches.Add(1)
	if d.down.Load() {
		return sack.Bundle{}, false, d.err()
	}
	return d.inner.FetchBundle(vehicle, group, etag, wait)
}

func (d *downableTransport) ReportStatus(st fleet.VehicleStatus) error {
	if d.down.Load() {
		return d.err()
	}
	return d.inner.ReportStatus(st)
}

func (d *downableTransport) UploadLogs(vehicle string, recs []fleet.LogRecord) (int, error) {
	if d.down.Load() {
		return 0, d.err()
	}
	return d.inner.UploadLogs(vehicle, recs)
}

// TestChaosFlappingControlPlaneNeverBlocksDecisions flaps fleetd
// hard-down/up around a vehicle's agent. While the plane is dead, sync
// rounds must complete and return nil (cached-bundle fallback) with the
// breaker short-circuiting attempts, and kernel decisions must keep
// flowing concurrently. After the final heal, the decision-log ledger
// closes exactly.
func TestChaosFlappingControlPlaneNeverBlocksDecisions(t *testing.T) {
	server := fleet.NewServer()
	if _, err := server.Publish("prod", fleetPolicyV1); err != nil {
		t.Fatal(err)
	}
	// Up phases stay lossy (drops/delays/duplicates off a fixed seed):
	// the retry layer grinds through that noise; the breaker and
	// fallback handle the dead phases layered on top by the kill switch.
	noisy := fleet.NewFaultyTransport(server, &faults.Plan{Seed: 11, Rules: []faults.Rule{
		{Target: fleet.TargetStatus, Kind: faults.Drop, Prob: 0.3, For: 400},
		{Target: fleet.TargetLogs, Kind: faults.Duplicate, Prob: 0.3, For: 400},
	}})
	noisy.DelayUnit = time.Microsecond
	transport := &downableTransport{inner: noisy}

	clock := resilience.NewAutoClock(time.Unix(1_700_000_000, 0))
	sys, err := sack.New(fleetPolicyV1,
		sack.WithoutVehicle(),
		sack.WithFleet(sack.FleetAgentConfig{
			Vehicle:   "veh-flap",
			Group:     "prod",
			Transport: transport,
			PollWait:  time.Millisecond,
			BatchSize: 256,
		}, fleet.WithAgentClock(clock)),
	)
	if err != nil {
		t.Fatal(err)
	}
	agent := sys.Fleet
	ctx := context.Background()

	// Converge once while healthy so the fallback has a bundle to serve.
	for round := 0; agent.AppliedGeneration() != 1; round++ {
		if round > 200 {
			t.Fatalf("never converged while healthy: %s", agent.LastError())
		}
		agent.Sync(ctx)
	}

	if err := sys.Events().DeliverEvent("driving_started"); err != nil {
		t.Fatal(err)
	}
	task := sys.Kernel.Init()
	decide := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			// Door writes are denied while driving; every decision must
			// return, control plane or no control plane.
			if _, err := task.Open("/dev/vehicle/door0", sack.OWronly, 0); err == nil {
				t.Fatal("door open allowed while driving")
			}
		}
	}

	const flaps, deadRounds = 5, 4
	var deadFetches int64
	for cycle := 0; cycle < flaps; cycle++ {
		transport.down.Store(true)
		fetchesBefore := transport.fetches.Load()
		// Rounds against a dead plane: each must complete (bounded
		// attempts, virtual backoff) and degrade to the cached bundle,
		// while decisions flow on the same vehicle concurrently.
		var syncWG sync.WaitGroup
		syncWG.Add(1)
		go func() {
			defer syncWG.Done()
			for r := 0; r < deadRounds; r++ {
				if err := agent.Sync(ctx); err != nil {
					t.Errorf("cycle %d round %d: dead-plane sync surfaced %v, want cached fallback", cycle, r, err)
				}
			}
		}()
		decide(50)
		syncWG.Wait()
		deadFetches += transport.fetches.Load() - fetchesBefore
		if gen := agent.AppliedGeneration(); gen != 1 {
			t.Fatalf("cycle %d: cached generation lost: %d", cycle, gen)
		}
		if st := agent.Status(); st.Breaker != "open" {
			t.Fatalf("cycle %d: breaker %q after dead rounds, want open", cycle, st.Breaker)
		}

		transport.down.Store(false)
		// Heal: grind until a clean round lands (breaker cooldown is
		// virtual time, advanced by the retry backoff itself).
		for round := 0; agent.LastError() != ""; round++ {
			if round > 500 {
				t.Fatalf("cycle %d: no clean round after heal: %s", cycle, agent.LastError())
			}
			agent.Sync(ctx)
		}
	}

	if attempts := int64(flaps * deadRounds * resilience.DefaultRetryAttempts); deadFetches >= attempts {
		t.Fatalf("%d of %d dead-plane attempts reached the transport; the breaker never short-circuited",
			deadFetches, attempts)
	}
	if agent.Fallbacks() == 0 {
		t.Fatal("cached-bundle fallback never served a dead-plane round")
	}

	// Quiescence: the ledger must close exactly, agent- and server-side.
	for round := 0; ; round++ {
		st := agent.Status()
		sv, ok := server.Vehicle("veh-flap")
		if st.Uploaded+st.Dropped == st.Emitted && ok &&
			sv.Accepted+sv.Dropped == sv.Emitted && sv.Uploaded == sv.Accepted {
			break
		}
		if round > 500 {
			t.Fatalf("ledger never closed: agent=%+v server=%+v", st, sv)
		}
		agent.SyncOnce()
	}
	if st := agent.Status(); st.Emitted == 0 {
		t.Fatal("no decisions were emitted; the chaos proved nothing")
	}
}

// TestChaosFloodedGroupDoesNotStarveQuietGroup floods one vehicle
// group's ingestion compartment while another group converges to a
// mid-flood publish. The quiet group's convergence must take exactly
// as many rounds as a flood-free baseline, its compartment must shed
// nothing, and the flooded compartment must be the one paying in 429s.
func TestChaosFloodedGroupDoesNotStarveQuietGroup(t *testing.T) {
	const quietN = 4

	// bootQuiet stands up a server with per-group bulkheads and a quiet
	// fleet, returning the per-vehicle round counts needed to converge
	// to the given generation.
	type rig struct {
		server   *fleet.Server
		vehicles []*sack.System
	}
	boot := func(prefix string) rig {
		server := fleet.NewServer(fleet.WithGroupBulkhead(1, -1), fleet.WithLogCapacity(1<<17))
		for _, g := range []string{"quiet", "floods"} {
			if _, err := server.Publish(g, fleetPolicyV1); err != nil {
				t.Fatal(err)
			}
		}
		vehicles := make([]*sack.System, quietN)
		for i := range vehicles {
			sys, err := sack.New(fleetPolicyV1,
				sack.WithoutVehicle(),
				sack.WithFleet(sack.FleetAgentConfig{
					Vehicle:   fmt.Sprintf("%s-%02d", prefix, i),
					Group:     "quiet",
					Transport: server,
					PollWait:  time.Millisecond,
				}),
			)
			if err != nil {
				t.Fatal(err)
			}
			vehicles[i] = sys
		}
		return rig{server: server, vehicles: vehicles}
	}
	converge := func(r rig, gen uint64) []int {
		t.Helper()
		rounds := make([]int, len(r.vehicles))
		for i, sys := range r.vehicles {
			for sys.Fleet.AppliedGeneration() != gen {
				if rounds[i]++; rounds[i] > 100 {
					t.Fatalf("vehicle %d stuck short of generation %d: %s", i, gen, sys.Fleet.LastError())
				}
				sys.Fleet.SyncOnce()
			}
		}
		return rounds
	}

	// Baseline: no flood anywhere.
	baselineRig := boot("base")
	baseline1 := converge(baselineRig, 1)
	if _, err := baselineRig.server.Publish("quiet", fleetPolicyV2); err != nil {
		t.Fatal(err)
	}
	baseline2 := converge(baselineRig, 2)

	// Flooded run: same topology, plus a blast of concurrent uploads
	// from the floods group racing for its single-admission compartment.
	r := boot("veh")
	if got := converge(r, 1); fmt.Sprint(got) != fmt.Sprint(baseline1) {
		t.Fatalf("pre-flood convergence off baseline: %v vs %v", got, baseline1)
	}
	// Flooding vehicles report in so their uploads route to "floods".
	const floodN = 16
	for i := 0; i < floodN; i++ {
		if err := r.server.ReportStatus(fleet.VehicleStatus{
			Vehicle: fmt.Sprintf("flood-%02d", i), Group: "floods",
		}); err != nil {
			t.Fatal(err)
		}
	}
	recs := make([]fleet.LogRecord, 512)
	for i := range recs {
		recs[i] = fleet.LogRecord{Seq: uint64(i + 1), Action: "DENIED", Object: "/dev/vehicle/door0"}
	}
	stopFlood := make(chan struct{})
	var floodWG sync.WaitGroup
	for i := 0; i < floodN; i++ {
		floodWG.Add(1)
		go func(i int) {
			defer floodWG.Done()
			vehicle := fmt.Sprintf("flood-%02d", i)
			for {
				select {
				case <-stopFlood:
					return
				default:
				}
				// Identical sequence ranges keep the log buffer flat
				// (server-side dedup) while hammering the compartment.
				r.server.UploadLogs(vehicle, recs)
			}
		}(i)
	}

	// Mid-flood publish: the quiet group must converge on the baseline
	// schedule, round for round.
	if _, err := r.server.Publish("quiet", fleetPolicyV2); err != nil {
		t.Fatal(err)
	}
	flooded2 := converge(r, 2)
	if fmt.Sprint(flooded2) != fmt.Sprint(baseline2) {
		t.Fatalf("flood moved the quiet group's schedule: %v, baseline %v", flooded2, baseline2)
	}

	// Let the blast run until the flooded compartment demonstrably shed
	// (16 racers on one admission slot collide almost immediately).
	deadline := time.Now().Add(10 * time.Second)
	for {
		var floodShed uint64
		for _, in := range r.server.Stats().Ingest {
			if in.Key == "floods" {
				floodShed = in.Shed
			}
		}
		if floodShed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flooded compartment never shed under a 16-way race for 1 slot")
		}
	}
	close(stopFlood)
	floodWG.Wait()

	for _, in := range r.server.Stats().Ingest {
		if in.Key == "quiet" && in.Shed != 0 {
			t.Fatalf("quiet compartment shed %d uploads during another group's flood", in.Shed)
		}
	}

	// The quiet group's ledgers close exactly despite the neighbour's
	// flood — and its vehicles really did ship decisions through it.
	for i, sys := range r.vehicles {
		if err := sys.Events().DeliverEvent("driving_started"); err != nil {
			t.Fatal(err)
		}
		task := sys.Kernel.Init()
		for j := 0; j < 3+i; j++ {
			task.Open("/dev/vehicle/door0", sack.OWronly, 0) // denied while driving
		}
		for round := 0; ; round++ {
			st := sys.Fleet.Status()
			sv, ok := r.server.Vehicle(st.Vehicle)
			if st.Uploaded+st.Dropped == st.Emitted && st.Emitted > 0 && ok &&
				sv.Accepted+sv.Dropped == sv.Emitted {
				break
			}
			if round > 100 {
				t.Fatalf("%s ledger never closed: %+v", st.Vehicle, st)
			}
			sys.Fleet.SyncOnce()
		}
	}
}
