// Flaky control plane — the fleet agent's sync round riding out a dying
// fleetd: a vehicle joins a group (each round is a full-jitter retry of
// breaker-gated attempts that degrades to the cached bundle), the
// control plane then goes hard-down, and the vehicle keeps making
// kernel decisions and green sync rounds on its cached generation while
// the breaker short-circuits the dead RPCs.
// When the plane heals, the agent reconverges and the decision-log
// ledger closes exactly. The same cross runs adversarially in
// TestChaosFlappingControlPlaneNeverBlocksDecisions
// (`make resilience-stress`).
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	sack "repro"
	"repro/internal/fleet"
	"repro/internal/resilience"
)

const policyV1 = `
states {
  parked = 0
  driving = 1
}
initial parked
permissions {
  DEVICE_READ
  CONTROL_CAR_DOORS
}
state_per {
  parked:  DEVICE_READ, CONTROL_CAR_DOORS
  driving: DEVICE_READ
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
}
`

// flakyTransport is a kill switch in front of the control plane: while
// tripped, every RPC fails immediately — fleetd is down, not just slow.
type flakyTransport struct {
	inner fleet.Transport
	down  atomic.Bool
}

func (f *flakyTransport) err() error { return fmt.Errorf("dial fleetd: connection refused") }

func (f *flakyTransport) FetchBundle(vehicle, group, etag string, wait time.Duration) (sack.Bundle, bool, error) {
	if f.down.Load() {
		return sack.Bundle{}, false, f.err()
	}
	return f.inner.FetchBundle(vehicle, group, etag, wait)
}

func (f *flakyTransport) ReportStatus(st fleet.VehicleStatus) error {
	if f.down.Load() {
		return f.err()
	}
	return f.inner.ReportStatus(st)
}

func (f *flakyTransport) UploadLogs(vehicle string, recs []fleet.LogRecord) (int, error) {
	if f.down.Load() {
		return 0, f.err()
	}
	return f.inner.UploadLogs(vehicle, recs)
}

func main() {
	server := fleet.NewServer()
	if _, err := server.Publish("vans", policyV1); err != nil {
		log.Fatal(err)
	}
	transport := &flakyTransport{inner: server}

	// An auto-advancing virtual clock: the retry backoff and breaker
	// cooldown play out in virtual time, so the dead phases below are
	// instant to run yet follow the exact production schedule.
	clock := resilience.NewAutoClock(time.Unix(1_700_000_000, 0))
	sys, err := sack.New(policyV1,
		sack.WithFleet(sack.FleetAgentConfig{
			Vehicle:   "van-1",
			Group:     "vans",
			Transport: transport,
			PollWait:  time.Millisecond,
		}, fleet.WithAgentClock(clock)),
	)
	if err != nil {
		log.Fatal(err)
	}
	agent := sys.Fleet
	ctx := context.Background()

	fmt.Println("== Flaky control plane ==")
	if err := agent.Sync(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("van-1 joined group vans at generation %d\n\n", agent.AppliedGeneration())

	// The plane dies. Rounds still return nil: the retry grinds
	// its bounded attempts, the breaker trips, and the cached-bundle
	// fallback serves the applied generation.
	transport.down.Store(true)
	fmt.Println("-- fleetd goes down --")
	for round := 1; round <= 6; round++ {
		err := agent.Sync(ctx)
		fmt.Printf("round %d: sync err=%v  generation=%d (cached)\n",
			round, err, agent.AppliedGeneration())
	}

	// Decisions never depended on the control plane: the kernel keeps
	// answering, and denials land in the audit ring for later shipping.
	if err := sys.Events().DeliverEvent("driving_started"); err != nil {
		log.Fatal(err)
	}
	task := sys.Kernel.Init()
	for i := 0; i < 3; i++ {
		if _, err := task.Open("/dev/vehicle/door0", sack.OWronly, 0); err != nil {
			fmt.Printf("decision while down: door open denied (driving): %v\n", err)
		}
	}

	st := agent.Status()
	fmt.Printf("\n-- agent while down --\nbreaker=%s shed=%d fallbacks=%d (rounds served from cache)\n\n",
		st.Breaker, st.Shed, st.Fallbacks)

	// The plane heals: rounds come back clean (the breaker's virtual
	// cooldown has long lapsed), the buffered denials ship, and the
	// ledger closes exactly.
	transport.down.Store(false)
	fmt.Println("-- fleetd heals --")
	for agent.LastError() != "" {
		agent.Sync(ctx)
	}
	for {
		st := agent.Status()
		if sv, ok := server.Vehicle("van-1"); ok &&
			st.Uploaded+st.Dropped == st.Emitted && sv.Accepted+sv.Dropped == sv.Emitted {
			fmt.Printf("ledger closed: emitted=%d uploaded=%d dropped=%d (server accepted=%d)\n",
				st.Emitted, st.Uploaded, st.Dropped, sv.Accepted)
			break
		}
		agent.SyncOnce()
	}
	// One more round ships a status report taken after the breaker
	// closed, so the fleet view below reflects the recovered vehicle.
	if err := agent.SyncOnce(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- fleet status --\n%s", server.Stats().Render())
}
