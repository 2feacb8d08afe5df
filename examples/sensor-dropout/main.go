// Sensor dropout and fail-safe degradation: the accelerometer goes dark
// mid-drive, the SDS reports it over the heartbeat channel, and the
// kernel pins the SSM to the policy's failsafe state until the sensor
// returns. Demonstrates the resilience pipeline end to end: fault
// injection, dark-sensor detection, degradation, and recovery.
package main

import (
	"fmt"
	"log"
	"time"

	sack "repro"
	"repro/internal/faults"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/policies"
)

func main() {
	// The embedded failsafe policy declares `failsafe safe_stop`.
	policyText := policies.MustLoad("failsafe")

	// Fault plan: the accelerometer returns stale samples from poll 6
	// for 8 polls, then comes back.
	plan := &faults.Plan{Seed: 42}
	plan.Add(sack.FaultRule{
		Target: faults.SensorTarget(sds.SensorAccel),
		Kind:   faults.Drop,
		After:  6,
		For:    8,
	})

	sys, err := sack.New(policyText, sack.WithFaultPlan(plan))
	if err != nil {
		log.Fatal(err)
	}
	root := sys.Kernel.Init()
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))

	// Heartbeat every poll; a sensor is declared dark after
	// sds.DefaultDarkThreshold (3) stale reads in a row.
	service, err := sys.NewSDSWith(root, clock,
		[]sack.Detector{sds.DrivingDetector()},
		sds.WithHeartbeat(500*time.Millisecond),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Sensor dropout -> fail-safe degradation ==")
	sys.Vehicle.Dynamics.SetIgnition(true)
	sys.Vehicle.Dynamics.SetDriverPresent(true)
	sys.Vehicle.Dynamics.SetSpeed(50)

	pipe := sys.Pipeline()
	for i := 0; i < 20; i++ {
		clock.Advance(time.Second)
		if _, err := service.Poll(); err != nil {
			log.Fatal(err)
		}
		pipe.Check(clock.Now())
		st := pipe.Stats()
		status := "healthy"
		if st.Degraded {
			status = "DEGRADED (" + st.Reason + ")"
		}
		fmt.Printf("poll %2d  state=%-10s dark=%v  %s\n",
			i+1, sys.CurrentState().Name, service.DarkSensors(), status)
	}

	fmt.Println()
	out, err := root.ReadFileAll(sack.PipelineFile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- %s --\n%s", sack.PipelineFile, out)

	st := pipe.Stats()
	if st.Degradations == 0 || st.Recoveries == 0 {
		log.Fatal("expected one degradation and one recovery")
	}
}
