// Speed-gated resource — the Fig. 3(b) scenario: a critical calibration
// file may only be touched while the vehicle is below a speed threshold.
// The SDS watches the speedometer and drives low<->high transitions; the
// demo replays a highway trace and probes the file along the way.
package main

import (
	"fmt"
	"log"
	"time"

	sack "repro"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/trace"
)

const policyText = `
states {
  low_speed = 0
  high_speed = 1
}

initial low_speed

permissions {
  CRITICAL_FILE
  DEVICE_READ
}

state_per {
  low_speed:  CRITICAL_FILE, DEVICE_READ
  high_speed: DEVICE_READ
}

per_rules {
  DEVICE_READ {
    allow read /dev/vehicle/**
  }
  CRITICAL_FILE {
    allow read,write /etc/vehicle/calibration.conf
  }
}

transitions {
  low_speed -> high_speed on speed_high
  high_speed -> low_speed on speed_low
}
`

func main() {
	sys, err := sack.New(policyText)
	if err != nil {
		log.Fatal(err)
	}
	k := sys.Kernel
	root := k.Init()
	if err := k.WriteFile("/etc/vehicle/calibration.conf", 0o644, []byte("gain=1.0\n")); err != nil {
		log.Fatal(err)
	}

	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	service, err := sys.NewSDS(root, clock, sds.SpeedBandDetector(80))
	if err != nil {
		log.Fatal(err)
	}

	probe := func(when string) {
		_, err := root.ReadFileAll("/etc/vehicle/calibration.conf")
		state := sys.CurrentState().Name
		speed := sys.Vehicle.Dynamics.Speed()
		switch {
		case err == nil:
			fmt.Printf("%-28s speed=%5.1f km/h state=%-10s calibration file: readable\n", when, speed, state)
		case sack.IsErrno(err, sack.EACCES):
			fmt.Printf("%-28s speed=%5.1f km/h state=%-10s calibration file: EACCES\n", when, speed, state)
		default:
			log.Fatalf("unexpected error: %v", err)
		}
	}

	fmt.Println("== Speed-gated critical file (Fig. 3(b) scenario) ==")
	probe("before driving:")

	// Step through the highway trace point by point, probing after each.
	tr := trace.HighwayDrive()
	var prev time.Duration
	for _, p := range tr.Points {
		if p.T > prev {
			clock.Advance(p.T - prev)
			prev = p.T
		}
		trace.Apply(p, sys.Vehicle.Dynamics)
		events, err := service.Poll()
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("t=%-4s", p.T)
		if len(events) > 0 {
			label = fmt.Sprintf("t=%-4s %v", p.T, events)
		}
		probe(label)
	}

	checks, denials, eventsIn, _ := sys.SACK.Stats()
	fmt.Printf("\nSACK stats: checks=%d denials=%d events=%d\n", checks, denials, eventsIn)
}
