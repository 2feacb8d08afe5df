// ivisim is the IVI emulator demo binary: it boots the full stack
// (kernel, SACK, vehicle, IVI apps and services), replays a drive trace
// through the situation detection service, launches KOFFEE-style
// injection attacks at each phase, and prints a timeline of outcomes.
//
// Usage:
//
//	ivisim                   run with SACK protection (independent mode)
//	ivisim -nosack           run the unprotected baseline
//	ivisim -faults <spec>    arm deterministic fault injection; CAN-bus
//	                         rules (e.g. "drop:canbus:p=0.3") strike the
//	                         vehicle bus tap, sensor/transmitter rules
//	                         strike the SDS; the per-target tally prints
//	                         after the run
//	ivisim -fault-seed <n>   deterministic seed for -faults (default 1)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	sack "repro"
	"repro/internal/ivi"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/trace"
	"repro/internal/vehicle"
)

const policyText = `
states {
  parking = 0
  driving = 1
  emergency = 2
}

initial parking

permissions {
  DEVICE_READ
  CONTROL_CAR_DOORS
}

state_per {
  parking:   DEVICE_READ
  driving:   DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
}

per_rules {
  DEVICE_READ {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door*
    allow read,write,ioctl /dev/vehicle/window*
  }
}

transitions {
  parking -> driving on driving_started
  driving -> parking on driving_stopped
  driving -> emergency on crash_detected
  emergency -> parking on all_clear
}
`

func main() {
	nosack := flag.Bool("nosack", false, "run without SACK (vulnerable baseline)")
	faultSpec := flag.String("faults", "", "fault-plan spec, e.g. drop:canbus:p=0.3 (see sackctl chaos)")
	faultSeed := flag.Int64("fault-seed", 1, "deterministic seed for -faults")
	flag.Parse()
	if err := run(*nosack, *faultSpec, *faultSeed, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable entry point.
func run(nosack bool, faultSpec string, faultSeed int64, stdout io.Writer) error {
	var (
		k   *kernel.Kernel
		v   *vehicle.Vehicle
		sys *sack.System
		inj *sack.FaultInjector
	)
	var plan *sack.FaultPlan
	if faultSpec != "" {
		var err error
		plan, err = sack.ParseFaultSpec(faultSpec, faultSeed)
		if err != nil {
			return err
		}
	}
	if nosack {
		k = kernel.New()
		if err := k.RegisterLSM(lsm.NewCapability()); err != nil {
			return err
		}
		v = vehicle.New(4, 4)
		if err := v.RegisterDevices(k); err != nil {
			return err
		}
		if plan != nil {
			// No SACK boot to arm the tap for us: wire the injector onto
			// the bus directly so the baseline sees the same CAN chaos.
			inj = sack.NewFaultInjector(plan)
			v.Bus.SetTap(vehicle.FaultTap(inj))
		}
		fmt.Fprintln(stdout, "== ivisim (UNPROTECTED baseline) ==")
	} else {
		var err error
		opts := []sack.Option{sack.WithMode(sack.Independent)}
		if plan != nil {
			opts = append(opts, sack.WithFaultPlan(plan))
		}
		sys, err = sack.New(policyText, opts...)
		if err != nil {
			return err
		}
		k, v, inj = sys.Kernel, sys.Vehicle, sys.Faults
		fmt.Fprintln(stdout, "== ivisim (SACK protected) ==")
	}
	fmt.Fprintf(stdout, "LSM stack: %s\n\n", k.LSM)

	// IVI layer: door service + a radio app without door permissions.
	iviSys := ivi.NewSystem(k, v)
	if _, err := iviSys.NewDoorService(); err != nil {
		return err
	}
	radio, err := iviSys.InstallApp("radio", ivi.PermAudioControl)
	if err != nil {
		return err
	}
	attack := ivi.KoffeeAttack{App: radio}

	// SDS wiring (only meaningful with SACK; harmless without).
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	var service *sds.Service
	if sys != nil {
		service, err = sys.NewSDS(k.Init(), clock,
			sds.DrivingDetector(), sds.CrashDetector(8.0), sds.AllClearDetector(8.0))
		if err != nil {
			return err
		}
	} else {
		service = sds.NewService(clock, sds.VehicleSensors(v.Dynamics),
			[]sds.Detector{sds.DrivingDetector(), sds.CrashDetector(8.0)},
			sds.TransmitterFunc(func([]string) error { return nil }))
	}

	stateName := func() string {
		if sys == nil {
			return "n/a"
		}
		return sys.CurrentState().Name
	}

	fmt.Fprintf(stdout, "%-10s %-24s %-12s %s\n", "time", "events", "state", "attack outcome")
	var prev time.Duration
	for _, p := range trace.CityDriveWithCrash().Points {
		if p.T > prev {
			clock.Advance(p.T - prev)
			prev = p.T
		}
		trace.Apply(p, v.Dynamics)
		events, err := service.Poll()
		if err != nil {
			if plan == nil {
				return err
			}
			// Injected faults make delivery fail transiently; the SDS
			// retries with backoff, so report and keep driving.
			fmt.Fprintf(stdout, "!! poll: %v\n", err)
		}
		res := attack.Inject("/dev/vehicle/door0", vehicle.IoctlDoorUnlock, 0)
		fmt.Fprintf(stdout, "%-10s %-24v %-12s %s\n", p.T, events, stateName(), res)
		// Re-lock after successful injections so each row is independent.
		if res.Err == nil {
			v.Doors[0].Ioctl(nil, vehicle.IoctlDoorLock, 0)
		}
	}

	fmt.Fprintf(stdout, "\ndoor0 final state: %s\n", v.Doors[0].State())
	if sys != nil {
		checks, denials, eventsIn, eventsHit := sys.SACK.Stats()
		fmt.Fprintf(stdout, "SACK stats: checks=%d denials=%d events=%d/%d\n", checks, denials, eventsHit, eventsIn)
	}

	dash := ivi.Dashboard{Vehicle: v}
	if sys != nil {
		dash.SACK = sys.SACK
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, dash.Render())
	if inj != nil {
		fmt.Fprintf(stdout, "\n-- fault injector --\n%s", inj.Render())
	}
	return nil
}
