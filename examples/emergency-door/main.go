// Emergency door unlock — the paper's §IV-C.1 case study (Fig. 4).
//
// A rescue daemon holds no door permissions during normal operation
// (POLP). The situation detection service watches the accelerometer;
// when a crash signature appears it transmits crash_detected through
// SACKfs, SACK transitions to the emergency state, and the daemon's
// door/window control starts working — optimistic access control's
// "break the glass", enforced in the kernel.
package main

import (
	"fmt"
	"log"
	"time"

	sack "repro"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/trace"
	"repro/internal/vehicle"
)

const policyText = `
states {
  normal = 0
  emergency = 1
}

initial normal

permissions {
  NORMAL
  CONTROL_CAR_DOORS
  CONTROL_CAR_WINDOWS
}

state_per {
  normal:    NORMAL
  emergency: NORMAL, CONTROL_CAR_DOORS, CONTROL_CAR_WINDOWS
}

per_rules {
  NORMAL {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door* subject /usr/bin/rescued
  }
  CONTROL_CAR_WINDOWS {
    allow read,write,ioctl /dev/vehicle/window* subject /usr/bin/rescued
  }
}

transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`

func main() {
	sys, err := sack.New(policyText)
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	k := sys.Kernel
	root := k.Init()

	// The rescue daemon: a privileged service whose SACK subject label is
	// its executable path.
	if err := k.WriteFile("/usr/bin/rescued", 0o755, []byte("#!rescued")); err != nil {
		log.Fatal(err)
	}
	rescued, err := root.Fork()
	if err != nil {
		log.Fatal(err)
	}
	if err := rescued.Exec("/usr/bin/rescued"); err != nil {
		log.Fatal(err)
	}

	// The SDS runs as a root daemon with the crash detector (8 g
	// threshold, matching commercial crash-detection systems).
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	service, err := sys.NewSDS(root, clock,
		sds.CrashDetector(8.0),
		sds.AllClearDetector(8.0),
	)
	if err != nil {
		log.Fatal(err)
	}

	unlockAll := func() error {
		for i := range sys.Vehicle.Doors {
			fd, err := rescued.Open(fmt.Sprintf("/dev/vehicle/door%d", i), sack.ORdonly, 0)
			if err != nil {
				return err
			}
			_, err = rescued.Ioctl(fd, vehicle.IoctlDoorUnlock, 0)
			rescued.Close(fd)
			if err != nil {
				return err
			}
		}
		for i := range sys.Vehicle.Windows {
			fd, err := rescued.Open(fmt.Sprintf("/dev/vehicle/window%d", i), sack.ORdonly, 0)
			if err != nil {
				return err
			}
			_, err = rescued.Ioctl(fd, vehicle.IoctlWindowDown, 0)
			rescued.Close(fd)
			if err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Println("== Case study: allow unlock car door only in emergencies ==")
	fmt.Printf("state: %s; doors locked: %v\n", sys.CurrentState().Name, sys.Vehicle.AllDoorsLocked())

	// 1. POLP holds in the normal state: even the rescue daemon fails.
	if err := unlockAll(); sack.IsErrno(err, sack.EACCES) {
		fmt.Println("normal state: rescued cannot control doors (EACCES) — POLP enforced")
	} else {
		log.Fatalf("expected EACCES in normal state, got %v", err)
	}

	// 2. Replay a city drive that ends in a crash; the SDS detects the 8.5 g
	// impact and transmits crash_detected through SACKfs.
	events, err := trace.Replay(trace.CityDriveWithCrash(), clock, sys.Vehicle.Dynamics, service)
	if err != nil {
		log.Fatalf("trace replay: %v", err)
	}
	fmt.Printf("drive trace transmitted events: %v\n", events)
	fmt.Printf("state after crash: %s\n", sys.CurrentState().Name)

	// 3. Break the glass: the daemon can now open everything.
	if err := unlockAll(); err != nil {
		log.Fatalf("unlock in emergency: %v", err)
	}
	fmt.Printf("emergency: all doors unlocked=%v, window0 position=%d%%\n",
		sys.Vehicle.AllDoorsUnlocked(), sys.Vehicle.Windows[0].Position())

	// 4. The CAN bus saw the actuations (display side of Fig. 4).
	fmt.Println("\n-- CAN frames (candump) --")
	for _, f := range sys.Vehicle.Bus.Log() {
		fmt.Printf("  %s\n", f)
	}

	// 5. Audit trail: the kernel recorded the earlier denials.
	fmt.Println("\n-- audit denials --")
	for _, rec := range sys.Audit.Denials() {
		fmt.Printf("  %s %s %s %s\n", rec.Module, rec.Op, rec.Subject, rec.Object)
	}
}
