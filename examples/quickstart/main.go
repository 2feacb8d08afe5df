// Quickstart: boot a SACK system, watch a situation transition flip a
// permission from denied to allowed, and drive everything through the
// SACKfs pseudo-file interface a real deployment would use.
package main

import (
	"fmt"
	"log"

	sack "repro"
)

const policyText = `
# Door control only in emergencies (paper Fig. 1).
states {
  normal = 0
  emergency = 1
}

initial normal

permissions {
  NORMAL
  CONTROL_CAR_DOORS
}

state_per {
  normal:    NORMAL
  emergency: NORMAL, CONTROL_CAR_DOORS
}

per_rules {
  NORMAL {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door*
    allow read,write,ioctl /dev/vehicle/window*
  }
}

transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`

func main() {
	sys, err := sack.New(policyText, sack.WithMode(sack.Independent))
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	task := sys.Kernel.Init()

	fmt.Println("== SACK quickstart ==")
	fmt.Printf("LSM stack: %s\n", sys.Kernel.LSM)
	fmt.Printf("situation state: %s\n\n", sys.CurrentState().Name)

	// 1. In the normal state the door device cannot be controlled.
	fd, err := task.Open("/dev/vehicle/door0", sack.ORdonly, 0)
	if err != nil {
		log.Fatalf("open door: %v", err)
	}
	if _, err := task.Ioctl(fd, 0x1002 /* DOOR_UNLOCK */, 0); sack.IsErrno(err, sack.EACCES) {
		fmt.Println("normal state:    ioctl(DOOR_UNLOCK) -> EACCES (as intended)")
	} else {
		log.Fatalf("expected EACCES, got %v", err)
	}

	// 2. Deliver a crash event through the SACKfs pseudo-file, exactly as
	// the user-space situation detection service does.
	if err := task.WriteFileAll(sack.EventsFile, []byte("crash_detected\n"), 0); err != nil {
		log.Fatalf("event write: %v", err)
	}
	fmt.Printf("event delivered: crash_detected -> state %q\n", sys.CurrentState().Name)

	// 3. The same descriptor now works: the APE swapped the MAC rules.
	if _, err := task.Ioctl(fd, 0x1002, 0); err != nil {
		log.Fatalf("ioctl in emergency: %v", err)
	}
	fmt.Println("emergency state: ioctl(DOOR_UNLOCK) -> allowed")
	fmt.Printf("door0 is now: %s\n", sys.Vehicle.Doors[0].State())

	// 4. Recovery locks things back down.
	if err := sys.Events().DeliverEvent("all_clear"); err != nil {
		log.Fatalf("deliver all_clear: %v", err)
	}
	if _, err := task.Ioctl(fd, 0x1002, 0); sack.IsErrno(err, sack.EACCES) {
		fmt.Println("after all_clear: ioctl(DOOR_UNLOCK) -> EACCES again")
	}

	// 5. Kernel-side introspection through SACKfs.
	stats, err := task.ReadFileAll("/sys/kernel/security/SACK/stats")
	if err != nil {
		log.Fatalf("read stats: %v", err)
	}
	fmt.Printf("\n-- /sys/kernel/security/SACK/stats --\n%s", stats)

	// 6. Hook latency and cache metrics, kernel-wide.
	metrics, err := task.ReadFileAll(sack.MetricsFile)
	if err != nil {
		log.Fatalf("read metrics: %v", err)
	}
	fmt.Printf("\n-- %s --\n%s", sack.MetricsFile, metrics)
}
