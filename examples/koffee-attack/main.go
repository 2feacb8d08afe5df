// KOFFEE command injection (§II-B, §IV-C): a malicious IVI app bypasses
// the user-space permission framework and drives vehicle hardware by
// talking to the kernel directly (CVE-2020-8539 shape). The demo runs the
// attack twice — on an IVI without SACK, where it succeeds, and on a
// SACK-protected IVI, where the kernel blocks it — plus the
// CVE-2023-6073 max-volume variant gated on the driving state.
package main

import (
	"fmt"
	"log"

	sack "repro"
	"repro/internal/ivi"
	"repro/internal/kernel"
	"repro/internal/lsm"
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
  AUDIO_FULL_RANGE
}

state_per {
  parking:   DEVICE_READ, AUDIO_FULL_RANGE
  driving:   DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
}

per_rules {
  DEVICE_READ {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door* subject /usr/bin/doord
  }
  AUDIO_FULL_RANGE {
    # Full-range volume ioctls only outside driving (CVE-2023-6073).
    allow read,write,ioctl /dev/vehicle/audio0
  }
}

transitions {
  parking -> driving on driving_started
  driving -> parking on driving_stopped
  driving -> emergency on crash_detected
  emergency -> parking on all_clear
}
`

// buildIVI assembles a vehicle + IVI with a radio app (no door
// permission) and a door service, over the given kernel.
func buildIVI(k *kernel.Kernel, v *vehicle.Vehicle) (*ivi.System, *ivi.App) {
	system := ivi.NewSystem(k, v)
	if _, err := system.NewDoorService(); err != nil {
		log.Fatal(err)
	}
	if _, err := system.NewAudioService(); err != nil {
		log.Fatal(err)
	}
	// The "radio" app was granted only audio control at install time.
	radio, err := system.InstallApp("radio", ivi.PermAudioControl)
	if err != nil {
		log.Fatal(err)
	}
	return system, radio
}

func main() {
	fmt.Println("== KOFFEE-style command injection ==")

	// --- Scenario A: IVI without SACK (user-space checks only) ---
	fmt.Println("\n--- without SACK (kernel has only capability LSM) ---")
	kA := kernel.New()
	if err := kA.Boot(lsm.NewCapability()); err != nil {
		log.Fatal(err)
	}
	vA := vehicle.New(4, 4)
	if err := vA.RegisterDevices(kA); err != nil {
		log.Fatal(err)
	}
	sysA, radioA := buildIVI(kA, vA)

	// The legitimate path refuses: the permission framework works.
	if err := sysA.Call(radioA, "door", "unlock_all", 0); err != nil {
		fmt.Printf("middleware call:   denied by permission framework (%v)\n", err)
	}
	// The bypass succeeds: nothing below user space says no.
	attackA := ivi.KoffeeAttack{App: radioA}
	res := attackA.Inject("/dev/vehicle/door0", vehicle.IoctlDoorUnlock, 0)
	fmt.Printf("kernel injection:  %s\n", res)
	fmt.Printf("door0 state:       %s  <-- ATTACK SUCCEEDED\n", vA.Doors[0].State())

	// --- Scenario B: same IVI with independent SACK ---
	fmt.Println("\n--- with SACK (CONFIG_LSM=\"sack,capability\") ---")
	sysB, err := sack.New(policyText)
	if err != nil {
		log.Fatal(err)
	}
	iviB, radioB := buildIVI(sysB.Kernel, sysB.Vehicle)
	_ = iviB

	attackB := ivi.KoffeeAttack{App: radioB}
	res = attackB.Inject("/dev/vehicle/door0", vehicle.IoctlDoorUnlock, 0)
	fmt.Printf("kernel injection:  %s\n", res)
	fmt.Printf("door0 state:       %s  <-- blocked in the kernel\n", sysB.Vehicle.Doors[0].State())

	// CVE-2023-6073: max volume. Fine while parked, dangerous while
	// driving — SACK flips the permission with the situation.
	fmt.Println("\n--- CVE-2023-6073 volume attack vs. situation state ---")
	fmt.Printf("state=%s: %s (volume=%d)\n", sysB.CurrentState().Name,
		attackB.MaxVolumeAttack(), sysB.Vehicle.Audio.Volume())

	if err := sysB.Events().DeliverEvent("driving_started"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("state=%s: %s (volume=%d)\n", sysB.CurrentState().Name,
		attackB.MaxVolumeAttack(), sysB.Vehicle.Audio.Volume())

	// Audit trail shows the kernel denials.
	fmt.Println("\n-- audit denials (SACK) --")
	for _, rec := range sysB.Audit.Denials() {
		fmt.Printf("  op=%s subject=%s object=%s\n", rec.Op, rec.Subject, rec.Object)
	}
}
