// Smart home — the paper's §V generality claim: SACK is "a general
// solution at kernel space" applicable beyond vehicles. This demo runs
// the same framework over a smart-home device tree: the indoor camera
// may only stream while the home is empty (privacy), and the front-door
// lock accepts remote commands only in away mode (a burglar who pwns the
// hub's media app still cannot unlock the door while someone is home).
package main

import (
	"fmt"
	"log"

	sack "repro"
)

const policyText = `
# Occupancy-aware smart-home policy.
states {
  occupied = 0
  away = 1
  night = 2
}

initial occupied

permissions {
  SENSOR_READ
  CAMERA_STREAM
  REMOTE_LOCK
  NIGHT_SIREN
}

state_per {
  occupied: SENSOR_READ
  away:     SENSOR_READ, CAMERA_STREAM, REMOTE_LOCK
  night:    SENSOR_READ, NIGHT_SIREN
}

per_rules {
  SENSOR_READ {
    allow read /dev/home/**
  }
  CAMERA_STREAM {
    allow read,ioctl /dev/home/camera* subject /usr/bin/securityd
  }
  REMOTE_LOCK {
    allow write,ioctl /dev/home/frontdoor subject /usr/bin/securityd
  }
  NIGHT_SIREN {
    allow write,ioctl /dev/home/siren0
  }
}

transitions {
  occupied -> away on everyone_left
  away -> occupied on someone_home
  occupied -> night on goodnight
  night -> occupied on good_morning
}
`

// nullDev is a stand-in smart-home device.
type nullDev struct{}

func (nullDev) ReadAt(_ *sack.Cred, buf []byte, _ int64) (int, error) { return 0, nil }
func (nullDev) WriteAt(_ *sack.Cred, d []byte, _ int64) (int, error)  { return len(d), nil }
func (nullDev) Ioctl(*sack.Cred, uint64, uint64) (uint64, error)      { return 0, nil }

func main() {
	sys, err := sack.New(policyText,
		sack.WithoutVehicle(), // it's a house, not a car
	)
	if err != nil {
		log.Fatal(err)
	}
	k := sys.Kernel
	if _, err := k.FS.MkdirAll("/dev/home", 0o755, 0, 0); err != nil {
		log.Fatal(err)
	}
	for _, dev := range []string{"/dev/home/camera0", "/dev/home/frontdoor", "/dev/home/siren0", "/dev/home/thermostat0"} {
		if _, err := k.RegisterDevice(dev, 0o666, nullDev{}); err != nil {
			log.Fatal(err)
		}
	}
	// securityd is the legitimate security hub daemon; mediad is a media
	// app an attacker compromised.
	spawn := func(exe string) *sack.Task {
		if err := k.WriteFile(exe, 0o755, []byte(exe)); err != nil {
			log.Fatal(err)
		}
		t, err := k.Init().Fork()
		if err != nil {
			log.Fatal(err)
		}
		if err := t.Exec(exe); err != nil {
			log.Fatal(err)
		}
		return t
	}
	securityd := spawn("/usr/bin/securityd")
	mediad := spawn("/usr/bin/mediad")

	probe := func(task *sack.Task, who, dev string, ioctl uint64) {
		fd, err := task.Open(dev, sack.ORdonly, 0)
		if err == nil {
			_, err = task.Ioctl(fd, ioctl, 0)
			task.Close(fd)
		}
		verdict := "ALLOWED"
		if err != nil {
			verdict = "DENIED"
		}
		fmt.Printf("  %-12s %-22s %s\n", who, dev, verdict)
	}

	show := func() {
		fmt.Printf("\nstate=%s\n", sys.CurrentState().Name)
		probe(securityd, "securityd", "/dev/home/camera0", 1)
		probe(mediad, "mediad", "/dev/home/camera0", 1)
		probe(securityd, "securityd", "/dev/home/frontdoor", 1)
		probe(securityd, "securityd", "/dev/home/siren0", 1)
	}

	fmt.Println("== SACK beyond vehicles: occupancy-aware smart home ==")
	show() // occupied: cameras and remote lock dead, privacy preserved

	deliver := func(ev sack.Event) {
		if err := sys.Events().DeliverEvent(ev); err != nil {
			log.Fatal(err)
		}
	}
	deliver("everyone_left")
	show() // away: securityd streams and controls the lock; mediad never

	deliver("someone_home")
	deliver("goodnight")
	show() // night: only the siren is armed
}
