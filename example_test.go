package sack_test

import (
	"fmt"
	"log"

	sack "repro"
	"repro/internal/vehicle"
	"repro/policies"
)

// ExampleNew boots the full stack and shows a situation transition
// flipping a kernel-enforced permission.
func ExampleNew() {
	sys, err := sack.New(policies.MustLoad("emergency-doors"))
	if err != nil {
		log.Fatal(err)
	}
	task := sys.Kernel.Init()

	fd, _ := task.Open("/dev/vehicle/door0", sack.ORdonly, 0)
	_, err = task.Ioctl(fd, vehicle.IoctlDoorUnlock, 0)
	fmt.Println("normal state:", sack.IsErrno(err, sack.EACCES))

	if err := sys.Events().DeliverEvent("crash_detected"); err != nil {
		log.Fatal(err)
	}
	_, err = task.Ioctl(fd, vehicle.IoctlDoorUnlock, 0)
	fmt.Println("emergency state:", err)

	// Output:
	// normal state: true
	// emergency state: <nil>
}

// ExampleCompile shows the policy checker catching a conflict the
// administrator should review.
func ExampleCompile() {
	_, vr, err := sack.Compile(`
states { s }
initial s
permissions { P }
state_per { s: P }
per_rules {
  P {
    allow read /data/**
    deny read /data/*.txt
  }
}
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("errors:", len(vr.Errors()))
	for _, w := range vr.Warnings() {
		fmt.Println("warning:", w.Message)
	}

	// Output:
	// errors: 0
	// warning: state 's' both allows and denies overlapping paths "/data/**" and "/data/*.txt" (deny wins at runtime), e.g. "/data/.txt"
}

// ExampleSystem_Events delivers situation events both ways in: the
// SACKfs pseudo-file a real situation detection service writes, and the
// typed Events sink for in-process producers.
func ExampleSystem_Events() {
	sys, err := sack.New(policies.MustLoad("speed-gate"), sack.WithoutVehicle())
	if err != nil {
		log.Fatal(err)
	}
	task := sys.Kernel.Init()
	if err := task.WriteFileAll(sack.EventsFile, []byte("speed_high\n"), 0); err != nil {
		log.Fatal(err)
	}
	state, _ := task.ReadFileAll("/sys/kernel/security/SACK/state")
	fmt.Print(string(state))

	if err := sys.Events().DeliverEvent("speed_low"); err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys.CurrentState().Name)

	// Output:
	// high_speed (1)
	// low_speed
}

// ExampleSystem_Check interrogates a live system through the decision
// query API: the verdict plus the deciding rule and situation state,
// with no counter or audit side effects.
func ExampleSystem_Check() {
	sys, err := sack.New(policies.MustLoad("emergency-doors"))
	if err != nil {
		log.Fatal(err)
	}

	d, err := sys.Check("/usr/bin/ivi", "/dev/vehicle/door0", sack.MayIoctl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("normal: allowed=%v covered=%v state=%s\n", d.Allowed, d.Covered, d.State)

	if err := sys.Events().DeliverEvent("crash_detected"); err != nil {
		log.Fatal(err)
	}
	d, _ = sys.Check("/usr/bin/ivi", "/dev/vehicle/door0", sack.MayIoctl)
	fmt.Printf("emergency: allowed=%v rule=%q\n", d.Allowed, d.Rule.String())

	// Output:
	// normal: allowed=false covered=true state=normal
	// emergency: allowed=true rule="allow write,read,ioctl /dev/vehicle/door*"
}
