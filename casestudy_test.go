package sack_test

import (
	"testing"
	"time"

	sack "repro"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/vehicle"
	"repro/policies"
)

// TestCaseStudyEmergencyDoor is the paper's §IV-C.1 case study (Fig. 4)
// end to end: under the emergency-doors policy a rescue daemon's ioctl
// and write on a door and a window device are denied in the normal
// state, and once the SDS crash detector sends crash_detected through
// SACKfs the same calls are allowed and move the actuators.
func TestCaseStudyEmergencyDoor(t *testing.T) {
	sys, err := sack.New(policies.MustLoad("emergency-doors"))
	if err != nil {
		t.Fatal(err)
	}
	root := sys.Kernel.Init()
	if err := sys.Kernel.WriteFile("/usr/bin/rescued", 0o755, []byte("#!rescued")); err != nil {
		t.Fatal(err)
	}
	rescued, err := root.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := rescued.Exec("/usr/bin/rescued"); err != nil {
		t.Fatal(err)
	}
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	service, err := sys.NewSDS(root, clock, sds.CrashDetector(8.0))
	if err != nil {
		t.Fatal(err)
	}

	devices := []struct {
		path  string
		ioctl uint64
		write string
	}{
		{"/dev/vehicle/door0", vehicle.IoctlDoorUnlock, "unlock"},
		{"/dev/vehicle/window0", vehicle.IoctlWindowDown, "100"},
	}
	// operate issues the device's ioctl on a read-only descriptor, then
	// opens it for writing and writes its command.
	operate := func(path string, cmd uint64, text string) (ioctlErr, writeErr error) {
		fd, err := rescued.Open(path, sack.ORdonly, 0)
		if err != nil {
			t.Fatalf("read-open %s: %v", path, err)
		}
		_, ioctlErr = rescued.Ioctl(fd, cmd, 0)
		rescued.Close(fd)
		if fd, writeErr = rescued.Open(path, sack.OWronly, 0); writeErr == nil {
			_, writeErr = rescued.Write(fd, []byte(text))
			rescued.Close(fd)
		}
		return ioctlErr, writeErr
	}

	for _, d := range devices {
		ioctlErr, writeErr := operate(d.path, d.ioctl, d.write)
		if !sack.IsErrno(ioctlErr, sack.EACCES) || !sack.IsErrno(writeErr, sack.EACCES) {
			t.Fatalf("normal state: %s ioctl=%v write=%v, want both EACCES", d.path, ioctlErr, writeErr)
		}
	}
	if !sys.Vehicle.AllDoorsLocked() || sys.Vehicle.Windows[0].Position() != 0 {
		t.Fatal("a denied call moved an actuator")
	}

	sys.Vehicle.Dynamics.SetAccelG(9.0)
	clock.Advance(time.Second)
	if evs, err := service.Poll(); err != nil || len(evs) != 1 || evs[0] != "crash_detected" {
		t.Fatalf("crash poll: events=%v err=%v", evs, err)
	}
	if got := sys.CurrentState().Name; got != "emergency" {
		t.Fatalf("state after crash = %q, want emergency", got)
	}
	for _, d := range devices {
		if ioctlErr, writeErr := operate(d.path, d.ioctl, d.write); ioctlErr != nil || writeErr != nil {
			t.Fatalf("emergency state: %s ioctl=%v write=%v, want both allowed", d.path, ioctlErr, writeErr)
		}
	}
	if sys.Vehicle.Doors[0].State() != vehicle.DoorUnlocked || sys.Vehicle.Windows[0].Position() != 100 {
		t.Fatalf("actuators after rescue: door0=%v window0=%d", sys.Vehicle.Doors[0].State(), sys.Vehicle.Windows[0].Position())
	}
}
