package sack_test

// scenario_test walks one simulated day through the Fig. 2 four-state
// policy: park with driver, drive to work, park and leave, return,
// highway drive ending in a crash, rescue, and recovery — asserting the
// kernel-enforced permission surface at every phase.

import (
	"testing"
	"time"

	sack "repro"
	"repro/internal/ivi"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/trace"
	"repro/internal/vehicle"
	"repro/policies"
)

// phase applies a dynamics point and polls the SDS.
type scenarioRig struct {
	t       *testing.T
	sys     *sack.System
	clock   *resilience.VirtualClock
	service *sack.SDS
	now     time.Duration
}

func newScenarioRig(t *testing.T) *scenarioRig {
	sys, err := sack.New(policies.MustLoad("fig2-four-states"))
	if err != nil {
		t.Fatal(err)
	}
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	service, err := sys.NewSDS(sys.Kernel.Init(), clock,
		sds.DrivingDetector(),
		sds.ParkingDetector(),
		sds.CrashDetector(8.0),
		sds.AllClearDetector(8.0),
	)
	if err != nil {
		t.Fatal(err)
	}
	return &scenarioRig{t: t, sys: sys, clock: clock, service: service}
}

func (r *scenarioRig) advance(d time.Duration, p trace.Point) {
	r.t.Helper()
	r.now += d
	r.clock.Advance(d)
	trace.Apply(p, r.sys.Vehicle.Dynamics)
	if _, err := r.service.Poll(); err != nil {
		r.t.Fatalf("poll at %v: %v", r.now, err)
	}
}

func (r *scenarioRig) mustState(want string) {
	r.t.Helper()
	if got := r.sys.CurrentState().Name; got != want {
		r.t.Fatalf("at %v: state = %q, want %q", r.now, got, want)
	}
}

// doorControl probes door ioctl as root.
func (r *scenarioRig) doorControl() error {
	r.t.Helper()
	task := r.sys.Kernel.Init()
	fd, err := task.Open("/dev/vehicle/door0", sack.ORdonly, 0)
	if err != nil {
		return err
	}
	defer task.Close(fd)
	_, err = task.Ioctl(fd, vehicle.IoctlDoorStatus, 0)
	return err
}

// audioControl probes full-range volume ioctl.
func (r *scenarioRig) audioControl() error {
	r.t.Helper()
	task := r.sys.Kernel.Init()
	fd, err := task.Open("/dev/vehicle/audio0", sack.ORdonly, 0)
	if err != nil {
		return err
	}
	defer task.Close(fd)
	_, err = task.Ioctl(fd, vehicle.IoctlAudioSetVolume, 80)
	return err
}

func TestFullDayScenario(t *testing.T) {
	r := newScenarioRig(t)
	sec := time.Second

	// 07:30 — parked at home, driver inside. Doors and audio available.
	r.advance(0, trace.Point{Speed: 0, Driver: true, Ignition: false})
	r.mustState("parking_with_driver")
	if err := r.doorControl(); err != nil {
		t.Fatalf("parked door control: %v", err)
	}
	if err := r.audioControl(); err != nil {
		t.Fatalf("parked audio: %v", err)
	}

	// 07:35 — driving to work: door control and max volume revoked.
	r.advance(5*sec, trace.Point{Speed: 5, Driver: true, Ignition: true})
	r.mustState("driving")
	r.advance(10*sec, trace.Point{Speed: 50, Driver: true, Ignition: true})
	if err := r.doorControl(); !sack.IsErrno(err, sack.EACCES) {
		t.Fatalf("driving door control: %v", err)
	}
	if err := r.audioControl(); !sack.IsErrno(err, sack.EACCES) {
		t.Fatalf("driving audio: %v", err)
	}

	// 08:00 — park at the office and leave: almost everything locked.
	r.advance(25*sec, trace.Point{Speed: 0, Driver: true, Ignition: true})
	r.mustState("parking_with_driver")
	r.advance(5*sec, trace.Point{Speed: 0, Driver: true, Ignition: false})
	r.advance(5*sec, trace.Point{Speed: 0, Driver: false, Ignition: false})
	r.mustState("parking_without_driver")
	if err := r.doorControl(); !sack.IsErrno(err, sack.EACCES) {
		t.Fatalf("unattended door control: %v", err)
	}
	// Reading device state stays possible (DEVICE_READ in every state).
	if _, err := r.sys.Kernel.Init().ReadFileAll("/dev/vehicle/engine0"); err != nil {
		t.Fatalf("unattended engine read: %v", err)
	}

	// 17:00 — driver returns, highway home, crash.
	r.advance(5*sec, trace.Point{Speed: 0, Driver: true, Ignition: false})
	r.mustState("parking_with_driver")
	r.advance(5*sec, trace.Point{Speed: 30, Driver: true, Ignition: true})
	r.mustState("driving")
	r.advance(20*sec, trace.Point{Speed: 120, Driver: true, Ignition: true})
	r.advance(5*sec, trace.Point{Speed: 15, AccelG: 9.5, Driver: true, Ignition: true})
	r.mustState("emergency")

	// Break-glass semantics now in force: doors controllable for rescue.
	if err := r.doorControl(); err != nil {
		t.Fatalf("emergency door control: %v", err)
	}
	// But not everything comes back: audio stays locked in emergencies.
	if err := r.audioControl(); !sack.IsErrno(err, sack.EACCES) {
		t.Fatalf("emergency audio: %v", err)
	}

	// A malicious app still cannot act outside the granted surface: CAN
	// injection of a window command is blocked even in the emergency.
	iviSys := ivi.NewSystem(r.sys.Kernel, r.sys.Vehicle)
	mal, err := iviSys.InstallApp("malware")
	if err != nil {
		t.Fatal(err)
	}
	attack := ivi.KoffeeAttack{App: mal}
	frame := vehicle.Frame{ID: vehicle.CANIDWindowCmd, Len: 2}
	frame.Data[0] = 0
	frame.Data[1] = 100
	if res := attack.InjectCANFrame(frame); !res.Blocked {
		t.Fatalf("emergency CAN injection not blocked: %+v", res)
	}

	// 17:40 — vehicle at rest, ignition cycled: recovery to parking.
	r.advance(30*sec, trace.Point{Speed: 0, AccelG: 0, Driver: true, Ignition: true})
	r.advance(5*sec, trace.Point{Speed: 0, Driver: true, Ignition: false})
	r.advance(5*sec, trace.Point{Speed: 0, Driver: true, Ignition: true})
	r.mustState("parking_with_driver")
	if err := r.doorControl(); err != nil {
		t.Fatalf("post-recovery door control: %v", err)
	}

	// The whole day is on the books.
	transitions, _ := r.sys.SACK.Machine().Stats()
	if transitions < 7 {
		t.Fatalf("only %d transitions over the scenario", transitions)
	}
	if len(r.sys.Audit.Denials()) == 0 {
		t.Fatal("no denials audited over the scenario")
	}
}
