package trace

import (
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/vehicle"
)

func replayWith(t *testing.T, tr Trace, detectors ...sds.Detector) []string {
	t.Helper()
	dyn := &vehicle.Dynamics{}
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	svc := sds.NewService(clock, sds.VehicleSensors(dyn), detectors,
		sds.TransmitterFunc(func([]string) error { return nil }))
	events, err := Replay(tr, clock, dyn, svc)
	if err != nil {
		t.Fatalf("Replay(%s): %v", tr.Name, err)
	}
	return events
}

func TestCityDriveWithCrashEvents(t *testing.T) {
	events := replayWith(t, CityDriveWithCrash(),
		sds.DrivingDetector(), sds.CrashDetector(8.0))
	want := []string{"driving_started", "crash_detected", "driving_stopped"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestHighwayDriveSpeedBand(t *testing.T) {
	events := replayWith(t, HighwayDrive(), sds.SpeedBandDetector(80))
	want := []string{"speed_high", "speed_low"}
	if len(events) != 2 || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("events = %v, want %v", events, want)
	}
}

func TestParkAndLeave(t *testing.T) {
	events := replayWith(t, ParkAndLeave(),
		sds.DrivingDetector(), sds.ParkingDetector())
	// driving (initially-true baseline), stop, park with driver, then
	// driver leaves.
	want := map[string]bool{
		"driving_started":       true,
		"driving_stopped":       true,
		"parked_with_driver":    true,
		"parked_without_driver": true,
	}
	for _, ev := range events {
		if !want[ev] {
			t.Fatalf("unexpected event %q in %v", ev, events)
		}
		delete(want, ev)
	}
	if len(want) != 0 {
		t.Fatalf("missing events %v (got %v)", want, events)
	}
}

func TestReplayAdvancesClock(t *testing.T) {
	dyn := &vehicle.Dynamics{}
	start := time.Unix(0, 0)
	clock := resilience.NewVirtualClock(start)
	svc := sds.NewService(clock, sds.VehicleSensors(dyn), nil,
		sds.TransmitterFunc(func([]string) error { return nil }))
	tr := CityDriveWithCrash()
	if _, err := Replay(tr, clock, dyn, svc); err != nil {
		t.Fatal(err)
	}
	last := tr.Points[len(tr.Points)-1].T
	if got := clock.Now().Sub(start); got != last {
		t.Fatalf("clock advanced %v, want %v", got, last)
	}
}

func TestApply(t *testing.T) {
	dyn := &vehicle.Dynamics{}
	Apply(Point{Speed: 33, AccelG: 1.2, Driver: true, Ignition: true, Lat: 1, Lon: 2}, dyn)
	if dyn.Speed() != 33 || dyn.AccelG() != 1.2 || !dyn.DriverPresent() || !dyn.IgnitionOn() {
		t.Error("Apply incomplete")
	}
}

func TestTracesAreOrdered(t *testing.T) {
	for _, tr := range []Trace{CityDriveWithCrash(), HighwayDrive(), ParkAndLeave()} {
		for i := 1; i < len(tr.Points); i++ {
			if tr.Points[i].T < tr.Points[i-1].T {
				t.Errorf("%s: points out of order at %d", tr.Name, i)
			}
		}
	}
}
