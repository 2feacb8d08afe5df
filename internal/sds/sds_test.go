package sds

import (
	"errors"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/vehicle"
)

func snap(speed, accel float64, driver, ignition bool) Snapshot {
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	return Snapshot{
		SensorSpeed:    {Sensor: SensorSpeed, Value: speed},
		SensorAccel:    {Sensor: SensorAccel, Value: accel},
		SensorDriver:   {Sensor: SensorDriver, Value: b(driver)},
		SensorIgnition: {Sensor: SensorIgnition, Value: b(ignition)},
	}
}

func TestConditionDetectorEdges(t *testing.T) {
	d := &ConditionDetector{
		DetectorName: "t",
		Cond:         func(s Snapshot) bool { return s.Value(SensorSpeed) > 50 },
		OnRise:       "fast",
		OnFall:       "slow",
	}
	// Baseline poll: condition false, nothing fires.
	if evs := d.Detect(snap(10, 0, true, true)); len(evs) != 0 {
		t.Fatalf("baseline fired %v", evs)
	}
	// Still false: nothing.
	if evs := d.Detect(snap(20, 0, true, true)); len(evs) != 0 {
		t.Fatalf("no-change fired %v", evs)
	}
	// Rise.
	if evs := d.Detect(snap(80, 0, true, true)); len(evs) != 1 || evs[0] != "fast" {
		t.Fatalf("rise = %v", evs)
	}
	// Holding: edge-triggered means silence.
	if evs := d.Detect(snap(90, 0, true, true)); len(evs) != 0 {
		t.Fatalf("hold fired %v", evs)
	}
	// Fall.
	if evs := d.Detect(snap(30, 0, true, true)); len(evs) != 1 || evs[0] != "slow" {
		t.Fatalf("fall = %v", evs)
	}
}

func TestConditionDetectorInitiallyTrue(t *testing.T) {
	d := &ConditionDetector{
		DetectorName: "t",
		Cond:         func(s Snapshot) bool { return true },
		OnRise:       "up",
	}
	if evs := d.Detect(snap(0, 0, false, false)); len(evs) != 1 || evs[0] != "up" {
		t.Fatalf("initially-true should fire rise, got %v", evs)
	}
}

func TestCrashDetector(t *testing.T) {
	d := CrashDetector(8.0)
	if evs := d.Detect(snap(50, 0.3, true, true)); len(evs) != 0 {
		t.Fatalf("benign fired %v", evs)
	}
	if evs := d.Detect(snap(12, 8.5, true, true)); len(evs) != 1 || evs[0] != "crash_detected" {
		t.Fatalf("impact = %v", evs)
	}
	// No repeat while the signature persists.
	if evs := d.Detect(snap(0, 9.0, true, true)); len(evs) != 0 {
		t.Fatalf("repeat fired %v", evs)
	}
}

func TestAllClearRequiresIgnitionCycle(t *testing.T) {
	d := AllClearDetector(8.0)
	d.Detect(snap(50, 0.1, true, true)) // baseline
	d.Detect(snap(12, 8.5, true, true)) // crash
	// At rest but ignition still on: no all_clear.
	if evs := d.Detect(snap(0, 0, true, true)); len(evs) != 0 {
		t.Fatalf("premature all_clear %v", evs)
	}
	// Ignition off, then on: all_clear.
	d.Detect(snap(0, 0, true, false))
	if evs := d.Detect(snap(0, 0, true, true)); len(evs) != 1 || evs[0] != "all_clear" {
		t.Fatalf("restart = %v", evs)
	}
	// Never fires without a preceding crash.
	d2 := AllClearDetector(8.0)
	d2.Detect(snap(0, 0, true, true))
	d2.Detect(snap(0, 0, true, false))
	if evs := d2.Detect(snap(0, 0, true, true)); len(evs) != 0 {
		t.Fatalf("unarmed all_clear %v", evs)
	}
}

func TestSpeedBandDetector(t *testing.T) {
	d := SpeedBandDetector(100)
	d.Detect(snap(0, 0, true, true))
	if evs := d.Detect(snap(120, 0, true, true)); len(evs) != 1 || evs[0] != "speed_high" {
		t.Fatalf("high = %v", evs)
	}
	if evs := d.Detect(snap(60, 0, true, true)); len(evs) != 1 || evs[0] != "speed_low" {
		t.Fatalf("low = %v", evs)
	}
}

func TestDrivingDetector(t *testing.T) {
	d := DrivingDetector()
	d.Detect(snap(0, 0, true, false))
	// Moving without ignition (towed?) does not count as driving.
	if evs := d.Detect(snap(20, 0, true, false)); len(evs) != 0 {
		t.Fatalf("towed = %v", evs)
	}
	if evs := d.Detect(snap(20, 0, true, true)); len(evs) != 1 || evs[0] != "driving_started" {
		t.Fatalf("start = %v", evs)
	}
	if evs := d.Detect(snap(0, 0, true, true)); len(evs) != 1 || evs[0] != "driving_stopped" {
		t.Fatalf("stop = %v", evs)
	}
}

func TestParkingDetector(t *testing.T) {
	d := ParkingDetector()
	// Driving: nothing.
	if evs := d.Detect(snap(50, 0, true, true)); len(evs) != 0 {
		t.Fatalf("driving = %v", evs)
	}
	// Stop and switch off with driver: parked_with_driver.
	if evs := d.Detect(snap(0, 0, true, false)); len(evs) != 1 || evs[0] != "parked_with_driver" {
		t.Fatalf("park = %v", evs)
	}
	// Same state again: silence.
	if evs := d.Detect(snap(0, 0, true, false)); len(evs) != 0 {
		t.Fatalf("repeat = %v", evs)
	}
	// Driver leaves.
	if evs := d.Detect(snap(0, 0, false, false)); len(evs) != 1 || evs[0] != "parked_without_driver" {
		t.Fatalf("leave = %v", evs)
	}
	// Driver returns.
	if evs := d.Detect(snap(0, 0, true, false)); len(evs) != 1 || evs[0] != "parked_with_driver" {
		t.Fatalf("return = %v", evs)
	}
}

func TestVehicleSensors(t *testing.T) {
	dyn := &vehicle.Dynamics{}
	dyn.SetSpeed(42)
	dyn.SetAccelG(1.5)
	dyn.SetDriverPresent(true)
	dyn.SetIgnition(false)
	dyn.SetPosition(1.5, 2.5)
	sensors := VehicleSensors(dyn)
	if len(sensors) != 6 {
		t.Fatalf("sensors = %d", len(sensors))
	}
	now := time.Unix(0, 0)
	got := make(Snapshot)
	for _, s := range sensors {
		got[s.Name()] = s.Read(now)
	}
	if got.Value(SensorSpeed) != 42 || got.Value(SensorAccel) != 1.5 {
		t.Error("speed/accel wrong")
	}
	if !got.Bool(SensorDriver) || got.Bool(SensorIgnition) {
		t.Error("bool sensors wrong")
	}
	if got.Value(SensorLatitude) != 1.5 || got.Value(SensorLongitude) != 2.5 {
		t.Error("gps wrong")
	}
}

func TestServicePollAndHistory(t *testing.T) {
	dyn := &vehicle.Dynamics{}
	clock := resilience.NewVirtualClock(time.Unix(100, 0))
	var sent [][]string
	svc := NewService(clock, VehicleSensors(dyn),
		[]Detector{CrashDetector(8.0)},
		TransmitterFunc(func(evs []string) error {
			sent = append(sent, append([]string(nil), evs...))
			return nil
		}))

	if evs, err := svc.Poll(); err != nil || len(evs) != 0 {
		t.Fatalf("quiet poll: %v, %v", evs, err)
	}
	dyn.SetAccelG(9.0)
	clock.Advance(time.Second)
	evs, err := svc.Poll()
	if err != nil || len(evs) != 1 {
		t.Fatalf("crash poll: %v, %v", evs, err)
	}
	if len(sent) != 1 || len(sent[0]) != 1 || sent[0][0] != "crash_detected" {
		t.Fatalf("transmitted %v, want one crash_detected batch", sent)
	}
	if svc.Polls() != 2 {
		t.Fatalf("polls = %d", svc.Polls())
	}
}

func TestServiceTransmitErrorPropagates(t *testing.T) {
	dyn := &vehicle.Dynamics{}
	dyn.SetAccelG(9)
	svc := NewService(resilience.NewVirtualClock(time.Unix(0, 0)), VehicleSensors(dyn),
		[]Detector{CrashDetector(8.0)},
		TransmitterFunc(func([]string) error { return errors.New("channel down") }))
	if _, err := svc.Poll(); err == nil {
		t.Fatal("transmit error swallowed")
	}
}

func TestDebounceSuppressesGlitches(t *testing.T) {
	// k-of-n confirmation over a repeat detector: a single-poll spike
	// must not fire; three consecutive confirmations must.
	inner := &RepeatDetector{
		DetectorName: "crash-level",
		Cond:         func(s Snapshot) bool { return s.Value(SensorAccel) >= 8 },
		Event:        "crash_detected",
	}
	d := NewDebounce(inner, 3)
	if got := d.Name(); got != "crash-level-debounced" {
		t.Errorf("name = %q", got)
	}

	// One glitchy sample, then quiet: no event.
	if evs := d.Detect(snap(50, 9, true, true)); len(evs) != 0 {
		t.Fatalf("glitch fired %v", evs)
	}
	for i := 0; i < 20; i++ {
		if evs := d.Detect(snap(50, 0.1, true, true)); len(evs) != 0 {
			t.Fatalf("quiet poll fired %v", evs)
		}
	}

	// Sustained signature: fires exactly once after 3 confirmations.
	if evs := d.Detect(snap(12, 9, true, true)); len(evs) != 0 {
		t.Fatal("fired after 1 confirmation")
	}
	if evs := d.Detect(snap(5, 9, true, true)); len(evs) != 0 {
		t.Fatal("fired after 2 confirmations")
	}
	evs := d.Detect(snap(0, 9, true, true))
	if len(evs) != 1 || evs[0] != "crash_detected" {
		t.Fatalf("after 3 confirmations: %v", evs)
	}
}

func TestDebouncePassThroughWhenConfirmIsOne(t *testing.T) {
	d := NewDebounce(CrashDetector(8.0), 1)
	d.Detect(snap(50, 0, true, true))
	if evs := d.Detect(snap(10, 9, true, true)); len(evs) != 1 {
		t.Fatalf("pass-through failed: %v", evs)
	}
}

func TestDebounceDifferentEventResetsCandidate(t *testing.T) {
	i := 0
	flip := &RepeatDetector{
		DetectorName: "flip",
		Cond:         func(Snapshot) bool { return true },
		Event:        "", // replaced per poll below
	}
	_ = flip
	// Use a custom inner emitting alternating events.
	alt := detectorFunc(func(Snapshot) []string {
		i++
		if i%2 == 0 {
			return []string{"a"}
		}
		return []string{"b"}
	})
	d := NewDebounce(alt, 3)
	for poll := 0; poll < 10; poll++ {
		if evs := d.Detect(nil); len(evs) != 0 {
			t.Fatalf("alternating events confirmed: %v", evs)
		}
	}
}

// detectorFunc adapts a closure to the Detector interface for tests.
type detectorFunc func(Snapshot) []string

func (f detectorFunc) Name() string               { return "func" }
func (f detectorFunc) Detect(s Snapshot) []string { return f(s) }
