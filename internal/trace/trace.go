// Package trace provides scripted drive traces: time-stamped vehicle
// dynamics that tests, examples, and benchmarks replay through the
// virtual clock to produce deterministic situation-event sequences.
package trace

import (
	"time"

	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/vehicle"
)

// Point is the vehicle state at one instant of a trace.
type Point struct {
	T        time.Duration // offset from trace start
	Speed    float64       // km/h
	AccelG   float64       // longitudinal acceleration magnitude, g
	Driver   bool          // driver-seat occupancy
	Ignition bool
	Lat, Lon float64
}

// Trace is a named sequence of points, ordered by T.
type Trace struct {
	Name   string
	Points []Point
}

// Apply writes a point into the dynamics state.
func Apply(p Point, dyn *vehicle.Dynamics) {
	dyn.SetSpeed(p.Speed)
	dyn.SetAccelG(p.AccelG)
	dyn.SetDriverPresent(p.Driver)
	dyn.SetIgnition(p.Ignition)
	dyn.SetPosition(p.Lat, p.Lon)
}

// Replay steps through the trace: for each point it applies the state,
// advances the virtual clock to the point's time, and polls the SDS.
// It returns every event the SDS transmitted, in order.
func Replay(tr Trace, clock *resilience.VirtualClock, dyn *vehicle.Dynamics, svc *sds.Service) ([]string, error) {
	var events []string
	prev := time.Duration(0)
	for _, p := range tr.Points {
		if p.T > prev {
			clock.Advance(p.T - prev)
			prev = p.T
		}
		Apply(p, dyn)
		evs, err := svc.Poll()
		events = append(events, evs...)
		if err != nil {
			return events, err
		}
	}
	return events, nil
}

// CityDriveWithCrash models the paper's case study: the car accelerates
// through town, crashes at t=40s (8.5 g spike), and comes to rest.
func CityDriveWithCrash() Trace {
	return Trace{
		Name: "city-drive-with-crash",
		Points: []Point{
			{T: 0, Speed: 0, Driver: true, Ignition: false},
			{T: 2 * time.Second, Speed: 0, Driver: true, Ignition: true},
			{T: 5 * time.Second, Speed: 18, AccelG: 0.2, Driver: true, Ignition: true},
			{T: 15 * time.Second, Speed: 42, AccelG: 0.1, Driver: true, Ignition: true},
			{T: 30 * time.Second, Speed: 55, AccelG: 0.1, Driver: true, Ignition: true},
			{T: 40 * time.Second, Speed: 12, AccelG: 8.5, Driver: true, Ignition: true}, // impact
			{T: 41 * time.Second, Speed: 0, AccelG: 0.3, Driver: true, Ignition: true},
			{T: 45 * time.Second, Speed: 0, AccelG: 0.0, Driver: true, Ignition: true},
		},
	}
}

// HighwayDrive crosses the high-speed threshold twice: acceleration onto
// the highway and the exit back to city speeds (the Fig. 3(b) scenario).
func HighwayDrive() Trace {
	return Trace{
		Name: "highway-drive",
		Points: []Point{
			{T: 0, Speed: 0, Driver: true, Ignition: true},
			{T: 5 * time.Second, Speed: 45, AccelG: 0.2, Driver: true, Ignition: true},
			{T: 15 * time.Second, Speed: 95, AccelG: 0.2, Driver: true, Ignition: true},
			{T: 20 * time.Second, Speed: 120, AccelG: 0.1, Driver: true, Ignition: true},
			{T: 120 * time.Second, Speed: 125, AccelG: 0.0, Driver: true, Ignition: true},
			{T: 140 * time.Second, Speed: 70, AccelG: 0.3, Driver: true, Ignition: true},
			{T: 150 * time.Second, Speed: 40, AccelG: 0.2, Driver: true, Ignition: true},
		},
	}
}

// ParkAndLeave stops the car, switches the ignition off, and has the
// driver leave — exercising both parking states of Fig. 2.
func ParkAndLeave() Trace {
	return Trace{
		Name: "park-and-leave",
		Points: []Point{
			{T: 0, Speed: 30, Driver: true, Ignition: true},
			{T: 10 * time.Second, Speed: 0, Driver: true, Ignition: true},
			{T: 12 * time.Second, Speed: 0, Driver: true, Ignition: false},
			{T: 20 * time.Second, Speed: 0, Driver: false, Ignition: false},
		},
	}
}
