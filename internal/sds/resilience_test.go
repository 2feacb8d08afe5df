package sds

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/resilience"
	"repro/internal/vehicle"
)

// recorder is a Transmitter that captures batches and can be programmed
// to fail the next n attempts.
type recorder struct {
	batches  [][]string
	failNext int
}

func (r *recorder) Transmit(batch []string) error {
	if r.failNext > 0 {
		r.failNext--
		return errors.New("channel down")
	}
	r.batches = append(r.batches, append([]string(nil), batch...))
	return nil
}

func (r *recorder) lines() []string {
	var out []string
	for _, b := range r.batches {
		out = append(out, b...)
	}
	return out
}

func crashService(clock resilience.Clock, tx Transmitter, opts ...ServiceOption) (*vehicle.Dynamics, *Service) {
	dyn := &vehicle.Dynamics{}
	return dyn, NewService(clock, VehicleSensors(dyn), []Detector{CrashDetector(8.0)}, tx, opts...)
}

func TestQueueBackpressure(t *testing.T) {
	clock := resilience.NewVirtualClock(time.Unix(0, 0))
	rec := &recorder{failNext: 1 << 30} // channel permanently down
	_, svc := crashService(clock, rec, WithQueueCapacity(2))

	if err := svc.DeliverEvent("e1"); err != nil {
		t.Fatalf("e1: %v", err)
	}
	if err := svc.DeliverEvent("e2"); err != nil {
		t.Fatalf("e2: %v", err)
	}
	err := svc.DeliverEvent("e3")
	if !errors.Is(err, core.ErrQueueFull) {
		t.Fatalf("overflow: %v", err)
	}
	depth, capacity, _, drops := svc.QueueStats()
	if depth != 2 || capacity != 2 || drops != 1 {
		t.Fatalf("depth=%d cap=%d drops=%d", depth, capacity, drops)
	}
}

func TestRetryWithBackoffRetainsEvents(t *testing.T) {
	clock := resilience.NewVirtualClock(time.Unix(0, 0))
	rec := &recorder{failNext: 1}
	dyn, svc := crashService(clock, rec, WithBackoff(100*time.Millisecond, time.Second))

	dyn.SetAccelG(9)
	if _, err := svc.Poll(); err == nil {
		t.Fatal("first transmit should fail")
	}
	_, _, retries, _ := svc.QueueStats()
	if retries != 1 {
		t.Fatalf("retries = %d", retries)
	}

	// Immediately after the failure the service is backing off: no new
	// attempt, no error, the event stays queued.
	clock.Advance(time.Millisecond)
	if _, err := svc.Poll(); err != nil {
		t.Fatalf("poll during backoff: %v", err)
	}
	if len(rec.batches) != 0 {
		t.Fatal("transmitted during backoff")
	}
	depth, _, _, _ := svc.QueueStats()
	if depth != 1 {
		t.Fatalf("queue depth = %d", depth)
	}

	// Past the (jittered, ≤125% of base) backoff the retry succeeds and
	// the retained event is delivered exactly once.
	clock.Advance(200 * time.Millisecond)
	if _, err := svc.Poll(); err != nil {
		t.Fatalf("retry poll: %v", err)
	}
	lines := rec.lines()
	if len(lines) != 1 || lines[0] != "crash_detected" {
		t.Fatalf("delivered = %v", lines)
	}
	if depth, _, _, _ := svc.QueueStats(); depth != 0 {
		t.Fatal("queue not drained after retry")
	}
}

func TestBackoffGrowsAndResets(t *testing.T) {
	clock := resilience.NewVirtualClock(time.Unix(0, 0))
	rec := &recorder{failNext: 1 << 30}
	_, svc := crashService(clock, rec, WithBackoff(100*time.Millisecond, 10*time.Second))
	if err := svc.DeliverEvent("e"); err != nil {
		t.Fatal(err)
	}
	// Drive repeated failures; each gap needed to trigger the next
	// attempt must grow (exponential curve, jitter bounded to ±25%).
	var gaps []time.Duration
	for i := 0; i < 4; i++ {
		_, _, before, _ := svc.QueueStats()
		var gap time.Duration
		for step := 0; ; step++ {
			if step > 10_000 {
				t.Fatal("no retry within 100s")
			}
			clock.Advance(10 * time.Millisecond)
			gap += 10 * time.Millisecond
			_ = svc.Flush()
			if _, _, after, _ := svc.QueueStats(); after > before {
				break
			}
		}
		gaps = append(gaps, gap)
	}
	if !(gaps[2] > gaps[0]) || !(gaps[3] > gaps[1]) {
		t.Fatalf("backoff not growing: %v", gaps)
	}
}

func TestHeartbeatEmittedOnQuietPolls(t *testing.T) {
	clock := resilience.NewVirtualClock(time.Unix(100, 0))
	rec := &recorder{}
	_, svc := crashService(clock, rec, WithHeartbeat(time.Second))

	if _, err := svc.Poll(); err != nil { // first poll beats immediately
		t.Fatal(err)
	}
	clock.Advance(300 * time.Millisecond)
	if _, err := svc.Poll(); err != nil { // within interval: silent
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if _, err := svc.Poll(); err != nil { // due again
		t.Fatal(err)
	}
	lines := rec.lines()
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	for i, line := range lines {
		h, err := core.ParseHeartbeat(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if h.Seq != uint64(i+1) || h.Cap != DefaultQueueCapacity {
			t.Fatalf("beat %d: %+v", i, h)
		}
	}
}

func TestHeartbeatDisabledByDefault(t *testing.T) {
	clock := resilience.NewVirtualClock(time.Unix(0, 0))
	rec := &recorder{}
	_, svc := crashService(clock, rec)
	for i := 0; i < 5; i++ {
		clock.Advance(10 * time.Second)
		if _, err := svc.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.batches) != 0 {
		t.Fatalf("quiet polls transmitted: %v", rec.batches)
	}
}

func TestSensorDropoutTracking(t *testing.T) {
	clock := resilience.NewVirtualClock(time.Unix(0, 0))
	rec := &recorder{}
	dyn := &vehicle.Dynamics{}
	dyn.SetSpeed(50)

	// Speed sensor drops out permanently after its 2nd read.
	plan := &faults.Plan{Seed: 7}
	plan.Add(faults.Rule{Target: faults.SensorTarget(SensorSpeed), Kind: faults.Drop, After: 2})
	inj := faults.New(plan)
	sensors := VehicleSensors(dyn)
	for i, s := range sensors {
		sensors[i] = NewFaultySensor(s, inj)
	}
	svc := NewService(clock, sensors, nil, rec,
		WithHeartbeat(time.Second))

	for i := 0; i < 2; i++ {
		clock.Advance(100 * time.Millisecond)
		if _, err := svc.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if dark := svc.DarkSensors(); len(dark) != 0 {
		t.Fatalf("dark too early: %v", dark)
	}
	for i := 0; i < 3; i++ { // three consecutive stale reads
		clock.Advance(100 * time.Millisecond)
		if _, err := svc.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	dark := svc.DarkSensors()
	if len(dark) != 1 || dark[0] != SensorSpeed {
		t.Fatalf("dark = %v", dark)
	}
	h := svc.Health()[SensorSpeed]
	if !h.Dark || h.StaleRun < 3 {
		t.Fatalf("health = %+v", h)
	}
	// The stale reading still carries the last known value.
	if got := svc.Health()[SensorSpeed].LastLive; got.IsZero() {
		t.Fatal("LastLive never recorded")
	}
	// The next heartbeat reports the dark sensor.
	clock.Advance(time.Second)
	if _, err := svc.Poll(); err != nil {
		t.Fatal(err)
	}
	lines := rec.lines()
	last := lines[len(lines)-1]
	hb, err := core.ParseHeartbeat(last)
	if err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if len(hb.Dark) != 1 || hb.Dark[0] != SensorSpeed {
		t.Fatalf("heartbeat dark = %v", hb.Dark)
	}
}

func TestFaultySensorDelayLagsOnePoll(t *testing.T) {
	val := 1.0
	inner := NewSensor("s", func() float64 { return val })
	plan := &faults.Plan{Seed: 1}
	plan.Add(faults.Rule{Target: "sensor:s", Kind: faults.Delay, After: 1})
	fs := NewFaultySensor(inner, faults.New(plan))

	t0 := time.Unix(0, 0)
	if r := fs.Read(t0); r.Value != 1 || r.Stale {
		t.Fatalf("live read: %+v", r)
	}
	val = 2
	if r := fs.Read(t0.Add(time.Second)); r.Value != 1 {
		t.Fatalf("delayed read should lag: %+v", r)
	}
	val = 3
	if r := fs.Read(t0.Add(2 * time.Second)); r.Value != 2 {
		t.Fatalf("second delayed read: %+v", r)
	}
}

func TestFaultyTransmitterPerEventFaults(t *testing.T) {
	rec := &recorder{}
	plan := &faults.Plan{Seed: 1}
	// op windows pick one event each: 1st dropped, 2nd duplicated, 3rd
	// corrupted, 4th reordered (to batch end), rest pass.
	plan.Add(faults.Rule{Target: faults.TargetTransmitterEvent, Kind: faults.Drop, For: 1})
	plan.Add(faults.Rule{Target: faults.TargetTransmitterEvent, Kind: faults.Duplicate, After: 1, For: 1})
	plan.Add(faults.Rule{Target: faults.TargetTransmitterEvent, Kind: faults.Corrupt, After: 2, For: 1})
	plan.Add(faults.Rule{Target: faults.TargetTransmitterEvent, Kind: faults.Reorder, After: 3, For: 1})
	ft := NewFaultyTransmitter(rec, faults.New(plan)).(*FaultyTransmitter)

	batch := []string{"a", "b", "c", "d", "e", "!heartbeat seq=1 t=0 queue=0/1 retries=0 drops=0"}
	if err := ft.Transmit(batch); err != nil {
		t.Fatal(err)
	}
	if len(rec.batches) != 1 {
		t.Fatalf("batches = %d", len(rec.batches))
	}
	got := strings.Join(rec.batches[0], " ")
	want := "b b c" + CorruptSuffix + " e !heartbeat seq=1 t=0 queue=0/1 retries=0 drops=0 d"
	if got != want {
		t.Fatalf("delivered %q\nwant      %q", got, want)
	}
	st := ft.Stats()
	if st.Dropped != 1 || st.Duplicated != 1 || st.Corrupted != 1 || st.Reordered != 1 || st.Forwarded != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultyTransmitterStallAndDelay(t *testing.T) {
	rec := &recorder{}
	plan := &faults.Plan{Seed: 1}
	plan.Add(faults.Rule{Target: faults.TargetTransmitter, Kind: faults.Stall, For: 1})
	plan.Add(faults.Rule{Target: faults.TargetTransmitter, Kind: faults.Delay, After: 1, For: 1})
	ft := NewFaultyTransmitter(rec, faults.New(plan)).(*FaultyTransmitter)

	if err := ft.Transmit([]string{"a"}); !errors.Is(err, faults.ErrStall) {
		t.Fatalf("stall: %v", err)
	}
	// Delayed batch: accepted but held; control line discarded.
	if err := ft.Transmit([]string{"b", "!heartbeat seq=1 t=0 queue=0/1 retries=0 drops=0"}); err != nil {
		t.Fatal(err)
	}
	if len(rec.batches) != 0 {
		t.Fatalf("delayed batch delivered: %v", rec.batches)
	}
	if st := ft.Stats(); st.Held != 1 || st.Stalls != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Next batch flushes the held line first.
	if err := ft.Transmit([]string{"c"}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rec.batches[0], " "); got != "b c" {
		t.Fatalf("flush order = %q", got)
	}
	if st := ft.Stats(); st.Held != 0 || st.Forwarded != 2 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestDebounceClockWindowDeterministic(t *testing.T) {
	inner := &RepeatDetector{
		DetectorName: "lvl",
		Cond:         func(s Snapshot) bool { return s.Value(SensorAccel) >= 8 },
		Event:        "crash_detected",
	}
	d := NewDebounce(inner, 3).WithWindow(time.Second)

	at := func(t0 time.Time, accel float64) Snapshot {
		return Snapshot{SensorAccel: {Sensor: SensorAccel, Value: accel, At: t0}}
	}
	t0 := time.Unix(0, 0)
	// Two confirmations...
	d.Detect(at(t0, 9))
	d.Detect(at(t0.Add(100*time.Millisecond), 9))
	// ...then a long quiet gap (e.g. polls delayed by a fault): the
	// candidate expires on clock time even though only ONE quiet poll ran.
	if evs := d.Detect(at(t0.Add(2*time.Second), 0)); len(evs) != 0 {
		t.Fatalf("quiet gap fired %v", evs)
	}
	// A third confirmation after expiry must NOT fire (count restarted).
	if evs := d.Detect(at(t0.Add(3*time.Second), 9)); len(evs) != 0 {
		t.Fatalf("stale confirmation fired %v", evs)
	}
	// But short quiet gaps within the window keep the candidate alive.
	d.Detect(at(t0.Add(3100*time.Millisecond), 9))
	evs := d.Detect(at(t0.Add(3200*time.Millisecond), 9))
	if len(evs) != 1 || evs[0] != "crash_detected" {
		t.Fatalf("sustained signature = %v", evs)
	}
}
