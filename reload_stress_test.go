package sack_test

// reload_stress_test interleaves random policy reloads with random
// pipeline faults (dark sensors, heartbeat lapses, full fault plans)
// and checks that the reload transaction keeps every invariant the
// resilience layer promises: the SSM never leaves the states of the
// *currently installed* policy, pinning always equals "degraded with a
// declared failsafe", recovery restores the logical pre-degradation
// state (remapped, never the failsafe itself), event accounting stays
// ledger-exact across machine swaps, and the reload generation is
// strictly monotonic. Failures replay deterministically from the seed.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	sack "repro"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/trace"
)

// The reload pool: four mutually reloadable revisions of the chaos
// policy. Rule bodies are shared so access decisions depend only on the
// state names, which is what the reload machinery manipulates.
const reloadPolicyBody = `
permissions {
  DEVICE_READ
  CONTROL_CAR_DOORS
}

per_rules {
  DEVICE_READ {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door*
  }
}
`

const reloadPolicyFull = `
states { parked = 0 driving = 1 emergency = 2 safe_stop = 3 }
initial parked
failsafe safe_stop
state_per {
  parked:    DEVICE_READ, CONTROL_CAR_DOORS
  driving:   DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
  safe_stop: DEVICE_READ, CONTROL_CAR_DOORS
}
transitions {
  parked -> driving on driving_started
  driving -> parked on driving_stopped
  driving -> emergency on crash_detected
  emergency -> parked on all_clear
  safe_stop -> parked on all_clear
}
` + reloadPolicyBody

const reloadPolicyNoFailsafe = `
states { parked = 0 driving = 1 emergency = 2 safe_stop = 3 }
initial parked
state_per {
  parked:    DEVICE_READ, CONTROL_CAR_DOORS
  driving:   DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
  safe_stop: DEVICE_READ, CONTROL_CAR_DOORS
}
transitions {
  parked -> driving on driving_started
  driving -> parked on driving_stopped
  driving -> emergency on crash_detected
  emergency -> parked on all_clear
  safe_stop -> parked on all_clear
}
` + reloadPolicyBody

const reloadPolicyDropEmergency = `
states { parked = 0 driving = 1 safe_stop = 3 }
initial parked
failsafe safe_stop
state_per {
  parked:    DEVICE_READ, CONTROL_CAR_DOORS
  driving:   DEVICE_READ
  safe_stop: DEVICE_READ, CONTROL_CAR_DOORS
}
transitions {
  parked -> driving on driving_started
  driving -> parked on driving_stopped
  safe_stop -> parked on all_clear
}
` + reloadPolicyBody

const reloadPolicyAltFailsafe = `
states { parked = 0 driving = 1 emergency = 2 safe_stop = 3 }
initial parked
failsafe parked
state_per {
  parked:    DEVICE_READ, CONTROL_CAR_DOORS
  driving:   DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
  safe_stop: DEVICE_READ, CONTROL_CAR_DOORS
}
transitions {
  parked -> driving on driving_started
  driving -> parked on driving_stopped
  driving -> emergency on crash_detected
  emergency -> parked on all_clear
  safe_stop -> parked on all_clear
}
` + reloadPolicyBody

// reloadVariant is one pool entry plus the metadata the shadow model
// needs.
type reloadVariant struct {
	src      string
	initial  string
	failsafe string
	states   map[string]bool
	rules    map[string]string // "from\x00event" -> to
	events   map[string]bool
}

func loadVariant(t *testing.T, src string) reloadVariant {
	t.Helper()
	c, _, err := sack.Compile(src)
	if err != nil {
		t.Fatalf("variant: %v", err)
	}
	v := reloadVariant{
		src: src, initial: c.Initial, failsafe: c.Failsafe,
		states: map[string]bool{}, rules: map[string]string{}, events: map[string]bool{},
	}
	for _, st := range c.States {
		v.states[st.Name] = true
	}
	for _, tr := range c.Transitions {
		v.rules[tr.From+"\x00"+tr.Event] = tr.To
		v.events[tr.Event] = true
	}
	return v
}

// shadowModel is the reference implementation of the pipeline/reload
// semantics, advanced in lockstep with the real system.
type shadowModel struct {
	v        reloadVariant
	current  string // where the machine is
	prev     string // pre-degradation state ("" while healthy)
	degraded bool
	pinned   bool
	armed    bool
	lastBeat time.Time
	window   time.Duration
}

func (m *shadowModel) remap(name string) string {
	if m.v.states[name] {
		return name
	}
	return m.v.initial
}

func (m *shadowModel) degrade() {
	if m.degraded {
		return
	}
	m.degraded = true
	m.prev = m.current
	if m.v.failsafe != "" {
		m.pinned = true
		m.current = m.v.failsafe
	}
}

func (m *shadowModel) recover() {
	if !m.degraded {
		return
	}
	m.degraded, m.pinned = false, false
	if m.prev != "" {
		m.current = m.prev
	}
	m.prev = ""
}

func (m *shadowModel) observe(at time.Time, dark bool) {
	m.armed = true
	m.lastBeat = at
	if dark {
		m.degrade()
	} else {
		m.recover()
	}
}

func (m *shadowModel) check(now time.Time) {
	if m.armed && !m.degraded && now.Sub(m.lastBeat) > m.window {
		m.degrade()
	}
}

// deliver returns whether the event was accepted into the accounting.
func (m *shadowModel) deliver(ev string) bool {
	if m.pinned {
		return false
	}
	if to, ok := m.v.rules[m.current+"\x00"+ev]; ok {
		m.current = to
	}
	return true
}

// reload mirrors the ReplacePolicy commit protocol.
func (m *shadowModel) reload(v reloadVariant) {
	m.v = v
	prevAfter := ""
	if m.degraded && m.prev != "" {
		prevAfter = m.remap(m.prev)
	}
	var logical string
	if m.pinned {
		logical = prevAfter
		if logical == "" {
			logical = v.initial
		}
	} else {
		logical = m.remap(m.current)
	}
	pinnedAfter := m.degraded && v.failsafe != ""
	landing := logical
	if pinnedAfter {
		landing = v.failsafe
		if prevAfter == "" {
			prevAfter = logical
		}
	}
	if !m.degraded {
		prevAfter = ""
	}
	m.current, m.prev, m.pinned = landing, prevAfter, pinnedAfter
}

// TestReloadChaosInterleaved runs the shadow model against the real
// system under randomized interleavings of heartbeats (clean and
// dark), watchdog lapses, event deliveries, and reloads across the
// variant pool — asserting exact agreement at every step.
func TestReloadChaosInterleaved(t *testing.T) {
	eventPool := []string{"driving_started", "driving_stopped", "crash_detected", "all_clear", "bogus_event"}
	for seed := int64(0); seed < 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			variants := []reloadVariant{
				loadVariant(t, reloadPolicyFull),
				loadVariant(t, reloadPolicyNoFailsafe),
				loadVariant(t, reloadPolicyDropEmergency),
				loadVariant(t, reloadPolicyAltFailsafe),
			}
			sys, err := sack.New(reloadPolicyFull, sack.WithoutVehicle())
			if err != nil {
				t.Fatal(err)
			}
			pipe := sys.Pipeline()
			model := &shadowModel{v: variants[0], current: "parked", window: pipe.Window()}

			now := time.Unix(1_700_000_000, 0)
			var beatSeq uint64
			var wantEventsIn uint64
			var wantGen uint64 = 1
			// Machine counters reset at each reload (a fresh SSM swaps
			// in); accumulate them so the ledger spans the whole run.
			var accTrans, accForced, accIgnored uint64
			snapshotMachine := func() {
				tr, ig := sys.SACK.Machine().Stats()
				accTrans += tr
				accForced += sys.SACK.Machine().Forced()
				accIgnored += ig
			}

			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 3: // heartbeat, sometimes reporting dark sensors
					now = now.Add(time.Duration(rng.Intn(1500)) * time.Millisecond)
					dark := rng.Intn(4) == 0
					beatSeq++
					h := sack.Heartbeat{Seq: beatSeq, At: now, Cap: 8}
					if dark {
						h.Dark = []string{"speed"}
					}
					pipe.Observe(h)
					model.observe(now, dark)
				case op < 5: // watchdog tick, sometimes past the window
					now = now.Add(time.Duration(rng.Intn(4500)) * time.Millisecond)
					pipe.Check(now)
					model.check(now)
				case op < 9: // event delivery
					ev := eventPool[rng.Intn(len(eventPool))]
					err := sys.Events().DeliverEvent(sack.Event(ev))
					switch {
					case model.pinned:
						if !errors.Is(err, sack.ErrDegraded) {
							t.Fatalf("seed %d step %d: pinned delivery of %q: %v", seed, step, ev, err)
						}
					case !model.v.events[ev]:
						if !errors.Is(err, sack.ErrUnknownEvent) {
							t.Fatalf("seed %d step %d: unknown event %q: %v", seed, step, ev, err)
						}
					default:
						if err != nil {
							t.Fatalf("seed %d step %d: delivery of %q: %v", seed, step, ev, err)
						}
					}
					if model.deliver(ev) {
						wantEventsIn++
					}
				default: // reload
					v := variants[rng.Intn(len(variants))]
					snapshotMachine()
					report, err := sys.Reload(v.src)
					if err != nil {
						t.Fatalf("seed %d step %d: reload: %v", seed, step, err)
					}
					model.reload(v)
					wantGen++
					if st := sys.SACK.ReloadStatus(); st.Generation != wantGen {
						t.Fatalf("seed %d step %d: generation = %d, want %d", seed, step, st.Generation, wantGen)
					} else if st.Summary != report.Summary() {
						t.Fatalf("seed %d step %d: status summary %q != applied %q", seed, step, st.Summary, report.Summary())
					}
				}

				// Lockstep invariants after every operation.
				if got := sys.CurrentState().Name; got != model.current {
					t.Fatalf("seed %d step %d: state = %s, model = %s (degraded=%v pinned=%v)",
						seed, step, got, model.current, model.degraded, model.pinned)
				}
				if !model.v.states[sys.CurrentState().Name] {
					t.Fatalf("seed %d step %d: state %q not declared by installed policy", seed, step, sys.CurrentState().Name)
				}
				if pipe.Degraded() != model.degraded || pipe.Pinned() != model.pinned {
					t.Fatalf("seed %d step %d: degraded=%v/%v pinned=%v/%v",
						seed, step, pipe.Degraded(), model.degraded, pipe.Pinned(), model.pinned)
				}
				if pipe.Pinned() && (!model.degraded || pipe.Failsafe() == "") {
					t.Fatalf("seed %d step %d: pinned without degraded failsafe", seed, step)
				}
			}

			// Drive recovery and confirm nothing is wedged: the state
			// after recovery exists in the *installed* policy and can
			// still leave the failsafe through ordinary transitions.
			beatSeq++
			now = now.Add(time.Second)
			pipe.Observe(sack.Heartbeat{Seq: beatSeq, At: now, Cap: 8})
			model.observe(now, false)
			if pipe.Degraded() || pipe.Pinned() {
				t.Fatalf("seed %d: clean heartbeat did not recover", seed)
			}
			if got := sys.CurrentState().Name; got != model.current || !model.v.states[got] {
				t.Fatalf("seed %d: recovered state %q, model %q", seed, got, model.current)
			}
			for _, ev := range []string{"all_clear", "driving_stopped", "all_clear"} {
				_ = sys.Events().DeliverEvent(sack.Event(ev))
				if model.deliver(ev) {
					wantEventsIn++
				}
			}
			if got := sys.CurrentState().Name; got != "parked" || model.current != "parked" {
				t.Fatalf("seed %d: post-recovery drain: state=%s model=%s (wedged?)", seed, got, model.current)
			}

			// Ledger across all machine generations: every accepted
			// event is a transition or an ignore; pinned rejections
			// never leak in.
			snapshotMachine()
			_, _, eventsIn, eventsHit := sys.SACK.Stats()
			if eventsIn != wantEventsIn {
				t.Fatalf("seed %d: eventsIn = %d, want %d", seed, eventsIn, wantEventsIn)
			}
			if eventsIn != (accTrans-accForced)+accIgnored {
				t.Fatalf("seed %d: ledger: in=%d trans=%d forced=%d ignored=%d",
					seed, eventsIn, accTrans, accForced, accIgnored)
			}
			if eventsHit != accTrans-accForced {
				t.Fatalf("seed %d: hits=%d trans-forced=%d", seed, eventsHit, accTrans-accForced)
			}

			// The reload file reports the final generation.
			task := sys.Kernel.Init()
			data, err := task.ReadFileAll(sack.ReloadFile)
			if err != nil {
				t.Fatalf("seed %d: read %s: %v", seed, sack.ReloadFile, err)
			}
			if want := fmt.Sprintf("generation: %d", wantGen); !strings.Contains(string(data), want) {
				t.Fatalf("seed %d: reload file missing %q:\n%s", seed, want, data)
			}
		})
	}
}

// TestReloadChaosWithFaultPlans runs the full SDS-driven chaos harness
// (random fault plans over sensors, transmitter, CAN bus) and injects
// random reloads mid-flight, then checks the kernel-side ledger still
// reconciles exactly and the pipeline recovers into a state the final
// policy declares.
func TestReloadChaosWithFaultPlans(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			plan := randomPlan(rng, seed)
			variants := []string{
				reloadPolicyFull, reloadPolicyNoFailsafe,
				reloadPolicyDropEmergency, reloadPolicyAltFailsafe,
			}
			sys, err := sack.New(reloadPolicyFull, sack.WithFaultPlan(plan))
			if err != nil {
				t.Fatal(err)
			}
			root := sys.Kernel.Init()
			clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
			service, err := sys.NewSDSWith(root, clock,
				[]sds.Detector{
					sds.DrivingDetector(),
					sds.CrashDetector(8.0),
					sds.AllClearDetector(8.0),
				},
				sds.WithHeartbeat(500*time.Millisecond),
				sds.WithDarkThreshold(3),
				sds.WithJitterSeed(seed),
			)
			if err != nil {
				t.Fatal(err)
			}
			pipe := sys.Pipeline()

			var accTrans, accForced, accIgnored uint64
			snapshotMachine := func() {
				tr, ig := sys.SACK.Machine().Stats()
				accTrans += tr
				accForced += sys.SACK.Machine().Forced()
				accIgnored += ig
			}
			declared := func() map[string]bool {
				out := map[string]bool{}
				for _, st := range sys.SACK.Machine().States() {
					out[st.Name] = true
				}
				return out
			}

			lastGen := sys.SACK.ReloadStatus().Generation
			tr := trace.NewGenerator(seed).Generate(100)
			var prev time.Duration
			for step, p := range tr.Points {
				if p.T > prev {
					clock.Advance(p.T - prev)
					prev = p.T
				}
				trace.Apply(p, sys.Vehicle.Dynamics)
				_, _ = service.Poll()
				pipe.Check(clock.Now())

				if rng.Intn(12) == 0 {
					snapshotMachine()
					if _, err := sys.Reload(variants[rng.Intn(len(variants))]); err != nil {
						t.Fatalf("seed %d step %d: reload: %v", seed, step, err)
					}
					gen := sys.SACK.ReloadStatus().Generation
					if gen != lastGen+1 {
						t.Fatalf("seed %d step %d: generation %d after %d", seed, step, gen, lastGen)
					}
					lastGen = gen
				}

				state := sys.CurrentState().Name
				if !declared()[state] {
					t.Fatalf("seed %d step %d: state %q not in installed policy", seed, step, state)
				}
				if pipe.Pinned() != (pipe.Degraded() && pipe.Failsafe() != "") {
					t.Fatalf("seed %d step %d: pin invariant broken: pinned=%v degraded=%v failsafe=%q",
						seed, step, pipe.Pinned(), pipe.Degraded(), pipe.Failsafe())
				}
				if pipe.Pinned() && state != pipe.Failsafe() {
					t.Fatalf("seed %d step %d: pinned in %q, failsafe %q", seed, step, state, pipe.Failsafe())
				}
			}

			// Quiesce: all fault windows are finite, so the pipeline must
			// recover into a state the final policy declares.
			recovered := false
			for i := 0; i < 300; i++ {
				clock.Advance(time.Second)
				_, _ = service.Poll()
				pipe.Check(clock.Now())
				depth, _, _, _ := service.QueueStats()
				if depth == 0 && len(service.DarkSensors()) == 0 && !pipe.Degraded() {
					recovered = true
					break
				}
			}
			if !recovered {
				t.Fatalf("seed %d: pipeline never recovered: reason=%q", seed, pipe.Reason())
			}
			if state := sys.CurrentState().Name; !declared()[state] {
				t.Fatalf("seed %d: recovered into undeclared state %q", seed, state)
			}

			// Kernel-side ledger across machine swaps: accepted events
			// are exactly transitions-plus-ignores; rejections while
			// pinned were counted, not delivered.
			snapshotMachine()
			_, _, eventsIn, eventsHit := sys.SACK.Stats()
			if eventsIn != (accTrans-accForced)+accIgnored {
				t.Fatalf("seed %d: ledger: in=%d trans=%d forced=%d ignored=%d",
					seed, eventsIn, accTrans, accForced, accIgnored)
			}
			if eventsHit != accTrans-accForced {
				t.Fatalf("seed %d: hits=%d trans-forced=%d", seed, eventsHit, accTrans-accForced)
			}
		})
	}
}

// TestReloadConcurrentWithDeliveryAndWatchdog hammers reloads, event
// deliveries, heartbeats, and watchdog ticks from concurrent
// goroutines. Run under -race (make reload-stress) it checks the
// transaction's lock ordering and that the system lands in a coherent,
// declared state.
func TestReloadConcurrentWithDeliveryAndWatchdog(t *testing.T) {
	sys, err := sack.New(reloadPolicyFull, sack.WithoutVehicle())
	if err != nil {
		t.Fatal(err)
	}
	variants := []string{
		reloadPolicyFull, reloadPolicyNoFailsafe,
		reloadPolicyDropEmergency, reloadPolicyAltFailsafe,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := sys.Reload(variants[i%len(variants)]); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()
	events := []sack.Event{"driving_started", "driving_stopped", "crash_detected", "all_clear"}
	base := time.Unix(1_700_000_000, 0)
	for i := 0; ; i++ {
		select {
		case <-done:
			// One more reload after the storm settles, then verify
			// coherence.
			if _, err := sys.Reload(reloadPolicyFull); err != nil {
				t.Fatal(err)
			}
			now := base.Add(time.Duration(i+1) * time.Millisecond)
			sys.Pipeline().Observe(sack.Heartbeat{Seq: uint64(i), At: now, Cap: 8})
			if sys.Pipeline().Pinned() {
				t.Fatal("pinned after clean heartbeat")
			}
			st := sys.CurrentState().Name
			valid := map[string]bool{"parked": true, "driving": true, "emergency": true, "safe_stop": true}
			if !valid[st] {
				t.Fatalf("final state %q undeclared", st)
			}
			_, _, eventsIn, eventsHit := sys.SACK.Stats()
			if eventsHit > eventsIn {
				t.Fatalf("accounting: hits=%d > in=%d", eventsHit, eventsIn)
			}
			return
		default:
		}
		ev := events[i%len(events)]
		if err := sys.Events().DeliverEvent(ev); err != nil &&
			!errors.Is(err, sack.ErrDegraded) && !errors.Is(err, sack.ErrUnknownEvent) {
			t.Fatalf("delivery %d: %v", i, err)
		}
		if i%7 == 0 {
			now := base.Add(time.Duration(i) * time.Millisecond)
			sys.Pipeline().Observe(sack.Heartbeat{Seq: uint64(i), At: now, Cap: 8})
			sys.Pipeline().Check(now)
		}
	}
}
