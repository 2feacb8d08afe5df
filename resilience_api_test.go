package sack_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	sack "repro"
	"repro/internal/faults"
	"repro/internal/resilience"
)

const failsafeAPIPolicy = `
states {
  normal = 0
  emergency = 1
  lockdown = 2
}
initial normal
failsafe lockdown
permissions {
  DEVICE_READ
  CONTROL_CAR_DOORS
}
state_per {
  normal:    DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
  lockdown:  DEVICE_READ
}
per_rules {
  DEVICE_READ {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door*
  }
}
transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
  lockdown -> normal on all_clear
}
`

func TestEventSinkInterfaceUnifiesEntryPaths(t *testing.T) {
	sys, err := sack.New(basicPolicy)
	if err != nil {
		t.Fatal(err)
	}
	root := sys.Kernel.Init()
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	service, err := sys.NewSDS(root, clock)
	if err != nil {
		t.Fatal(err)
	}

	// Both the direct kernel path and the SDS queue satisfy EventSink.
	sinks := []sack.EventSink{sys.Events(), service}
	for i, sink := range sinks {
		if err := sink.DeliverEvent("crash_detected"); err != nil {
			t.Fatalf("sink %d: %v", i, err)
		}
	}
	if got := sys.CurrentState(); got.Name != "emergency" {
		t.Fatalf("state = %q", got.Name)
	}

	// Unknown events surface a typed error on the direct path.
	if err := sys.Events().DeliverEvent("no_such_event"); !errors.Is(err, sack.ErrUnknownEvent) {
		t.Fatalf("unknown event error = %v", err)
	}
}

func TestWithFailsafeOverridesAndPins(t *testing.T) {
	sys, err := sack.New(failsafeAPIPolicy,
		sack.WithFailsafe("emergency"),
		sack.WithHeartbeatWindow(2*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	pipe := sys.Pipeline()
	if got := pipe.Failsafe(); got != "emergency" {
		t.Fatalf("failsafe = %q (override lost)", got)
	}
	if got := pipe.Window(); got != 2*time.Second {
		t.Fatalf("window = %v", got)
	}

	// Lapse the heartbeat: observe one beat, then check far in the future.
	base := time.Unix(1_700_000_000, 0)
	pipe.Observe(sack.Heartbeat{Seq: 1, At: base})
	pipe.Check(base.Add(5 * time.Second))
	if !pipe.Degraded() {
		t.Fatal("not degraded after lapse")
	}
	if got := sys.CurrentState(); got.Name != "emergency" {
		t.Fatalf("failsafe state = %q", got.Name)
	}
	if err := sys.Events().DeliverEvent("all_clear"); !errors.Is(err, sack.ErrDegraded) {
		t.Fatalf("pinned delivery error = %v", err)
	}

	// WithFailsafe naming an undeclared state is a boot error.
	if _, err := sack.New(failsafeAPIPolicy, sack.WithFailsafe("bunker")); err == nil {
		t.Fatal("undeclared failsafe accepted")
	}
}

func TestWithFaultPlanWiresBusAndSDS(t *testing.T) {
	// Drop every CAN frame and every transmitter event line: commands
	// never reach actuators and detections never reach the kernel.
	plan := &faults.Plan{Seed: 7}
	plan.Add(sack.FaultRule{Target: faults.TargetCANBus, Kind: faults.Drop})
	plan.Add(sack.FaultRule{Target: faults.TargetTransmitterEvent, Kind: faults.Drop})

	sys, err := sack.New(basicPolicy, sack.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Faults == nil {
		t.Fatal("System.Faults not armed")
	}

	sys.Vehicle.Bus.Send(sack.CANFrame{ID: 0x100, Len: 1})
	if got := len(sys.Vehicle.Bus.Log()); got != 0 {
		t.Fatalf("dropped frame hit the wire: %d logged", got)
	}

	root := sys.Kernel.Init()
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	service, err := sys.NewSDSWith(root, clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := service.DeliverEvent("crash_detected"); err != nil {
		t.Fatal(err)
	}
	if err := service.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sys.CurrentState(); got.Name != "normal" {
		t.Fatalf("dropped event transitioned the SSM: state = %q", got.Name)
	}
}

func TestParseFaultSpecRoundTrip(t *testing.T) {
	plan, err := sack.ParseFaultSpec("stall:transmitter:after=2", 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rules) != 1 || plan.Seed != 42 {
		t.Fatalf("plan = %+v", plan)
	}
	if _, err := sack.ParseFaultSpec("explode:transmitter", 1); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestPipelineFileReadableThroughPublicAPI(t *testing.T) {
	sys, err := sack.New(failsafeAPIPolicy)
	if err != nil {
		t.Fatal(err)
	}
	root := sys.Kernel.Init()
	data, err := root.ReadFileAll(sack.PipelineFile)
	if err != nil {
		t.Fatal(err)
	}
	content := string(data)
	for _, key := range []string{"degraded:", "failsafe_state: lockdown", "heartbeat_armed:"} {
		if !strings.Contains(content, key) {
			t.Fatalf("pipeline file missing %q:\n%s", key, content)
		}
	}
}
