package sds_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/vehicle"
)

const txPolicy = `
states { normal = 0 emergency = 1 }
initial normal
transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`

func bootWithSACK(t *testing.T) (*kernel.Kernel, *core.SACK) {
	t.Helper()
	k := kernel.New()
	compiled, vr, err := policy.Load(txPolicy)
	if err != nil || !vr.OK() {
		t.Fatalf("policy: %v %v", err, vr)
	}
	s, err := core.New(core.Config{Mode: core.Independent, Policy: compiled})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RegisterLSM(s); err != nil {
		t.Fatal(err)
	}
	if err := k.RegisterLSM(lsm.NewCapability()); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterSecurityFS(k.SecFS); err != nil {
		t.Fatal(err)
	}
	return k, s
}

func TestKernelTransmitterDeliversToSSM(t *testing.T) {
	k, s := bootWithSACK(t)
	tx, err := sds.NewKernelTransmitter(k.Init())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if err := tx.Transmit([]string{"crash_detected"}); err != nil {
		t.Fatal(err)
	}
	if s.CurrentState().Name != "emergency" {
		t.Fatalf("state = %q", s.CurrentState().Name)
	}
	if err := tx.Transmit([]string{"all_clear", "crash_detected"}); err != nil {
		t.Fatal(err)
	}
	if s.CurrentState().Name != "emergency" {
		t.Fatalf("batched events: state = %q", s.CurrentState().Name)
	}
}

func TestKernelTransmitterRequiresPrivilege(t *testing.T) {
	k, _ := bootWithSACK(t)
	root := k.Init()
	user, err := root.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := user.SetUID(1000, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := sds.NewKernelTransmitter(user); err == nil {
		t.Fatal("unprivileged transmitter creation should fail at open")
	}
}

func TestEndToEndSDSOverKernelTransmitter(t *testing.T) {
	k, s := bootWithSACK(t)
	dyn := &vehicle.Dynamics{}
	clock := resilience.NewVirtualClock(time.Unix(0, 0))
	tx, err := sds.NewKernelTransmitter(k.Init())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	svc := sds.NewService(clock, sds.VehicleSensors(dyn),
		[]sds.Detector{sds.CrashDetector(8.0)}, tx)

	svc.Poll() // baseline, quiet
	dyn.SetAccelG(9.2)
	clock.Advance(time.Second)
	events, err := svc.Poll()
	if err != nil || len(events) != 1 {
		t.Fatalf("poll: %v %v", events, err)
	}
	if s.CurrentState().Name != "emergency" {
		t.Fatalf("state = %q", s.CurrentState().Name)
	}
	// Transmitter keeps the fd across polls: a second cycle works.
	dyn.SetAccelG(0)
	svc.Poll()
	if svc.Polls() != 3 {
		t.Fatalf("polls = %d", svc.Polls())
	}
}
