package main

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
)

const fleetTestPolicy = `
states {
  normal = 0
  lockdown = 1
}

initial normal
failsafe lockdown

permissions {
  NORMAL
  LOCKED
}

state_per {
  normal:   NORMAL
  lockdown: LOCKED
}

per_rules {
  NORMAL {
    allow read /etc/**
  }
  LOCKED {
    allow read /etc/hostname
  }
}

transitions {
  normal -> lockdown on crash_detected
  lockdown -> normal on all_clear
}
`

func TestBundlePushAndFleetStatus(t *testing.T) {
	srv := fleet.NewServer()
	hs := httptest.NewServer(fleet.Handler(srv))
	defer hs.Close()

	files := map[string]string{"p": fleetTestPolicy}
	code, out, errOut := runCtl(t, files, "bundle", "push", hs.URL, "default", "p")
	if code != 0 {
		t.Fatalf("bundle push: code=%d stderr=%s", code, errOut)
	}
	if !strings.Contains(out, "pushed group default generation 1") {
		t.Fatalf("push output: %q", out)
	}
	if b, err := srv.Bundle("default"); err != nil || b.Generation != 1 {
		t.Fatalf("server bundle after push: %+v err=%v", b, err)
	}

	// A second push bumps the generation.
	code, out, _ = runCtl(t, files, "bundle", "push", hs.URL, "default", "p")
	if code != 0 || !strings.Contains(out, "generation 2") {
		t.Fatalf("second push: code=%d out=%q", code, out)
	}

	// Invalid policy is rejected locally, before it reaches the server.
	code, _, errOut = runCtl(t, map[string]string{"bad": "states { a a }"}, "bundle", "push", hs.URL, "default", "bad")
	if code != 1 || errOut == "" {
		t.Fatalf("invalid push: code=%d stderr=%q", code, errOut)
	}
	if b, _ := srv.Bundle("default"); b.Generation != 2 {
		t.Fatalf("invalid push changed the registry: %+v", b)
	}

	if err := srv.ReportStatus(fleet.VehicleStatus{Vehicle: "v1", Group: "default", AppliedGeneration: 2}); err != nil {
		t.Fatal(err)
	}
	code, out, errOut = runCtl(t, nil, "fleet", "status", hs.URL)
	if code != 0 {
		t.Fatalf("fleet status: code=%d stderr=%s", code, errOut)
	}
	for _, want := range []string{"vehicles: 1", "group default:", "generation=2", "converged=1",
		"wire_ingest: binary_batches=", "wire_fanout: full_pulls="} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet status missing %q:\n%s", want, out)
		}
	}
}

func TestFleetSubcommandUsage(t *testing.T) {
	if code, _, _ := runCtl(t, nil, "bundle", "pull", "u", "g", "p"); code != 2 {
		t.Fatalf("bundle pull accepted: %d", code)
	}
	if code, _, _ := runCtl(t, nil, "fleet"); code != 2 {
		t.Fatalf("bare fleet accepted: %d", code)
	}
}

func TestBundlePushWithInvariants(t *testing.T) {
	srv := fleet.NewServer()
	hs := httptest.NewServer(fleet.Handler(srv))
	defer hs.Close()

	// Local verification stops a violating bundle before the network.
	files := map[string]string{"p": verifyBadPolicy, "inv": verifyNever}
	code, _, errOut := runCtl(t, files, "bundle", "push", hs.URL, "canbus", "p", "inv")
	if code != 3 || !strings.Contains(errOut, "witness:") {
		t.Fatalf("violating push: code=%d stderr=%q", code, errOut)
	}
	if _, err := srv.Bundle("canbus"); err == nil {
		t.Fatal("violating bundle reached the registry")
	}

	// A compliant bundle publishes with its invariants embedded.
	files = map[string]string{"p": fleetTestPolicy, "inv": verifyNever}
	code, out, errOut := runCtl(t, files, "bundle", "push", hs.URL, "canbus", "p", "inv")
	if code != 0 {
		t.Fatalf("compliant push: code=%d stderr=%s", code, errOut)
	}
	if !strings.Contains(out, "generation 1") {
		t.Fatalf("push output: %q", out)
	}
	if b, err := srv.Bundle("canbus"); err != nil || b.Invariants != verifyNever {
		t.Fatalf("bundle invariants after push: %+v err=%v", b, err)
	}

	// A group set registered server-side rejects a push that carries no
	// invariants of its own; the 422 witness surfaces in the error.
	if err := srv.SetInvariants("locked", "never - read /etc/hostname"); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runCtl(t, map[string]string{"p": fleetTestPolicy}, "bundle", "push", hs.URL, "locked", "p")
	if code != 1 || !strings.Contains(errOut, "witness:") {
		t.Fatalf("server-side gate: code=%d stderr=%q", code, errOut)
	}
}

func TestBundleRolloutLifecycle(t *testing.T) {
	srv := fleet.NewServer()
	hs := httptest.NewServer(fleet.Handler(srv))
	defer hs.Close()

	files := map[string]string{"p": fleetTestPolicy}
	if code, _, errOut := runCtl(t, files, "bundle", "push", hs.URL, "default", "p"); code != 0 {
		t.Fatalf("seed push: code=%d stderr=%s", code, errOut)
	}

	// Stage a rollout: 50% canary cohort, strict denial brake.
	code, out, errOut := runCtl(t, files, "bundle", "rollout", hs.URL, "default", "p",
		"-stages", "50,100", "-max-denial-rate", "0.2", "-min-samples", "1")
	if code != 0 {
		t.Fatalf("bundle rollout: code=%d stderr=%s", code, errOut)
	}
	if !strings.Contains(out, "candidate generation 2") || !strings.Contains(out, "stage: 1/2") {
		t.Fatalf("rollout output: %q", out)
	}

	// Status command reads it back.
	code, out, errOut = runCtl(t, nil, "fleet", "rollout", hs.URL, "default", "status")
	if code != 0 || !strings.Contains(out, "candidate: generation=2") {
		t.Fatalf("rollout status: code=%d out=%q stderr=%s", code, out, errOut)
	}

	// Find a canary empirically: a vehicle the split serves the
	// candidate to. Then regress it — every decision denied.
	canary := ""
	for i := 0; i < 200 && canary == ""; i++ {
		id := fmt.Sprintf("veh-%03d", i)
		if b, mod, err := srv.FetchBundle(id, "default", "", 0); err == nil && mod && b.Generation == 2 {
			canary = id
		}
	}
	if canary == "" {
		t.Fatal("no canary in 200 vehicles at a 50% split")
	}
	// Status report first: ingestion attributes a vehicle's records to
	// the rollout via the group the vehicle last reported.
	if err := srv.ReportStatus(fleet.VehicleStatus{Vehicle: canary, Group: "default", AppliedGeneration: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.UploadLogs(canary, []fleet.LogRecord{
		{Seq: 1, Op: "write", Object: "/dev/can/actuator0", Action: "DENIED"},
		{Seq: 2, Op: "write", Object: "/dev/can/actuator1", Action: "DENIED"},
	}); err != nil {
		t.Fatal(err)
	}

	// Tick trips the brake: distinct exit code, halt reason printed.
	code, out, _ = runCtl(t, nil, "fleet", "rollout", hs.URL, "default", "tick")
	if code != 3 || !strings.Contains(out, "rollout halted") {
		t.Fatalf("tick on regression: code=%d out=%q", code, out)
	}

	// Abort clears it; the group publishes normally again.
	if code, _, errOut := runCtl(t, nil, "fleet", "rollout", hs.URL, "default", "abort"); code != 0 {
		t.Fatalf("abort: code=%d stderr=%s", code, errOut)
	}
	if code, _, _ := runCtl(t, nil, "fleet", "rollout", hs.URL, "default", "status"); code != 1 {
		t.Fatalf("status after abort should report no rollout, code=%d", code)
	}

	// A clean single-stage rollout promotes on tick.
	code, _, errOut = runCtl(t, files, "bundle", "rollout", hs.URL, "default", "p", "-stages", "100")
	if code != 0 {
		t.Fatalf("second rollout: code=%d stderr=%s", code, errOut)
	}
	if err := srv.ReportStatus(fleet.VehicleStatus{Vehicle: "veh-000", Group: "default", AppliedGeneration: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.UploadLogs("veh-000", []fleet.LogRecord{
		{Seq: 3, Op: "read", Object: "/etc/hostname", Action: "ALLOWED"},
	}); err != nil {
		t.Fatal(err)
	}
	code, out, errOut = runCtl(t, nil, "fleet", "rollout", hs.URL, "default", "tick")
	if code != 0 || !strings.Contains(out, "rollout promoted") {
		t.Fatalf("promote tick: code=%d out=%q stderr=%s", code, out, errOut)
	}
	if b, err := srv.Bundle("default"); err != nil || b.Generation != 3 {
		t.Fatalf("promotion did not install the candidate: %+v err=%v", b, err)
	}

	// Bad stage specs are usage errors, caught before any HTTP.
	if code, _, _ := runCtl(t, files, "bundle", "rollout", hs.URL, "default", "p", "-stages", "ten"); code != 2 {
		t.Fatalf("bad -stages accepted: code=%d", code)
	}
}
