package main

import (
	"bytes"
	"encoding/hex"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/sign"
)

// TestRunFleetView drives the city-crash trace as a fleet member: the
// vehicle pulls its policy from a fleetd (replacing the built-in one),
// ships status and audit records after the run, and the fleet view
// shows it converged.
func TestRunFleetView(t *testing.T) {
	srv := fleet.NewServer()
	if _, err := srv.Publish("city", defaultPolicy); err != nil {
		t.Fatalf("publish: %v", err)
	}
	hs := httptest.NewServer(fleet.Handler(srv))
	defer hs.Close()

	var out bytes.Buffer
	code := runWith(&out, func(c *runConfig) {
		c.fleetURL = hs.URL
		c.fleetGroup = "city"
		c.fleetVehicle = "veh-mon"
	})
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	text := out.String()
	for _, frag := range []string{
		"fleet: veh-mon joined group city at generation 1",
		"emergency (3)", // the trace still drives the pulled policy
		"-- fleet " + hs.URL + " --",
		"group city: generation=1",
		"converged=1",
		"wire_ingest: binary_batches=",
		"wire_fanout: full_pulls=",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("output missing %q:\n%s", frag, text)
		}
	}

	v, ok := srv.Vehicle("veh-mon")
	if !ok {
		t.Fatal("vehicle never reported status")
	}
	if v.AppliedGeneration != 1 {
		t.Fatalf("vehicle state: %+v", v)
	}
	if v.Uploaded+v.Dropped != v.Emitted {
		t.Fatalf("ledger not exact: %+v", v)
	}
	// The monitor reports its wire accounting in its status report.
	if v.FullPulls == 0 || (v.Uploaded > 0 && v.WireBytesOut == 0) {
		t.Fatalf("wire accounting not reported: %+v", v)
	}
}

func TestFleetGroupRequiresFleetURL(t *testing.T) {
	var out bytes.Buffer
	if code := runWith(&out, func(c *runConfig) { c.fleetGroup = "city" }); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestRunFleetKey: with -fleet-key the agent only applies bundles that
// verify against the key. Matching key → normal run; wrong key →
// refusal before the reload, not a silent downgrade.
func TestRunFleetKey(t *testing.T) {
	signer, _ := sign.NewHMAC("k1", []byte("0123456789abcdef0123456789abcdef"))
	srv := fleet.NewServer(fleet.WithBundleSigner(signer))
	if _, err := srv.Publish("city", defaultPolicy); err != nil {
		t.Fatalf("publish: %v", err)
	}
	hs := httptest.NewServer(fleet.Handler(srv))
	defer hs.Close()

	keyHex := hex.EncodeToString([]byte("0123456789abcdef0123456789abcdef"))
	var out bytes.Buffer
	code := runWith(&out, func(c *runConfig) {
		c.fleetURL = hs.URL
		c.fleetGroup = "city"
		c.fleetVehicle = "veh-keyed"
		c.fleetKey = "k1=" + keyHex
	})
	if code != 0 {
		t.Fatalf("matching key: exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "joined group city at generation 1") {
		t.Fatalf("keyed agent never converged:\n%s", out.String())
	}

	// Wrong secret: the bundle must be refused, and the run fail loudly.
	out.Reset()
	wrongHex := hex.EncodeToString([]byte("ffffffffffffffffffffffffffffffff"))
	code = runWith(&out, func(c *runConfig) {
		c.fleetURL = hs.URL
		c.fleetGroup = "city"
		c.fleetVehicle = "veh-badkey"
		c.fleetKey = "k1=" + wrongHex
	})
	if code == 0 {
		t.Fatalf("bad key applied the bundle:\n%s", out.String())
	}

	// Malformed flag shapes are usage errors.
	if code := runWith(&out, func(c *runConfig) {
		c.fleetURL = hs.URL
		c.fleetGroup = "city"
		c.fleetKey = "nosecret"
	}); code != 2 {
		t.Fatalf("bare -fleet-key: exit %d", code)
	}
}
