package core_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/sys"
)

// bootAuthenticated boots an independent SACK with heartbeat
// authentication armed under the given shared secret.
func bootAuthenticated(t *testing.T, secret []byte) (*kernel.Kernel, *core.SACK) {
	t.Helper()
	k := kernel.New()
	compiled, vr, err := policy.Load(failsafePolicy)
	if err != nil {
		t.Fatalf("policy.Load: %v", err)
	}
	if !vr.OK() {
		t.Fatalf("policy has errors: %v", vr.Errors())
	}
	s, err := core.New(core.Config{
		Mode: core.Independent, Policy: compiled, Source: failsafePolicy,
		Audit: k.Audit, HeartbeatSecret: secret,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	if err := k.Boot(s); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return k, s
}

func TestHeartbeatSignRoundTrip(t *testing.T) {
	secret := []byte("fleet-secret")
	h := core.Heartbeat{Seq: 3, At: time.Unix(0, 42), Queue: 1, Cap: 64}.Sign(secret)
	if h.MAC == "" {
		t.Fatal("Sign left MAC empty")
	}
	got, err := core.ParseHeartbeat(h.String())
	if err != nil {
		t.Fatalf("ParseHeartbeat: %v", err)
	}
	if !got.VerifyMAC(secret) {
		t.Fatal("round-tripped MAC did not verify")
	}
	if got.VerifyMAC([]byte("wrong")) {
		t.Fatal("MAC verified under the wrong secret")
	}
	// Tampering with a signed field breaks the MAC.
	tampered := got
	tampered.Queue = 60
	if tampered.VerifyMAC(secret) {
		t.Fatal("tampered heartbeat verified")
	}
}

func TestForgedHeartbeatRejectedAndAudited(t *testing.T) {
	secret := []byte("fleet-secret")
	k, s := bootAuthenticated(t, secret)
	task := k.Init()
	p := s.Pipeline()
	t0 := time.Unix(1000, 0)

	write := func(h core.Heartbeat) error {
		return task.WriteFileAll(core.EventsFile, []byte(h.String()+"\n"), 0)
	}

	// Unsigned heartbeat: rejected, watchdog never arms.
	if err := write(core.Heartbeat{Seq: 1, At: t0}); !sys.IsErrno(err, sys.EPERM) {
		t.Fatalf("unsigned heartbeat: err = %v, want EPERM", err)
	}
	if p.Stats().Armed {
		t.Fatal("forged heartbeat armed the watchdog")
	}

	// Mis-signed heartbeat (wrong secret): rejected.
	bad := core.Heartbeat{Seq: 1, At: t0}.Sign([]byte("attacker"))
	if err := write(bad); !sys.IsErrno(err, sys.EPERM) {
		t.Fatalf("mis-signed heartbeat: err = %v, want EPERM", err)
	}

	// Properly signed heartbeat: accepted.
	if err := write(core.Heartbeat{Seq: 1, At: t0}.Sign(secret)); err != nil {
		t.Fatalf("signed heartbeat rejected: %v", err)
	}
	if st := p.Stats(); !st.Armed || st.HeartbeatSeq != 1 {
		t.Fatalf("signed heartbeat not observed: %+v", st)
	}

	// Replay of the accepted line (valid MAC, stale seq): rejected — a
	// captured heartbeat cannot keep a dead pipeline looking alive.
	if err := write(core.Heartbeat{Seq: 1, At: t0}.Sign(secret)); !sys.IsErrno(err, sys.EPERM) {
		t.Fatalf("replayed heartbeat: err = %v, want EPERM", err)
	}

	// Fresh sequence: accepted again.
	if err := write(core.Heartbeat{Seq: 2, At: t0.Add(time.Second)}.Sign(secret)); err != nil {
		t.Fatalf("fresh signed heartbeat rejected: %v", err)
	}

	st := p.Stats()
	if st.ForgedHeartbeats != 3 || !st.Authenticated {
		t.Fatalf("forged=%d authenticated=%v, want 3, true", st.ForgedHeartbeats, st.Authenticated)
	}
	if st.Heartbeats != 2 || st.HeartbeatSeq != 2 {
		t.Fatalf("accepted beats=%d seq=%d, want 2, 2", st.Heartbeats, st.HeartbeatSeq)
	}

	// Every rejection left a DENIED heartbeat_forged audit record.
	var forged []lsm.AuditRecord
	for _, r := range k.Audit.Records() {
		if r.Op == "heartbeat_forged" {
			forged = append(forged, r)
		}
	}
	if len(forged) != 3 {
		t.Fatalf("heartbeat_forged records = %d, want 3", len(forged))
	}
	for _, r := range forged {
		if r.Action != "DENIED" {
			t.Fatalf("forged record not DENIED: %v", r)
		}
	}
	if !strings.Contains(forged[2].Detail, "replay") {
		t.Fatalf("replay rejection detail = %q", forged[2].Detail)
	}

	if !strings.Contains(p.Render(), "forged_heartbeats: 3") {
		t.Fatalf("render missing forged counter:\n%s", p.Render())
	}
}

// TestForgedHeartbeatCannotMaskLapse is the attack the satellite task
// names: a compromised writer floods forged heartbeats while the real
// SDS is dead. The watchdog must still see the lapse and degrade.
func TestForgedHeartbeatCannotMaskLapse(t *testing.T) {
	secret := []byte("fleet-secret")
	k, s := bootAuthenticated(t, secret)
	task := k.Init()
	p := s.Pipeline()
	t0 := time.Unix(1000, 0)

	// Real SDS beats once, then dies.
	if err := task.WriteFileAll(core.EventsFile,
		[]byte(core.Heartbeat{Seq: 1, At: t0}.Sign(secret).String()+"\n"), 0); err != nil {
		t.Fatalf("genuine heartbeat: %v", err)
	}

	// Attacker keeps writing unsigned "healthy" heartbeats with fresh
	// sequence numbers and timestamps.
	for i := 2; i <= 5; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		line := core.Heartbeat{Seq: uint64(i), At: at}.String()
		if err := task.WriteFileAll(core.EventsFile, []byte(line+"\n"), 0); !sys.IsErrno(err, sys.EPERM) {
			t.Fatalf("forged beat %d: err = %v, want EPERM", i, err)
		}
	}

	// The last *authenticated* beat is still seq 1 at t0, so the
	// watchdog lapses once the window passes.
	if !p.Check(t0.Add(p.Window() + time.Second)) {
		t.Fatal("watchdog did not degrade: forged heartbeats kept the pipeline alive")
	}
	if st := s.CurrentState().Name; st != "lockdown" {
		t.Fatalf("state = %s, want lockdown failsafe", st)
	}
}

func TestUnauthenticatedPipelineAcceptsUnsignedBeats(t *testing.T) {
	// No secret configured: the pre-auth behavior is unchanged.
	k, s := bootIndependent(t, failsafePolicy)
	task := k.Init()
	line := core.Heartbeat{Seq: 1, At: time.Unix(1000, 0)}.String()
	if err := task.WriteFileAll(core.EventsFile, []byte(line+"\n"), 0); err != nil {
		t.Fatalf("unsigned heartbeat on unauthenticated pipeline: %v", err)
	}
	if st := s.Pipeline().Stats(); !st.Armed || st.Authenticated {
		t.Fatalf("stats: %+v", st)
	}
}
