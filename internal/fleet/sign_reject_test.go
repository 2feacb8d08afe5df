package fleet

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sign"
)

func testKeyring(t *testing.T) (*sign.Signer, *sign.Keyring) {
	t.Helper()
	signer, verifier := sign.NewHMAC("fleet-2026", []byte("0123456789abcdef0123456789abcdef"))
	return signer, sign.NewKeyring(verifier)
}

// tamperTransport rewrites the bundle's policy source in flight and
// RECOMPUTES the checksum, so the integrity check passes and only the
// signature can catch the substitution.
type tamperTransport struct {
	Transport
	tamper bool
}

func (tt *tamperTransport) FetchBundle(vehicle, group, etag string, wait time.Duration) (policy.Bundle, bool, error) {
	b, modified, err := tt.Transport.FetchBundle(vehicle, group, etag, wait)
	if err == nil && modified && tt.tamper {
		evil := policy.NewBundle(b.Group, b.Generation, strings.Replace(
			b.Source, "allow read /etc/**", "allow write /dev/can/**", 1,
		)).WithInvariants(b.Invariants)
		// Keep the original signature headers: they no longer match the
		// rewritten payload, which is the point.
		evil.KeyID, evil.SigAlg, evil.Signature = b.KeyID, b.SigAlg, b.Signature
		return evil, true, nil
	}
	return b, modified, err
}

func newSignedServer(t *testing.T, signer *sign.Signer) *Server {
	t.Helper()
	s := NewServer(WithBundleSigner(signer))
	if _, err := s.Publish("g", testPolicy); err != nil {
		t.Fatalf("publish: %v", err)
	}
	return s
}

// TestAgentRejectsTamperedBundle: with a keyring configured the agent
// must refuse a payload-substituted bundle even when the attacker
// recomputed the checksum, and must never hand it to the applier.
func TestAgentRejectsTamperedBundle(t *testing.T) {
	signer, kr := testKeyring(t)
	s := newSignedServer(t, signer)
	tt := &tamperTransport{Transport: s, tamper: true}
	applier := &fakeApplier{}
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-1", Group: "g", Transport: tt, Applier: applier,
		Keyring: kr,
	})
	if err != nil {
		t.Fatalf("agent: %v", err)
	}
	if err := a.SyncOnce(); !errors.Is(err, sign.ErrBadSignature) {
		t.Fatalf("sync with tampered bundle: %v, want ErrBadSignature", err)
	}
	if applier.count() != 0 {
		t.Fatalf("tampered policy reached the applier")
	}
	if a.SigRejects() != 1 {
		t.Fatalf("sig rejects = %d, want 1", a.SigRejects())
	}

	// The clean path applies fine with the same keyring.
	tt.tamper = false
	if err := a.SyncOnce(); err != nil {
		t.Fatalf("sync clean: %v", err)
	}
	if applier.count() != 1 || a.AppliedGeneration() != 1 {
		t.Fatalf("clean bundle not applied: applies=%d gen=%d", applier.count(), a.AppliedGeneration())
	}
	// The rejection count rode the round's status report to the server.
	if v, ok := s.Vehicle("veh-1"); !ok || v.SigRejects != 1 {
		t.Fatalf("server-side sig reject count = %d, want 1", v.SigRejects)
	}
}

// TestAgentRejectsUnsignedWhenKeyed: a keyring-configured agent treats a
// legacy unsigned bundle as a refusal (ErrUnsigned), so a downgrade
// attack cannot strip signatures.
func TestAgentRejectsUnsignedWhenKeyed(t *testing.T) {
	_, kr := testKeyring(t)
	s := NewServer() // no signer: emits legacy unsigned bundles
	if _, err := s.Publish("g", testPolicy); err != nil {
		t.Fatalf("publish: %v", err)
	}
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-1", Group: "g", Transport: s, Applier: &fakeApplier{},
		Keyring: kr,
	})
	if err != nil {
		t.Fatalf("agent: %v", err)
	}
	if err := a.SyncOnce(); !errors.Is(err, sign.ErrUnsigned) {
		t.Fatalf("sync unsigned: %v, want ErrUnsigned", err)
	}
}

// TestAgentRejectsUnknownKey: bundles signed by a key the agent does not
// trust (e.g. after the agent rotated the old key out) are refused with
// ErrUnknownKey.
func TestAgentRejectsUnknownKey(t *testing.T) {
	signer, _ := testKeyring(t)
	s := newSignedServer(t, signer)

	_, otherVerifier := sign.NewHMAC("fleet-2027", []byte("ffffffffffffffffffffffffffffffff"))
	kr := sign.NewKeyring(otherVerifier)
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-1", Group: "g", Transport: s, Applier: &fakeApplier{},
		Keyring: kr,
	})
	if err != nil {
		t.Fatalf("agent: %v", err)
	}
	if err := a.SyncOnce(); !errors.Is(err, sign.ErrUnknownKey) {
		t.Fatalf("sync with unknown key: %v, want ErrUnknownKey", err)
	}
}

// TestAgentKeyRotation: adding the successor verifier before the server
// rotates keeps both generations verifiable; removing the retired key
// afterwards refuses anything still signed with it.
func TestAgentKeyRotation(t *testing.T) {
	oldSigner, kr := testKeyring(t)
	newSigner, newVerifier := sign.NewHMAC("fleet-2027", []byte("fedcba9876543210fedcba9876543210"))
	kr.Add(newVerifier)

	s := newSignedServer(t, oldSigner)
	applier := &fakeApplier{}
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-1", Group: "g", Transport: s, Applier: applier,
		Keyring: kr,
	})
	if err != nil {
		t.Fatalf("agent: %v", err)
	}
	if err := a.SyncOnce(); err != nil {
		t.Fatalf("sync under old key: %v", err)
	}

	// Server rotates; the next generation is signed by the successor.
	s2 := NewServer(WithBundleSigner(newSigner))
	if _, err := s2.Publish("g", testPolicyV2); err != nil {
		t.Fatalf("publish: %v", err)
	}
	a2, err := NewAgent(AgentConfig{
		Vehicle: "veh-1", Group: "g", Transport: s2, Applier: applier,
		Keyring: kr,
	})
	if err != nil {
		t.Fatalf("agent: %v", err)
	}
	if err := a2.SyncOnce(); err != nil {
		t.Fatalf("sync under new key: %v", err)
	}

	// Retire the old key: its bundles are now refused.
	kr.Remove(oldSigner.KeyID())
	a3, err := NewAgent(AgentConfig{
		Vehicle: "veh-2", Group: "g", Transport: s, Applier: &fakeApplier{},
		Keyring: kr,
	})
	if err != nil {
		t.Fatalf("agent: %v", err)
	}
	if err := a3.SyncOnce(); !errors.Is(err, sign.ErrUnknownKey) {
		t.Fatalf("sync under retired key: %v, want ErrUnknownKey", err)
	}
}

// TestSigRejectFallsBackToCachedBundle: a signature refusal is a failed
// attempt like any other — the vehicle keeps deciding on its cached
// bundle, and a round whose attempts all fail counts the fallback.
func TestSigRejectFallsBackToCachedBundle(t *testing.T) {
	signer, kr := testKeyring(t)
	s := newSignedServer(t, signer)
	tt := &tamperTransport{Transport: s}
	applier := &fakeApplier{}
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-1", Group: "g", Transport: tt, Applier: applier,
		Keyring: kr,
	}, WithAgentClock(resilience.NewAutoClock(time.Unix(0, 0))))
	if err != nil {
		t.Fatalf("agent: %v", err)
	}
	// First round applies the genuine generation 1.
	if err := a.Sync(context.Background()); err != nil {
		t.Fatalf("initial sync: %v", err)
	}
	if a.AppliedGeneration() != 1 {
		t.Fatalf("gen = %d", a.AppliedGeneration())
	}

	// Generation 2 arrives tampered: a single attempt is refused and
	// nothing new reaches the applier.
	if _, err := s.Publish("g", testPolicyV2); err != nil {
		t.Fatalf("publish v2: %v", err)
	}
	tt.tamper = true
	if err := a.SyncOnce(); !errors.Is(err, sign.ErrBadSignature) {
		t.Fatalf("tampered attempt: %v, want ErrBadSignature", err)
	}
	if a.AppliedGeneration() != 1 || applier.count() != 1 {
		t.Fatalf("tampered generation applied: gen=%d applies=%d", a.AppliedGeneration(), applier.count())
	}
	if a.Fallbacks() != 0 || a.SigRejects() != 1 {
		t.Fatalf("fallbacks=%d sigRejects=%d, want 0/1", a.Fallbacks(), a.SigRejects())
	}
	// A whole round of refusals degrades to the cached bundle instead
	// of failing (a persistent forgery never verifies on retry).
	if err := a.Sync(context.Background()); err != nil {
		t.Fatalf("tampered round should degrade, got %v", err)
	}
	if a.AppliedGeneration() != 1 || applier.count() != 1 {
		t.Fatalf("tampered generation applied: gen=%d applies=%d", a.AppliedGeneration(), applier.count())
	}
	if a.Fallbacks() != 1 || a.SigRejects() != 1+resilience.DefaultRetryAttempts {
		t.Fatalf("fallbacks=%d sigRejects=%d, want 1/%d", a.Fallbacks(), a.SigRejects(), 1+resilience.DefaultRetryAttempts)
	}

	// Honest transport again: the agent converges to generation 2.
	tt.tamper = false
	if err := a.Sync(context.Background()); err != nil {
		t.Fatalf("clean sync: %v", err)
	}
	if a.AppliedGeneration() != 2 {
		t.Fatalf("did not converge after tampering stopped: gen=%d", a.AppliedGeneration())
	}
}

// TestHTTPClientVerifiesSignature: the HTTP client enforces the keyring
// the same way the in-process transport does, end to end through the
// real handler.
func TestHTTPClientVerifiesSignature(t *testing.T) {
	signer, kr := testKeyring(t)
	s := newSignedServer(t, signer)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	c := &Client{Base: srv.URL, Keyring: kr}
	b, modified, err := c.FetchBundle("veh-1", "g", "", 0)
	if err != nil || !modified {
		t.Fatalf("fetch signed: modified=%v err=%v", modified, err)
	}
	if b.KeyID != signer.KeyID() {
		t.Fatalf("key id %q, want %q", b.KeyID, signer.KeyID())
	}

	// The same client against an unsigned control plane refuses.
	s2 := NewServer()
	if _, err := s2.Publish("g", testPolicy); err != nil {
		t.Fatalf("publish: %v", err)
	}
	srv2 := httptest.NewServer(Handler(s2))
	defer srv2.Close()
	c2 := &Client{Base: srv2.URL, Keyring: kr}
	if _, _, err := c2.FetchBundle("veh-1", "g", "", 0); !errors.Is(err, sign.ErrUnsigned) {
		t.Fatalf("fetch unsigned over HTTP: %v, want ErrUnsigned", err)
	}
	// And a keyring-less client still accepts legacy unsigned bundles.
	c3 := &Client{Base: srv2.URL}
	if _, _, err := c3.FetchBundle("veh-1", "g", "", 0); err != nil {
		t.Fatalf("legacy client: %v", err)
	}
}

// TestSignedBundleSurvivesRestart: signatures are part of the durable
// bundle record — after a WAL replay the served bundle still carries a
// verifiable signature (replay must not re-sign or strip it).
func TestSignedBundleSurvivesRestart(t *testing.T) {
	signer, kr := testKeyring(t)
	dir := t.TempDir()
	st := openStoreAt(t, dir)
	s, err := OpenServer(st, WithBundleSigner(signer))
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	if _, err := s.Publish("g", testPolicy); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := s.Store().Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	st.Crash()

	st2 := openStoreAt(t, dir)
	defer st2.Close()
	s2, err := OpenServer(st2, WithBundleSigner(signer))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	b, _, err := s2.FetchBundle("veh-1", "g", "", 0)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if err := kr.Verify(b.KeyID, b.SigAlg, b.SignedPayload(), b.SignatureBytes()); err != nil {
		t.Fatalf("replayed bundle fails verification: %v", err)
	}
}
