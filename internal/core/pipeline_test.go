package core_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/policy"
	"repro/internal/sys"
)

// failsafePolicy extends the case policy with a lockdown failsafe state.
const failsafePolicy = `
states {
  normal = 0
  emergency = 1
  lockdown = 2
}

initial normal
failsafe lockdown

permissions {
  NORMAL
  CONTROL_CAR_DOORS
  LOCKED
}

state_per {
  normal:    NORMAL
  emergency: NORMAL, CONTROL_CAR_DOORS
  lockdown:  LOCKED
}

per_rules {
  NORMAL {
    allow read /etc/**
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door*
  }
  LOCKED {
    allow read /etc/hostname
  }
}

transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
  lockdown -> normal on all_clear
}
`

func beat(seq uint64, at time.Time) core.Heartbeat {
	return core.Heartbeat{Seq: seq, At: at, Cap: 64}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	h := core.Heartbeat{
		Seq: 7, At: time.Unix(0, 1234567890), Queue: 3, Cap: 64,
		Retries: 2, Drops: 1, Dark: []string{"speed", "gps"},
	}
	line := h.String()
	if !strings.HasPrefix(line, core.HeartbeatPrefix+" ") {
		t.Fatalf("heartbeat line %q", line)
	}
	got, err := core.ParseHeartbeat(line)
	if err != nil {
		t.Fatalf("ParseHeartbeat(%q): %v", line, err)
	}
	if got.Seq != h.Seq || !got.At.Equal(h.At) || got.Queue != 3 || got.Cap != 64 ||
		got.Retries != 2 || got.Drops != 1 || len(got.Dark) != 2 || got.Dark[1] != "gps" {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
	if _, err := core.ParseHeartbeat("!heartbeat seq=x"); err == nil {
		t.Fatal("malformed seq parsed")
	}
	if _, err := core.ParseHeartbeat("not a heartbeat"); err == nil {
		t.Fatal("non-heartbeat parsed")
	}
}

func TestWatchdogUnarmedNeverDegrades(t *testing.T) {
	_, s := bootIndependent(t, failsafePolicy)
	p := s.Pipeline()
	// Years of silence before the first heartbeat: still healthy, because
	// deployments without an SDS must keep the pre-resilience behavior.
	if p.Check(time.Unix(1e9, 0)) {
		t.Fatal("unarmed watchdog degraded")
	}
	if err := s.Deliver("crash_detected"); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if st := s.CurrentState().Name; st != "emergency" {
		t.Fatalf("state = %s", st)
	}
}

func TestHeartbeatLapseDegradesToFailsafe(t *testing.T) {
	k, s := bootIndependent(t, failsafePolicy)
	p := s.Pipeline()
	t0 := time.Unix(1000, 0)

	if err := s.Deliver("crash_detected"); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	p.Observe(beat(1, t0))
	if p.Check(t0.Add(p.Window())) {
		t.Fatal("degraded inside the window")
	}
	if !p.Check(t0.Add(p.Window() + time.Nanosecond)) {
		t.Fatal("watchdog missed the heartbeat lapse")
	}
	if !p.Degraded() || !p.Pinned() {
		t.Fatalf("degraded=%v pinned=%v", p.Degraded(), p.Pinned())
	}
	if st := s.CurrentState().Name; st != "lockdown" {
		t.Fatalf("failsafe state = %s", st)
	}
	if p.Reason() != "heartbeat_lapse" {
		t.Fatalf("reason = %q", p.Reason())
	}

	// Pinned: delivery is rejected, and accounting is untouched.
	_, _, inBefore, _ := s.Stats()
	if err := s.Deliver("all_clear"); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("Deliver while pinned: %v", err)
	}
	if _, _, inAfter, _ := s.Stats(); inAfter != inBefore {
		t.Fatal("pinned rejections leaked into events_received")
	}
	if st := p.Stats(); st.RejectedDegraded != 1 || st.Degradations != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// The pipeline securityfs file reports the degradation.
	task := k.Init()
	data, err := task.ReadFileAll(core.PipelineFile)
	if err != nil {
		t.Fatalf("read %s: %v", core.PipelineFile, err)
	}
	for _, want := range []string{"degraded: true", "pinned: true", "reason: heartbeat_lapse", "failsafe_state: lockdown"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("pipeline file missing %q:\n%s", want, data)
		}
	}

	// Recovery: a fresh, clean heartbeat restores the remembered state.
	p.Observe(beat(2, t0.Add(2*p.Window())))
	if p.Degraded() || p.Pinned() {
		t.Fatal("fresh heartbeat did not recover")
	}
	if st := s.CurrentState().Name; st != "emergency" {
		t.Fatalf("restored state = %s", st)
	}
	if st := p.Stats(); st.Recoveries != 1 {
		t.Fatalf("recoveries = %d", st.Recoveries)
	}
	if err := s.Deliver("all_clear"); err != nil {
		t.Fatalf("Deliver after recovery: %v", err)
	}
	if st := s.CurrentState().Name; st != "normal" {
		t.Fatalf("state after recovery = %s", st)
	}
}

func TestSensorDropoutDegrades(t *testing.T) {
	_, s := bootIndependent(t, failsafePolicy)
	p := s.Pipeline()
	t0 := time.Unix(2000, 0)

	h := beat(1, t0)
	h.Dark = []string{"speed"}
	p.Observe(h)
	if !p.Degraded() {
		t.Fatal("dark sensor did not degrade")
	}
	if want := "sensor_dropout:speed"; p.Reason() != want {
		t.Fatalf("reason = %q", p.Reason())
	}
	if st := s.CurrentState().Name; st != "lockdown" {
		t.Fatalf("state = %s", st)
	}
	p.Observe(beat(2, t0.Add(time.Second)))
	if p.Degraded() {
		t.Fatal("clean heartbeat did not recover")
	}
	if st := s.CurrentState().Name; st != "normal" {
		t.Fatalf("restored state = %s", st)
	}
}

func TestDegradeWithoutFailsafeIsObservational(t *testing.T) {
	_, s := bootIndependent(t, casePolicy) // no failsafe declaration
	p := s.Pipeline()
	t0 := time.Unix(3000, 0)
	p.Observe(beat(1, t0))
	if !p.Check(t0.Add(p.Window() + time.Second)) {
		t.Fatal("no degradation")
	}
	if p.Pinned() {
		t.Fatal("pinned without a failsafe state")
	}
	// Events keep flowing; only the health view changed.
	if err := s.Deliver("crash_detected"); err != nil {
		t.Fatalf("Deliver while observationally degraded: %v", err)
	}
	if st := s.CurrentState().Name; st != "emergency" {
		t.Fatalf("state = %s", st)
	}
}

func TestConfigFailsafeOverridesPolicy(t *testing.T) {
	k, s := bootIndependent(t, failsafePolicy)
	_ = k
	if fs := s.Pipeline().Failsafe(); fs != "lockdown" {
		t.Fatalf("policy failsafe = %q", fs)
	}
	// An explicit Config.Failsafe that no state declares is a boot error.
	if _, err := core.New(core.Config{Policy: s.Policy(), Failsafe: "bunker"}); err == nil {
		t.Fatal("undeclared Config.Failsafe accepted")
	}
}

func TestUnknownEventTypedError(t *testing.T) {
	_, s := bootIndependent(t, failsafePolicy)
	err := s.Deliver("warp_drive_engaged")
	if !errors.Is(err, core.ErrUnknownEvent) {
		t.Fatalf("Deliver(unknown): %v", err)
	}
	// The unknown event still reached the SSM as an ignored delivery:
	// counted in, never a hit.
	if _, _, eventsIn, eventsHit := s.Stats(); eventsIn != 1 || eventsHit != 0 {
		t.Fatalf("accounting broken: in=%d hit=%d, want 1 ignored delivery", eventsIn, eventsHit)
	}
	if st := s.Pipeline().Stats(); st.UnknownEvents != 1 {
		t.Fatalf("unknown_events = %d", st.UnknownEvents)
	}
}

func TestHeartbeatViaEventsFile(t *testing.T) {
	k, s := bootIndependent(t, failsafePolicy)
	task := k.Init()
	h := core.Heartbeat{Seq: 3, At: time.Unix(4000, 0), Queue: 1, Cap: 8, Retries: 5, Drops: 2}
	line := h.String() + "\ncrash_detected\n"
	if err := task.WriteFileAll(core.EventsFile, []byte(line), 0); err != nil {
		t.Fatalf("write events file: %v", err)
	}
	st := s.Pipeline().Stats()
	if !st.Armed || st.HeartbeatSeq != 3 || st.QueueDepth != 1 || st.SDSRetries != 5 || st.SDSDrops != 2 {
		t.Fatalf("heartbeat not observed: %+v", st)
	}
	if cur := s.CurrentState().Name; cur != "emergency" {
		t.Fatalf("event line after control line not delivered: state=%s", cur)
	}
	// A corrupted heartbeat must not masquerade as a healthy one.
	if err := task.WriteFileAll(core.EventsFile, []byte("!heartbeat seq=zzz\n"), 0); !sys.IsErrno(err, sys.EINVAL) {
		t.Fatalf("corrupt heartbeat: %v", err)
	}
	// Unknown control verbs are ignored for forward compatibility.
	if err := task.WriteFileAll(core.EventsFile, []byte("!future_verb x=1\n"), 0); err != nil {
		t.Fatalf("unknown control verb: %v", err)
	}
}

// noFailsafePolicy is failsafePolicy with the failsafe declaration
// removed: same states, same transitions.
const noFailsafePolicy = `
states {
  normal = 0
  emergency = 1
  lockdown = 2
}

initial normal

permissions {
  NORMAL
  LOCKED
}

state_per {
  normal:    NORMAL
  emergency: NORMAL
  lockdown:  LOCKED
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
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
  lockdown -> normal on all_clear
}
`

// droppedStatePolicy removes the emergency state entirely (and keeps
// the lockdown failsafe), so a reload while the vehicle is logically in
// emergency must remap to the new initial state.
const droppedStatePolicy = `
states {
  normal = 0
  lockdown = 2
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
  normal -> lockdown on threat_detected
  lockdown -> normal on all_clear
}
`

// reloadSrc loads and applies a policy through the transaction,
// failing the test on any rejection.
func reloadSrc(t *testing.T, s *core.SACK, src string) {
	t.Helper()
	compiled, vr, err := policy.Load(src)
	if err != nil {
		t.Fatalf("policy.Load: %v", err)
	}
	if !vr.OK() {
		t.Fatalf("policy errors: %v", vr.Errors())
	}
	if _, err := s.ReplacePolicy(compiled, src); err != nil {
		t.Fatalf("ReplacePolicy: %v", err)
	}
}

// auditOps collects the Op fields of all audit records.
func auditOps(k *kernel.Kernel) map[string]int {
	out := map[string]int{}
	for _, r := range k.Audit.Records() {
		out[r.Op]++
	}
	return out
}

func TestReloadWhilePinnedPreservesLogicalState(t *testing.T) {
	// Bug (1): a reload while pinned must carry the *pre-degradation*
	// state across the swap, not the failsafe the machine is parked in —
	// otherwise recovery restores the failsafe and the vehicle is stuck
	// there forever.
	_, s := bootIndependent(t, failsafePolicy)
	p := s.Pipeline()
	t0 := time.Unix(5000, 0)

	if err := s.Deliver("crash_detected"); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	p.Observe(beat(1, t0))
	p.Check(t0.Add(p.Window() + time.Second))
	if !p.Pinned() || s.CurrentState().Name != "lockdown" {
		t.Fatalf("setup: pinned=%v state=%s", p.Pinned(), s.CurrentState().Name)
	}

	// Reload the same policy text mid-pin.
	reloadSrc(t, s, failsafePolicy)
	if !p.Pinned() {
		t.Fatal("reload dropped the pin with the failsafe still declared")
	}
	if st := s.CurrentState().Name; st != "lockdown" {
		t.Fatalf("pinned state after reload = %s", st)
	}

	// Recovery must land back in emergency, never stay in lockdown.
	p.Observe(beat(2, t0.Add(3*p.Window())))
	if p.Degraded() || p.Pinned() {
		t.Fatal("clean heartbeat did not recover")
	}
	if st := s.CurrentState().Name; st != "emergency" {
		t.Fatalf("recovered state = %s, want emergency (wedged in failsafe?)", st)
	}
	if err := s.Deliver("all_clear"); err != nil {
		t.Fatalf("Deliver after recovery: %v", err)
	}
	if st := s.CurrentState().Name; st != "normal" {
		t.Fatalf("state = %s", st)
	}
}

func TestReloadAddsFailsafeMidDegradationPins(t *testing.T) {
	// Bug (2a): degradation that started without a failsafe is
	// observational; a reload that *adds* a failsafe must pin there and
	// then, while detection is still dead, stop event delivery.
	_, s := bootIndependent(t, noFailsafePolicy)
	p := s.Pipeline()
	t0 := time.Unix(6000, 0)

	if err := s.Deliver("crash_detected"); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	p.Observe(beat(1, t0))
	p.Check(t0.Add(p.Window() + time.Second))
	if !p.Degraded() || p.Pinned() {
		t.Fatalf("setup: degraded=%v pinned=%v", p.Degraded(), p.Pinned())
	}

	reloadSrc(t, s, failsafePolicy)
	if !p.Pinned() {
		t.Fatal("failsafe added mid-degradation did not pin")
	}
	if st := s.CurrentState().Name; st != "lockdown" {
		t.Fatalf("state after pinning reload = %s", st)
	}
	if err := s.Deliver("all_clear"); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("delivery while newly pinned: %v", err)
	}

	// Recovery restores the state captured at pin time.
	p.Observe(beat(2, t0.Add(3*p.Window())))
	if st := s.CurrentState().Name; st != "emergency" {
		t.Fatalf("recovered state = %s", st)
	}
}

func TestReloadRemovesFailsafeMidPinUnpins(t *testing.T) {
	// Bug (2b): a reload that removes the failsafe mid-pin must unpin,
	// resume the logical state, and leave an audit trail.
	k, s := bootIndependent(t, failsafePolicy)
	p := s.Pipeline()
	t0 := time.Unix(7000, 0)

	if err := s.Deliver("crash_detected"); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	p.Observe(beat(1, t0))
	p.Check(t0.Add(p.Window() + time.Second))
	if !p.Pinned() {
		t.Fatal("setup: not pinned")
	}

	reloadSrc(t, s, noFailsafePolicy)
	if p.Pinned() {
		t.Fatal("failsafe removed mid-pin did not unpin")
	}
	if !p.Degraded() {
		t.Fatal("unpinning must not fake a recovery")
	}
	if st := s.CurrentState().Name; st != "emergency" {
		t.Fatalf("state after unpinning reload = %s, want logical state resumed", st)
	}
	// Events flow again (observational degradation only).
	if err := s.Deliver("all_clear"); err != nil {
		t.Fatalf("delivery after unpin: %v", err)
	}
	if st := s.CurrentState().Name; st != "normal" {
		t.Fatalf("state = %s", st)
	}
	if ops := auditOps(k); ops["policy_reload_unpin"] != 1 || ops["policy_reload"] != 1 {
		t.Fatalf("audit ops = %v", ops)
	}
}

func TestReloadDropsPrevStateRecoversToNewInitial(t *testing.T) {
	// A reload that removes the pre-degradation state remaps prevState
	// to the new initial, audits it, and recovery lands there.
	k, s := bootIndependent(t, failsafePolicy)
	p := s.Pipeline()
	t0 := time.Unix(8000, 0)

	if err := s.Deliver("crash_detected"); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	p.Observe(beat(1, t0))
	p.Check(t0.Add(p.Window() + time.Second))
	if !p.Pinned() || s.CurrentState().Name != "lockdown" {
		t.Fatalf("setup: pinned=%v state=%s", p.Pinned(), s.CurrentState().Name)
	}

	reloadSrc(t, s, droppedStatePolicy) // emergency no longer exists
	if !p.Pinned() || s.CurrentState().Name != "lockdown" {
		t.Fatalf("after reload: pinned=%v state=%s", p.Pinned(), s.CurrentState().Name)
	}
	if ops := auditOps(k); ops["policy_reload_remap"] != 1 {
		t.Fatalf("audit ops = %v", ops)
	}

	p.Observe(beat(2, t0.Add(3*p.Window())))
	if p.Degraded() {
		t.Fatal("did not recover")
	}
	if st := s.CurrentState().Name; st != "normal" {
		t.Fatalf("recovered state = %s, want new initial", st)
	}
	st := s.ReloadStatus()
	if st.Generation != 2 || len(st.Remaps) == 0 {
		t.Fatalf("reload status = %+v", st)
	}
}

func TestReloadRejectedWhenOverrideFailsafeDropped(t *testing.T) {
	// A Config.Failsafe override names a state the new policy dropped:
	// the transaction must reject and leave everything untouched.
	compiled, _, err := policy.Load(failsafePolicy)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(core.Config{Policy: compiled, Source: failsafePolicy, Failsafe: "emergency"})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	newC, _, err := policy.Load(droppedStatePolicy) // no emergency state
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReplacePolicy(newC, droppedStatePolicy); err == nil {
		t.Fatal("reload with dropped override failsafe accepted")
	}
	if got := s.Policy(); got != compiled {
		t.Fatal("rejected reload mutated the installed policy")
	}
	if st := s.ReloadStatus(); st.Generation != 1 {
		t.Fatalf("rejected reload bumped generation to %d", st.Generation)
	}
}

func TestPipelineFileWorldReadable(t *testing.T) {
	k, _ := bootIndependent(t, failsafePolicy)
	user, err := k.Init().Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if err := user.SetUID(1000, 1000); err != nil {
		t.Fatalf("SetUID: %v", err)
	}
	data, err := user.ReadFileAll(core.PipelineFile)
	if err != nil {
		t.Fatalf("unprivileged pipeline read: %v", err)
	}
	if !strings.Contains(string(data), "heartbeat_window_ms: ") {
		t.Fatalf("pipeline view:\n%s", data)
	}
}
