// Package core implements SACK, the situation-aware access control
// security module of the paper: the situation state machine (SSM) holding
// the current situation state as a new kernel security context, the
// adaptive policy enforcer (APE) that maps states to MAC rules per
// Algorithm 1, and the SACKfs pseudo-files used to deliver situation
// events from user space.
//
// Two deployment modes are provided, matching the paper's prototypes:
//
//   - Independent: SACK enforces its own per-state rule sets in its LSM
//     hooks. The active rule set is an atomic pointer swapped at
//     transition time, so checks never observe a half-updated policy.
//   - EnhancedAppArmor: SACK performs no checks of its own; instead it
//     rewrites the managed AppArmor profiles whenever the situation
//     state transitions, and AppArmor enforces as usual.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apparmor"
	"repro/internal/avc"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/ssm"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// ModuleName is the LSM registration name (first in CONFIG_LSM per §IV-D).
const ModuleName = "sack"

// Mode selects the deployment prototype.
type Mode int

// Deployment modes.
const (
	Independent Mode = iota
	EnhancedAppArmor
)

// String names the mode as the paper does.
func (m Mode) String() string {
	if m == EnhancedAppArmor {
		return "SACK-enhanced AppArmor"
	}
	return "independent SACK"
}

// Config assembles a SACK module.
type Config struct {
	Mode   Mode
	Policy *policy.Compiled
	Source string // original policy text, echoed back through SACKfs

	// Audit may be nil to disable audit records.
	Audit *lsm.AuditLog

	// AppArmor is the enforcement substrate for EnhancedAppArmor mode;
	// required there, ignored for Independent.
	AppArmor *apparmor.AppArmor

	// DisableAVC turns off the access vector cache (ablation
	// benchmarks); every check then runs the full Decide path.
	DisableAVC bool

	// Failsafe overrides the policy's declared failsafe state for the
	// event-pipeline watchdog ("" = use the policy's declaration).
	Failsafe string

	// HeartbeatWindow is how stale the SDS heartbeat may grow before the
	// pipeline degrades (0 = DefaultHeartbeatWindow).
	HeartbeatWindow time.Duration

	// HeartbeatSecret, when non-empty, requires every heartbeat control
	// line to carry a valid HMAC under this shared secret with a
	// strictly increasing sequence; forged or replayed heartbeats are
	// rejected and audited.
	HeartbeatSecret []byte
}

// SACK is the security module. It implements the lsm capability
// interfaces for the hooks it mediates (exec labelling, inode and file
// access); task, capability, getattr, open, and socket hooks are
// deliberately absent so the stack never consults SACK there.
type SACK struct {
	mode  Mode
	audit *lsm.AuditLog
	aa    *apparmor.AppArmor

	// cache memoises Decide results per (subject, path, mask); nil when
	// Config.DisableAVC. Its epoch advances inside publish, as part of
	// swapping in a new snapshot, so a stale decision can never be
	// served across a state change.
	cache *avc.Cache

	// mu serialises policy replacement and managed-profile changes.
	mu      sync.Mutex
	machine atomic.Pointer[ssm.Machine]

	// snap is the RCU-style decision snapshot: everything the check fast
	// path needs — compiled policy (coverage), MR_current, the situation
	// state it was derived from, and the AVC epoch it was published
	// under — behind one atomic pointer. Writers build a fresh snapshot
	// and swap it in publish (the single publication point); readers do
	// one load and never observe a half-updated policy. See DESIGN.md §9.
	snap atomic.Pointer[snapshot]

	// managed maps AppArmor profile names to their base (state-independent)
	// profiles for EnhancedAppArmor mode; guarded by managedMu (separate
	// from mu: profile regeneration runs inside applyState, which policy
	// installation calls while holding mu).
	managedMu sync.Mutex
	managed   map[string]*apparmor.Profile

	// Check-path counters are sharded (per-CPU-slot cells folded on
	// read) so concurrent checkers stop bouncing a shared cache line;
	// the event-path counters stay plain atomics — events are rare and
	// serialised by the SSM anyway.
	covered   shard.Counter // checks on policy-covered objects
	uncovered shard.Counter // checks passed through (coverage miss)
	denials   shard.Counter
	eventsIn  atomic.Uint64 // events received through SACKfs
	eventsHit atomic.Uint64 // events that caused a transition

	// break-glass audit trail (see breakglass.go).
	breakGlassSeq atomic.Uint64
	breakGlassMu  sync.Mutex
	breakGlassLog []BreakGlassRecord

	// pipe watches the SDS heartbeat and fails the SSM safe when the
	// event pipeline dies (see pipeline.go).
	pipe *Pipeline

	// reload transaction status (see reload.go). reloadGen counts
	// successful policy installs; reloadLast is the last committed
	// status, guarded by reloadMu so ReloadFile reads never take mu.
	reloadGen  atomic.Uint64
	reloadMu   sync.Mutex
	reloadLast ReloadStatus
}

// snapshot is one immutable published policy state. Fields are never
// mutated after the snapshot is stored; writers replace the whole thing.
type snapshot struct {
	compiled *policy.Compiled
	source   string          // original policy text, echoed through SACKfs
	rules    *policy.RuleSet // MR_current for the state below
	state    ssm.State       // situation state the rules were derived from
	epoch    avc.Token       // AVC generation this snapshot was published under

	// matcher is MR_current's trie-compiled decision engine, captured here
	// so the fast path selects it with the same single atomic load that
	// supplies the rules.
	matcher *policy.Matcher
}

// New builds the module, constructs the SSM from the policy's states and
// transition rules, and installs the initial state's rule set.
func New(cfg Config) (*SACK, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("sack: config needs a compiled policy")
	}
	if cfg.Mode == EnhancedAppArmor && cfg.AppArmor == nil {
		return nil, fmt.Errorf("sack: EnhancedAppArmor mode needs an AppArmor module")
	}
	s := &SACK{
		mode:      cfg.Mode,
		audit:     cfg.Audit,
		aa:        cfg.AppArmor,
		managed:   make(map[string]*apparmor.Profile),
		covered:   shard.NewCounter(),
		uncovered: shard.NewCounter(),
		denials:   shard.NewCounter(),
	}
	if !cfg.DisableAVC {
		s.cache = avc.New(0)
	}
	window := cfg.HeartbeatWindow
	if window == 0 {
		window = DefaultHeartbeatWindow
	}
	s.pipe = &Pipeline{s: s, window: window, failsafeOverride: cfg.Failsafe,
		hbSecret: append([]byte(nil), cfg.HeartbeatSecret...)}
	if err := s.installPolicy(cfg.Policy, cfg.Source); err != nil {
		return nil, err
	}
	if fs := s.pipe.Failsafe(); fs != "" {
		if _, ok := cfg.Policy.StateSets[fs]; !ok {
			return nil, fmt.Errorf("sack: failsafe state %q not declared by policy", fs)
		}
	}
	return s, nil
}

// Name implements lsm.Module.
func (s *SACK) Name() string { return ModuleName }

// Mode reports the deployment mode.
func (s *SACK) Mode() Mode { return s.mode }

// Machine exposes the live situation state machine.
func (s *SACK) Machine() *ssm.Machine { return s.machine.Load() }

// Policy returns the compiled policy currently installed.
func (s *SACK) Policy() *policy.Compiled { return s.snap.Load().compiled }

// CurrentState returns the current situation state.
func (s *SACK) CurrentState() ssm.State { return s.machine.Load().Current() }

// ActiveRules returns MR_current (independent mode introspection).
func (s *SACK) ActiveRules() *policy.RuleSet { return s.snap.Load().rules }

// Stats reports (permission checks, denials, events received, events
// that transitioned the SSM). checks counts every hook decision SACK
// made, covered and uncovered alike — the denominator AVC hit-rate math
// needs.
func (s *SACK) Stats() (checks, denials, eventsIn, eventsHit uint64) {
	checks = s.covered.Load() + s.uncovered.Load()
	return checks, s.denials.Load(), s.eventsIn.Load(), s.eventsHit.Load()
}

// CheckStats splits the check counter into policy-covered decisions and
// uncovered passthroughs.
func (s *SACK) CheckStats() (covered, uncovered uint64) {
	return s.covered.Load(), s.uncovered.Load()
}

// AVCStats snapshots the access vector cache counters. The zero Stats
// is returned when the cache is disabled.
func (s *SACK) AVCStats() avc.Stats {
	if s.cache == nil {
		return avc.Stats{}
	}
	return s.cache.Stats()
}

// installPolicy builds the boot-time SSM for the compiled policy and
// installs it. Construction only — replacement goes through the
// ReplacePolicy transaction (reload.go), which coordinates with the
// pipeline watchdog.
func (s *SACK) installPolicy(c *policy.Compiled, source string) error {
	states := make([]ssm.State, len(c.States))
	for i, st := range c.States {
		states[i] = ssm.State{Name: st.Name, Encoding: st.Encoding}
	}
	transitions := make([]ssm.Transition, len(c.Transitions))
	for i, t := range c.Transitions {
		transitions[i] = ssm.Transition{From: t.From, Event: ssm.Event(t.Event), To: t.To}
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	machine, err := ssm.New(ssm.Config{States: states, Initial: c.Initial, Transitions: transitions})
	if err != nil {
		return fmt.Errorf("sack: building SSM: %w", err)
	}
	s.subscribeAPE(machine)

	s.machine.Store(machine)
	s.publish(c, source, machine.Current())

	s.reloadGen.Store(1)
	s.setReloadStatus(ReloadStatus{
		Generation: 1,
		SourceHash: sourceHash(source),
		Summary:    "initial policy",
	})
	return nil
}

// subscribeAPE attaches the adaptive policy enforcer to a machine,
// guarded against reload races: a transition committed on a machine
// that a concurrent ReplacePolicy has already swapped out must not
// install rule sets derived from the outgoing policy's state names over
// the freshly committed ones.
func (s *SACK) subscribeAPE(machine *ssm.Machine) {
	machine.Subscribe(func(from, to ssm.State, ev ssm.Event) {
		if s.machine.Load() != machine {
			return
		}
		s.onTransition(from, to, ev)
	})
}

// Pipeline exposes the event-pipeline resilience monitor.
func (s *SACK) Pipeline() *Pipeline { return s.pipe }

// Deliver feeds a situation event to the SSM through the typed event
// path — the canonical sack.EventSink entry point. While the pipeline is
// pinned (degraded with a declared failsafe state) the event is rejected
// with ErrDegraded before it touches the accounting counters: an event
// arriving while detection is dead is stale or forged, and the SSM is
// held in the failsafe state until the heartbeat recovers. An event
// no transition rule reacts to is still delivered (and counted ignored,
// keeping eventsIn == transitions + ignored exact) but reported as
// ErrUnknownEvent so producers can catch typos.
func (s *SACK) Deliver(ev ssm.Event) error {
	if s.pipe.Pinned() {
		s.pipe.rejectedDegraded.Add(1)
		return ErrDegraded
	}
	m := s.machine.Load()
	known := m.KnowsEvent(ev)
	s.eventsIn.Add(1)
	if transitioned, _, _ := m.Deliver(ev); transitioned {
		s.eventsHit.Add(1)
	}
	if !known {
		s.pipe.unknownEvents.Add(1)
		return fmt.Errorf("%w: %q", ErrUnknownEvent, ev)
	}
	return nil
}

// onTransition is the APE entry point: re-derive P = f(SS) and
// MR = g(P) for the new state (Algorithm 1) and install it.
func (s *SACK) onTransition(from, to ssm.State, ev ssm.Event) {
	s.applyState(to)
	if s.audit != nil {
		s.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: "state_transition",
			Subject: string(ev), Object: to.Name, Action: "ALLOWED",
			Detail: fmt.Sprintf("from=%s to=%s", from.Name, to.Name),
		})
	}
}

// applyState re-publishes the current policy under a new situation
// state — the APE's g(P) step on a transition.
func (s *SACK) applyState(st ssm.State) {
	cur := s.snap.Load()
	s.publish(cur.compiled, cur.source, st)
}

// publish is the single publication point for policy state: it advances
// the AVC epoch, builds an immutable snapshot carrying that epoch, and
// swaps it in with one atomic store. The epoch bump and the snapshot
// swap therefore cannot be observed separately: a reader that loads the
// new snapshot probes the cache under the new generation, and a reader
// still holding the old snapshot keeps a self-consistent (rules, epoch)
// pair whose late inserts the cache drops. Writers (transitions,
// ReplacePolicy, failsafe forcing) serialise via s.mu or the SSM's own
// transition lock before reaching here.
func (s *SACK) publish(c *policy.Compiled, source string, st ssm.State) {
	rs := c.Rules(st.Name)
	if s.mode == EnhancedAppArmor {
		s.regenerateProfiles(c, st)
	}
	var epoch avc.Token
	if s.cache != nil {
		epoch = s.cache.Advance()
	}
	s.snap.Store(&snapshot{compiled: c, source: source, rules: rs, state: st,
		epoch: epoch, matcher: rs.Matcher()})
}

// --- independent-mode enforcement hooks ---

// blobSlot is SACK's security blob on every credential: the subject
// label, the executable path recorded at exec time.
var blobSlot = sys.NewBlobSlot()

// Subject returns the subject identity SACK rules match against: the
// label BprmCheck (or SetSubject) recorded on the credential.
func Subject(cred *sys.Cred) string {
	if cred == nil {
		return ""
	}
	return cred.Blob(blobSlot)
}

// SetSubject pins a SACK subject label on a credential directly, for
// tasks that were execed before the module booted (tests, emulators).
func SetSubject(cred *sys.Cred, exe string) { cred.SetBlob(blobSlot, exe) }

// BprmCheck records the task's executable path as its SACK subject label.
func (s *SACK) BprmCheck(cred *sys.Cred, path string, _ *vfs.Inode) error {
	SetSubject(cred, path)
	return nil
}

// check is the decision fast path: objects not covered by the policy pass
// through to the next LSM; covered objects must be allowed by MR_current.
// One atomic snapshot load supplies the coverage, the rule set, and the
// AVC epoch together, so everything the decision reads describes the
// same published policy state — no lock, and no window where a checker
// could pair an old rule set with a new cache generation.
//
// The order keeps a cached decision to one probe. A path whose first
// segment no pattern can match passes through at once. Any other path
// probes the AVC before the trie walk: only covered decisions are ever
// inserted, and coverage changes only with a new snapshot and so a new
// epoch, so a hit is a covered decision of this very snapshot. On a
// miss one walk of the policy's trie, resuming past the root step
// already taken, answers both whether SACK mediates the path at all
// and, if it does, MR_current's verdict; a covered one counts its AVC
// miss and is cached, a denial together with its audit detail, so a
// repeated denial in the same epoch skips both the evaluation and the
// formatting but still counts and audits as its own event. The detail
// itself comes from the rule set's memo, so even the first denial of
// an epoch formats nothing its state's rule set has rendered before.
func (s *SACK) check(cred *sys.Cred, op, path string, mask sys.Access) error {
	if s.mode == EnhancedAppArmor {
		return nil // enforcement happens in AppArmor
	}
	snap := s.snap.Load()
	root, may := snap.compiled.Coverage.Root(path)
	if !may {
		s.uncovered.Add(1)
		return nil
	}
	subject := Subject(cred)
	if s.cache != nil {
		if allowed, detail, ok := s.cache.LookupAt(snap.epoch, subject, path, mask); ok {
			s.covered.Add(1)
			if allowed {
				return nil
			}
			return s.deny(op, subject, path, detail)
		}
	}
	covered, allowed, rank := snap.matcher.EvaluateAt(root, subject, path, mask)
	if !covered {
		s.uncovered.Add(1)
		return nil
	}
	s.covered.Add(1)
	var detail string
	if !allowed && s.audit != nil {
		detail = snap.rules.Detail(rank, mask, denialDetail)
	}
	if s.cache != nil {
		s.cache.Miss()
		s.cache.Insert(snap.epoch, subject, path, mask, allowed, detail)
	}
	if allowed {
		return nil
	}
	return s.deny(op, subject, path, detail)
}

// denialDetail formats the audit detail of a denial: the deciding deny
// rule, or the absence of an allow rule, in the given state. It is the
// policy.DetailFunc of every state's rule set, which renders it once
// per (deciding rule, mask).
func denialDetail(mask sys.Access, matched *policy.CompiledRule, state string) string {
	if matched != nil {
		return "mask=" + mask.String() + " rule " + strconv.Quote(matched.String()) + " in state " + state
	}
	return "mask=" + mask.String() + " no allow rule in state " + state
}

// deny counts one denial and appends its audit record.
func (s *SACK) deny(op, subject, path, detail string) error {
	s.denials.Add(1)
	if s.audit != nil {
		s.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: op,
			Subject: subject, Object: path, Action: "DENIED",
			Detail: detail,
		})
	}
	return sys.EACCES
}

// InodePermission enforces path access in the current situation state.
func (s *SACK) InodePermission(cred *sys.Cred, path string, _ *vfs.Inode, mask sys.Access) error {
	return s.check(cred, "inode_permission", path, mask)
}

// InodeCreate gates creation under covered paths.
func (s *SACK) InodeCreate(cred *sys.Cred, _ *vfs.Inode, path string, _ vfs.Mode) error {
	return s.check(cred, "inode_create", path, sys.MayCreate)
}

// InodeUnlink gates removal of covered objects.
func (s *SACK) InodeUnlink(cred *sys.Cred, _ *vfs.Inode, path string, _ *vfs.Inode) error {
	return s.check(cred, "inode_unlink", path, sys.MayUnlink)
}

// FilePermission re-validates every read/write, so a situation transition
// applies to descriptors opened in an earlier state — the property the
// Fig. 3(b) experiment (speed-gated file) depends on.
func (s *SACK) FilePermission(cred *sys.Cred, f *vfs.File, mask sys.Access) error {
	if strings.HasPrefix(f.Path, "pipe:") || strings.HasPrefix(f.Path, "socket:") {
		return nil
	}
	return s.check(cred, "file_permission", f.Path, mask)
}

// FileIoctl gates device control — the hook behind CONTROL_CAR_DOORS.
func (s *SACK) FileIoctl(cred *sys.Cred, f *vfs.File, _ uint64) error {
	return s.check(cred, "file_ioctl", f.Path, sys.MayIoctl)
}

// MmapFile gates memory mapping of covered objects.
func (s *SACK) MmapFile(cred *sys.Cred, f *vfs.File, _ sys.Access) error {
	return s.check(cred, "mmap_file", f.Path, sys.MayMmap)
}
