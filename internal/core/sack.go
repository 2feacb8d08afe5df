// Package core implements SACK, the situation-aware access control
// security module of the paper: the situation state machine (SSM) holding
// the current situation state as a new kernel security context, the
// adaptive policy enforcer (APE) that maps states to MAC rules per
// Algorithm 1, and the SACKfs pseudo-files used to deliver situation
// events from user space. The SSM and the APE are one step here: the
// published decision snapshot carries the current state, and a
// transition is one lookup in the compiled policy's transition index
// plus one publish under the module's writer lock.
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

	"repro/internal/apparmor"
	"repro/internal/avc"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/shard"
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
	// benchmarks); every check then runs the full Decide path. Only
	// Independent mode has the cache.
	DisableAVC bool

	// Failsafe overrides the policy's declared failsafe state for the
	// event-pipeline watchdog ("" = use the policy's declaration).
	Failsafe string

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
	// Config.DisableAVC, and in EnhancedAppArmor mode, where check never
	// decides and AppArmor's own cache fronts enforcement. Its epoch
	// advances inside publish, as part of swapping in a new snapshot, so
	// a stale decision can never be served across a state change.
	cache *avc.Cache

	// mu is the one writer lock of the situation state. Every writer —
	// event delivery, pipeline degradation and recovery, break-glass and
	// its revert, SACKfs state writes, managed-profile changes, policy
	// replacement — holds it and ends in publish, so the published
	// snapshot is the only current state. It also guards managed, the
	// break-glass log and the pipeline monitor's state. A method that
	// takes mu is never called with mu held.
	mu sync.Mutex

	// snap is the RCU-style decision snapshot: everything the check fast
	// path needs — compiled policy (coverage), MR_current, the current
	// situation state it was derived from, and the AVC epoch it was
	// published under — behind one atomic pointer. Writers build a fresh
	// snapshot and swap it in publish (the single publication point);
	// readers do one load and never observe a half-updated policy. See
	// DESIGN.md §9.
	snap atomic.Pointer[snapshot]

	// managed maps AppArmor profile names to their base (state-independent)
	// profiles for EnhancedAppArmor mode; guarded by mu.
	managed map[string]*apparmor.Profile

	// Check-path counters are sharded (per-CPU-slot cells folded on
	// read) so concurrent checkers stop bouncing a shared cache line;
	// the event-path counters stay plain atomics — events are rare and
	// serialised by mu anyway.
	covered   shard.Counter // checks on policy-covered objects
	uncovered shard.Counter // checks passed through (coverage miss)
	denials   shard.Counter
	eventsIn  atomic.Uint64 // events received through SACKfs
	eventsHit atomic.Uint64 // events that caused a transition
	forced    atomic.Uint64 // moves that bypassed the transition rules

	// break-glass audit trail (see breakglass.go); guarded by mu.
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
	source   string           // original policy text, echoed through SACKfs
	rules    *policy.RuleSet  // MR_current for the state below
	state    policy.StateInfo // the current situation state
	epoch    avc.Token        // AVC generation this snapshot was published under

	// matcher is MR_current's trie-compiled decision engine, captured here
	// so the fast path selects it with the same single atomic load that
	// supplies the rules.
	matcher *policy.Matcher
}

// New builds the module and publishes the policy in its initial state.
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
	if cfg.Mode == Independent && !cfg.DisableAVC {
		s.cache = avc.New(0)
	}
	s.pipe = &Pipeline{s: s, failsafeOverride: cfg.Failsafe,
		hbSecret: append([]byte(nil), cfg.HeartbeatSecret...)}
	s.installPolicy(cfg.Policy, cfg.Source)
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

// Policy returns the compiled policy currently installed.
func (s *SACK) Policy() *policy.Compiled { return s.snap.Load().compiled }

// CurrentState returns the current situation state.
func (s *SACK) CurrentState() policy.StateInfo { return s.snap.Load().state }

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

// Forced reports how many state moves bypassed the transition rules:
// break-glass and its revert, SACKfs state writes, failsafe pinning and
// recovery. Every committed move is an event hit or a forced one.
func (s *SACK) Forced() uint64 { return s.forced.Load() }

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

// installPolicy publishes the boot-time policy in its initial state.
// Replacement goes through the ReplacePolicy transaction (reload.go),
// which coordinates with the pipeline watchdog.
func (s *SACK) installPolicy(c *policy.Compiled, source string) {
	initial, _ := c.State(c.Initial)
	s.mu.Lock()
	s.publish(c, source, initial)
	s.mu.Unlock()

	s.reloadGen.Store(1)
	s.setReloadStatus(ReloadStatus{
		Generation: 1,
		SourceHash: sourceHash(source),
		Summary:    "initial policy",
	})
}

// Pipeline exposes the event-pipeline resilience monitor.
func (s *SACK) Pipeline() *Pipeline { return s.pipe }

// Deliver feeds a situation event to the SSM through the typed event
// path — the canonical sack.EventSink entry point — and runs Algorithm
// 1 under mu: if (current state, event) matches a transition rule, the
// target state is published with its rule set; otherwise the event is
// counted and ignored. While the pipeline is pinned (degraded with a
// declared failsafe state) the event is rejected with ErrDegraded
// before it touches the accounting counters: an event arriving while
// detection is dead is stale or forged, and the SSM is held in the
// failsafe state until the heartbeat recovers. An event no transition
// rule reacts to is still delivered (and counted ignored, keeping
// eventsIn == eventsHit + ignored exact) but reported as
// ErrUnknownEvent so producers can catch typos.
func (s *SACK) Deliver(ev policy.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pipe.Pinned() {
		s.pipe.rejectedDegraded.Add(1)
		return ErrDegraded
	}
	s.eventsIn.Add(1)
	cur := s.snap.Load()
	if to, ok := cur.compiled.Next(cur.state.Name, ev); ok {
		s.eventsHit.Add(1)
		s.moveLocked(to, string(ev))
	}
	if !cur.compiled.KnowsEvent(ev) {
		s.pipe.unknownEvents.Add(1)
		return fmt.Errorf("%w: %q", ErrUnknownEvent, ev)
	}
	return nil
}

// moveLocked is the APE step of Algorithm 1: it publishes the live
// policy under the new state — P = f(SS), MR = g(P) — and audits the
// move, caused by an event or by force_state. Caller holds mu.
func (s *SACK) moveLocked(to policy.StateInfo, cause string) {
	cur := s.snap.Load()
	s.publish(cur.compiled, cur.source, to)
	if s.audit != nil {
		s.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: "state_transition",
			Subject: cause, Object: to.Name, Action: "ALLOWED",
			Detail: fmt.Sprintf("from=%s to=%s", cur.state.Name, to.Name),
		})
	}
}

// forceLocked moves to a state of the live policy directly, bypassing
// the transition rules: break-glass, SACKfs state writes, failsafe
// pinning and recovery. A state the policy does not declare is EINVAL.
// Caller holds mu.
func (s *SACK) forceLocked(name string) error {
	to, ok := s.snap.Load().compiled.State(name)
	if !ok {
		return sys.EINVAL
	}
	s.forced.Add(1)
	s.moveLocked(to, "force_state")
	return nil
}

// publish is the single publication point for policy state: it advances
// the AVC epoch, builds an immutable snapshot carrying that epoch, and
// swaps it in with one atomic store. The epoch bump and the snapshot
// swap therefore cannot be observed separately: a reader that loads the
// new snapshot probes the cache under the new generation, and a reader
// still holding the old snapshot keeps a self-consistent (rules, epoch)
// pair whose late inserts the cache drops. Caller holds mu, and st is
// a state c declares.
func (s *SACK) publish(c *policy.Compiled, source string, st policy.StateInfo) {
	rs := c.StateSets[st.Name]
	if s.mode == EnhancedAppArmor {
		s.regenerateProfiles(rs)
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
// and, if it does, MR_current's verdict; a covered one is handed to the
// AVC's Admit with the hash the probe computed, which counts the miss
// and caches an allow at once and a denial, with its audit detail, on
// its second miss in the epoch. A repeated denial then skips both the
// evaluation and the formatting but still counts and audits as its own
// event. The detail itself comes from the rule set's memo, so even an
// uncached denial formats nothing its state's rule set has rendered
// before.
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
	var h uint64
	if s.cache != nil {
		allowed, detail, ok, hash := s.cache.LookupAt(snap.epoch, subject, path, mask)
		if ok {
			s.covered.Add(1)
			if allowed {
				return nil
			}
			return s.deny(op, subject, path, detail)
		}
		h = hash
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
		s.cache.Admit(snap.epoch, h, subject, path, mask, allowed, detail)
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
