// Package sack is the public API of the SACK reproduction: a
// situation-aware access control framework for connected and autonomous
// vehicles (CAVs) in the style of a Linux security module, running on a
// simulated kernel substrate.
//
// The package assembles the full stack of the paper:
//
//   - a simulated Linux kernel (tasks, syscalls, VFS, securityfs) with an
//     LSM hook chain at the same mediation points as the real kernel;
//   - the SACK security module: situation states as a security context, a
//     situation state machine (SSM) driven by situation events, and an
//     adaptive policy enforcer implementing the paper's Algorithm 1;
//   - an AppArmor-like path MAC module, usable standalone (baseline) or
//     as the substrate SACK-enhanced mode rewrites;
//   - a vehicle (CAN bus, door/window/audio devices), an IVI emulator
//     with a bypassable user-space permission framework, and a situation
//     detection service (SDS) feeding events through SACKfs.
//
// Quick start:
//
//	sys, err := sack.New(myPolicy)
//	task := sys.Kernel.Init()
//	err = sys.Events().DeliverEvent("crash_detected") // situation transition
//	fd, err := task.Open("/dev/vehicle/door0", sack.ORdwr, 0)
//
// Deployments that need more than the defaults compose options:
//
//	sys, err := sack.New(myPolicy,
//	    sack.WithMode(sack.EnhancedAppArmor),
//	    sack.WithAppArmorProfiles(myProfiles),
//	)
package sack

import (
	"fmt"
	"strings"

	"repro/internal/apparmor"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/sys"
	"repro/internal/vehicle"
	"repro/internal/verify"
	"repro/internal/vfs"
)

// Re-exported types. These alias the internal implementation so the
// whole system is reachable from one import.
type (
	// Kernel is the simulated Linux kernel.
	Kernel = kernel.Kernel
	// Task is a simulated process; all syscalls are methods on it.
	Task = kernel.Task
	// Module is the SACK security module.
	Module = core.SACK
	// AppArmor is the simulated AppArmor security module.
	AppArmor = apparmor.AppArmor
	// Profile is an AppArmor confinement profile.
	Profile = apparmor.Profile
	// Vehicle is the simulated CAV hardware.
	Vehicle = vehicle.Vehicle
	// State is a situation state.
	State = policy.StateInfo
	// Event is a situation event name.
	Event = policy.Event
	// CompiledPolicy is an enforcement-ready SACK policy.
	CompiledPolicy = policy.Compiled
	// ValidationResult carries policy-checker findings.
	ValidationResult = policy.ValidationResult
	// DiffReport is the change list a policy reload applied.
	DiffReport = policy.DiffReport
	// ReloadStatus is a snapshot of the policy reload transaction state
	// (generation, source hash, applied diff, remap events).
	ReloadStatus = core.ReloadStatus
	// Decision is the fully explained result of one access query: the
	// verdict plus coverage, cache, failsafe-pinning, the deciding rule,
	// and the situation state it was evaluated under.
	Decision = core.Decision
	// Access is an access mask (the kernel's MAY_* bits); combine with
	// bitwise or. Returned rules and decision queries speak this type.
	Access = sys.Access
	// Cred is a task credential.
	Cred = sys.Cred
	// Errno is a simulated kernel error number.
	Errno = sys.Errno
	// OpenFlags are open(2) flags.
	OpenFlags = vfs.OpenFlags
	// FileMode carries type and permission bits.
	FileMode = vfs.Mode
	// AuditLog is the shared audit record ring.
	AuditLog = lsm.AuditLog
	// SDS is the user-space situation detection service.
	SDS = sds.Service
	// Detector is an SDS situation detector.
	Detector = sds.Detector
	// SDSOption tunes the SDS resilience features (queue capacity,
	// backoff, heartbeat and its signing secret, jitter seed).
	SDSOption = sds.ServiceOption
	// FaultPlan is a deterministic fault-injection schedule.
	FaultPlan = faults.Plan
	// FaultRule schedules one fault against one injection target.
	FaultRule = faults.Rule
	// FaultInjector executes a FaultPlan; wrappers consult it at each
	// injection point.
	FaultInjector = faults.Injector
	// CANFrame is one CAN 2.0 data frame on the vehicle bus.
	CANFrame = vehicle.Frame
	// PipelineStats is a snapshot of the event-pipeline health monitor.
	PipelineStats = core.PipelineStats
	// Heartbeat is one SDS health report as seen on the event channel.
	Heartbeat = core.Heartbeat
	// Bundle is one versioned, checksummed fleet policy revision.
	Bundle = policy.Bundle
	// FleetServer is the fleet control plane: bundle registry, vehicle
	// state, decision-log ingestion. It implements FleetTransport
	// directly (the in-process transport).
	FleetServer = fleet.Server
	// FleetAgent is the vehicle-side fleet client.
	FleetAgent = fleet.Agent
	// FleetAgentConfig wires a FleetAgent (vehicle id, group, transport).
	FleetAgentConfig = fleet.AgentConfig
	// FleetTransport is the agent's view of the control plane (in-process
	// server, HTTP client, or fault-injecting wrapper).
	FleetTransport = fleet.Transport
	// FleetClient speaks the fleetd HTTP protocol; implements FleetTransport.
	FleetClient = fleet.Client
	// FleetStats is the server's aggregate fleet view.
	FleetStats = fleet.FleetStats
	// FleetVehicleStatus is one agent → server status report.
	FleetVehicleStatus = fleet.VehicleStatus
	// FleetAgentOption customises the fleet agent beyond its config:
	// fleet.WithAgentClock sets the clock its Run loop, retry backoff
	// and breaker cooldown run on.
	FleetAgentOption = fleet.AgentOption
	// InvariantSet is a parsed set of policy invariants (see
	// ParseInvariants for the grammar).
	InvariantSet = verify.Set
	// VerifyReport is the verifier's verdict over one policy: totals plus
	// every violation with its witness trace.
	VerifyReport = verify.Report
	// VerifyViolation is one disproved invariant: the state, the event
	// trace reaching it, the concrete access witness, and the deciding
	// rule.
	VerifyViolation = verify.Violation
)

// Deployment modes (the paper's two prototypes).
const (
	// Independent runs SACK with its own access control policies.
	Independent = core.Independent
	// EnhancedAppArmor has SACK rewrite AppArmor profiles on transitions.
	EnhancedAppArmor = core.EnhancedAppArmor
)

// Re-exported open flags.
const (
	ORdonly = vfs.ORdonly
	OWronly = vfs.OWronly
	ORdwr   = vfs.ORdwr
	OCreat  = vfs.OCreat
	OExcl   = vfs.OExcl
	OTrunc  = vfs.OTrunc
	OAppend = vfs.OAppend
)

// Common errnos.
const (
	EACCES = sys.EACCES
	EPERM  = sys.EPERM
	ENOENT = sys.ENOENT
)

// Access bits for decision queries (System.Check). These mirror the
// operation names policy rules use.
const (
	MayExec   = sys.MayExec
	MayWrite  = sys.MayWrite
	MayRead   = sys.MayRead
	MayAppend = sys.MayAppend
	MayIoctl  = sys.MayIoctl
	MayMmap   = sys.MayMmap
	MayCreate = sys.MayCreate
	MayUnlink = sys.MayUnlink
	MayLock   = sys.MayLock
)

// ParseAccess maps a comma-separated list of policy operation names
// ("read", "write,ioctl", ...) to an access mask. Unknown names yield an
// error rather than a silent zero mask.
func ParseAccess(ops string) (Access, error) {
	var mask Access
	for _, op := range strings.Split(ops, ",") {
		op = strings.TrimSpace(op)
		if op == "" {
			continue
		}
		bit := sys.ParseAccess(op)
		if bit == 0 {
			return 0, fmt.Errorf("sack: unknown access operation %q (known: %s)",
				op, strings.Join(sys.AccessNames(), ","))
		}
		mask |= bit
	}
	if mask == 0 {
		return 0, fmt.Errorf("sack: empty access mask")
	}
	return mask, nil
}

// EventsFile is the SACKfs pseudo-file situation events are written to.
const EventsFile = core.EventsFile

// MetricsFile is the securityfs pseudo-file exposing per-hook latency
// metrics and access vector cache counters.
const MetricsFile = kernel.MetricsFile

// PipelineFile is the securityfs pseudo-file exposing event-pipeline
// health: degradation status, heartbeat age, SDS queue depth, and dark
// sensors.
const PipelineFile = core.PipelineFile

// ReloadFile is the securityfs pseudo-file exposing the policy reload
// transaction status: generation counter, installed source hash, the
// last applied diff, and any state remaps the commit performed.
const ReloadFile = core.ReloadFile

// Typed event-delivery errors. Every EventSink returns these (possibly
// wrapped); match with errors.Is.
var (
	// ErrUnknownEvent reports an event no transition listens for.
	ErrUnknownEvent = core.ErrUnknownEvent
	// ErrQueueFull reports SDS backpressure: the bounded event queue is
	// at capacity and the event was dropped.
	ErrQueueFull = core.ErrQueueFull
	// ErrDegraded reports that the pipeline is pinned to its fail-safe
	// state and rejecting situation transitions.
	ErrDegraded = core.ErrDegraded
)

// EventSink is the unified event-delivery surface. All three entry
// paths implement it: System.Events() (direct kernel delivery), the
// SDS service (queued user-space delivery with retry), and the SACKfs
// events file (via Task.WriteFileAll). Errors are errors.Is-matchable
// against ErrUnknownEvent, ErrQueueFull, and ErrDegraded.
type EventSink interface {
	DeliverEvent(Event) error
}

// IsErrno reports whether err is the given kernel error.
func IsErrno(err error, e Errno) bool { return sys.IsErrno(err, e) }

// Compile is the one compile entrypoint: parse, validate, and lower
// SACK policy text into an enforcement-ready artifact, including each
// state's trie-compiled matcher. The result is immutable and reusable —
// boot any number of systems from it, hand it to ReloadCompiled, or
// publish it to a whole fleet group, paying the compilation cost once at
// publish time rather than once per vehicle. The validation result
// carries warnings even on success; on validation failure it carries the
// findings alongside the error (nil only when parsing itself failed).
func Compile(text string) (*CompiledPolicy, *ValidationResult, error) {
	return policy.Load(text)
}

// CheckPolicy runs the policy checker, returning all findings. It is a
// thin wrapper over Compile that discards the artifact; the returned
// error reports only parse failures — validation errors are delivered as
// findings in the result.
func CheckPolicy(text string) (*ValidationResult, error) {
	_, vr, err := Compile(text)
	if vr == nil {
		return nil, err
	}
	return vr, nil
}

// ParseInvariants parses an invariant set: one invariant per line,
// `#` comments, four forms —
//
//	reachable <state>
//	always in <state>[, <state>...]   |   always not <state>
//	never <subject|-> <ops> <object-glob> [in <state>[, <state>...]]
//	in <state> => allow <subject|-> <ops> <object-path>
//
// `-` names the unconfined (empty) subject; ops is a comma-separated
// access list (read, write,ioctl, ...). Invariants naming states a
// policy does not declare are vacuously satisfied there, so one set can
// span a heterogeneous policy pack.
func ParseInvariants(text string) (*InvariantSet, error) {
	return verify.ParseSet(text)
}

// VerifyPolicy compiles the policy and exhaustively checks the
// invariant set against its full situation product space — every state
// reachable by events, failsafe degradation, or break-glass entry,
// against the same compiled rule sets the kernel enforces. Every
// violation in the report carries a concrete witness: the event trace
// entering the state, the (subject, op, path) access, and the deciding
// rule. The error reports compile or validation failure only; a
// violating policy returns a report with OK() == false and a nil error.
func VerifyPolicy(policyText string, set *InvariantSet) (*VerifyReport, error) {
	c, vr, err := Compile(policyText)
	if err != nil {
		return nil, err
	}
	if !vr.OK() {
		return nil, vr.Err()
	}
	return verify.Check(c, set), nil
}

// ParseProfiles parses AppArmor profile text.
func ParseProfiles(text string) ([]*Profile, error) {
	return apparmor.ParseProfiles(text)
}

// options is the boot configuration New assembles from its Option
// arguments; each field is documented on the option that sets it.
type options struct {
	mode             core.Mode
	appArmorProfiles string
	disableVehicle   bool
	disableAVC       bool
	failsafe         string
	heartbeatSecret  []byte
	faultPlan        *faults.Plan
	fleetCfg         *fleet.AgentConfig
	fleetOpts        []fleet.AgentOption
}

// Option configures New. Options apply in order over the defaults
// (Independent mode, a 4-door 4-window vehicle, the AVC enabled).
type Option func(*options)

// WithMode selects the deployment prototype (Independent or
// EnhancedAppArmor).
func WithMode(m core.Mode) Option {
	return func(o *options) { o.mode = m }
}

// WithAppArmorProfiles loads baseline AppArmor profiles from source text.
// An AppArmor module is registered whenever profiles are given or the
// mode is EnhancedAppArmor.
func WithAppArmorProfiles(text string) Option {
	return func(o *options) { o.appArmorProfiles = text }
}

// WithoutVehicle skips creating the vehicle and its device nodes.
func WithoutVehicle() Option {
	return func(o *options) { o.disableVehicle = true }
}

// WithoutAVC disables SACK's access vector cache, forcing every covered
// check through full rule evaluation (cache ablation runs).
func WithoutAVC() Option {
	return func(o *options) { o.disableAVC = true }
}

// WithFailsafe names the state the SSM pins to when the pipeline
// degrades (heartbeat lapse, dark sensors), overriding any `failsafe`
// declaration in the policy. The state must be declared by the policy.
func WithFailsafe(state string) Option {
	return func(o *options) { o.failsafe = state }
}

// WithHeartbeatSecret arms heartbeat authentication: the kernel rejects
// (and audits) any heartbeat control line that is not HMAC-signed with
// the shared secret or that replays an already-authenticated sequence
// number, and SDS instances built via NewSDS sign with the same secret.
// A compromised events-file writer without the secret can no longer
// keep a dead pipeline looking alive.
func WithHeartbeatSecret(secret []byte) Option {
	return func(o *options) { o.heartbeatSecret = append([]byte(nil), secret...) }
}

// WithFaultPlan arms deterministic fault injection: the plan's rules
// fire on the CAN bus tap immediately, and NewSDS wraps its sensors and
// transmitter with the same injector. A nil plan disables injection.
func WithFaultPlan(p *faults.Plan) Option {
	return func(o *options) { o.faultPlan = p }
}

// NewFleetClient builds a FleetTransport speaking the fleetd HTTP
// protocol at the given base URL (e.g. "http://127.0.0.1:7443").
func NewFleetClient(base string) *FleetClient { return fleet.NewClient(base) }

// WithFleet attaches a fleet agent to the system. The config names the
// vehicle, its group, and the transport (an in-process *FleetServer, a
// FleetClient against fleetd, or a fault-injecting wrapper); the apply
// path, audit ring, and pipeline-health source default to the booted
// system's own, so a bundle push from the control plane lands in this
// kernel's reload transaction and this kernel's denials ship upstream.
// Its Sync round retries breaker-gated attempts and degrades to the
// cached bundle; fleet.WithAgentClock runs it in virtual time for
// tests. The agent is not started — drive it with System.Fleet.Sync
// (one round), System.Fleet.SyncOnce (one attempt) or System.Fleet.Run.
func WithFleet(cfg FleetAgentConfig, agentOpts ...FleetAgentOption) Option {
	return func(o *options) { o.fleetCfg = &cfg; o.fleetOpts = agentOpts }
}

// ParseFaultSpec parses a compact fault-plan spec (comma-separated
// `kind:target[:key=val...]` rules, e.g. "stall:transmitter:after=10")
// with the given deterministic seed.
func ParseFaultSpec(spec string, seed int64) (*FaultPlan, error) {
	return faults.ParseSpec(spec, seed)
}

// NewFaultInjector builds an injector executing the plan, for callers
// wiring injection points by hand (systems booted via New get one
// automatically through WithFaultPlan). A nil plan injects nothing.
func NewFaultInjector(p *FaultPlan) *FaultInjector { return faults.New(p) }

// System is a fully assembled SACK deployment: kernel, modules, vehicle.
type System struct {
	Kernel   *Kernel
	SACK     *Module
	AppArmor *AppArmor // nil unless enhanced mode or profiles given
	Vehicle  *Vehicle  // nil under WithoutVehicle
	Audit    *AuditLog
	// Faults executes the configured FaultPlan; nil when no plan was
	// given. Shared by the CAN-bus tap and any SDS built via NewSDS.
	Faults *FaultInjector
	// Fleet is the vehicle's fleet agent; nil unless WithFleet was
	// given. Drive it with Fleet.SyncOnce (one round) or Fleet.Run.
	Fleet *FleetAgent

	sink     kernelSink // pre-built Events() adapter (no per-call alloc)
	hbSecret []byte     // shared heartbeat secret, forwarded to NewSDS
}

// kernelSink adapts the SACK module's direct delivery path to EventSink.
type kernelSink struct{ s *core.SACK }

func (k kernelSink) DeliverEvent(ev Event) error { return k.s.Deliver(ev) }

// New boots the complete stack: kernel, LSM registration in the paper's
// CONFIG_LSM order (SACK first, then AppArmor if present, then
// capability), SACKfs, and the vehicle devices. The policy text is
// required; everything else defaults sensibly and is tuned with options.
func New(policyText string, opts ...Option) (*System, error) {
	if policyText == "" {
		return nil, fmt.Errorf("sack: policy text is required")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	compiled, vr, err := Compile(policyText)
	if err != nil {
		return nil, err
	}
	if !vr.OK() {
		return nil, vr.Err()
	}

	k := kernel.New()
	var aa *apparmor.AppArmor
	if o.mode == core.EnhancedAppArmor || o.appArmorProfiles != "" {
		aa = apparmor.New(k.Audit)
		if o.appArmorProfiles != "" {
			profiles, err := apparmor.ParseProfiles(o.appArmorProfiles)
			if err != nil {
				return nil, err
			}
			if err := aa.LoadProfiles(profiles); err != nil {
				return nil, err
			}
		}
	}

	s, err := core.New(core.Config{
		Mode:            o.mode,
		Policy:          compiled,
		Source:          policyText,
		Audit:           k.Audit,
		AppArmor:        aa,
		DisableAVC:      o.disableAVC,
		Failsafe:        o.failsafe,
		HeartbeatSecret: o.heartbeatSecret,
	})
	if err != nil {
		return nil, err
	}

	// CONFIG_LSM: SACK first, then AppArmor if present, then capability.
	mods := []lsm.Module{s}
	if aa != nil {
		mods = append(mods, aa)
	}
	if err := k.Boot(append(mods, lsm.NewCapability())...); err != nil {
		return nil, err
	}

	out := &System{Kernel: k, SACK: s, AppArmor: aa, Audit: k.Audit}
	out.sink = kernelSink{s: s}
	out.hbSecret = o.heartbeatSecret
	if o.faultPlan != nil {
		out.Faults = faults.New(o.faultPlan)
	}
	if !o.disableVehicle {
		v := vehicle.New(4, 4)
		if err := v.RegisterDevices(k); err != nil {
			return nil, err
		}
		if out.Faults != nil {
			v.Bus.SetTap(vehicle.FaultTap(out.Faults))
		}
		out.Vehicle = v
	}
	if o.fleetCfg != nil {
		cfg := *o.fleetCfg
		if cfg.Applier == nil {
			cfg.Applier = out
		}
		if cfg.Audit == nil {
			cfg.Audit = k.Audit
		}
		if cfg.Pipeline == nil {
			cfg.Pipeline = s.Pipeline()
		}
		agent, err := fleet.NewAgent(cfg, o.fleetOpts...)
		if err != nil {
			return nil, err
		}
		out.Fleet = agent
	}
	return out, nil
}

// Events returns the direct kernel-delivery sink: each DeliverEvent
// hands the event straight to the SSM, returning ErrDegraded while the
// pipeline is pinned to its fail-safe state and ErrUnknownEvent for
// events no transition listens for. The sink is pre-built at boot; the
// call allocates nothing.
func (s *System) Events() EventSink { return s.sink }

// Pipeline exposes the event-pipeline health monitor (degradation
// state, heartbeat watchdog, counters behind PipelineFile).
func (s *System) Pipeline() *core.Pipeline { return s.SACK.Pipeline() }

// CurrentState returns the current situation state.
func (s *System) CurrentState() State { return s.SACK.CurrentState() }

// Reload parses, validates, and transactionally installs a new policy
// from source text — the programmatic equivalent of writing the SACKfs
// policy file. The replacement is coherent with the event pipeline: the
// logical current state (the pre-degradation state while pinned) is
// carried across the swap, states the new policy drops fall back to its
// initial state with a policy_reload_remap audit record, degradation
// pinning is re-evaluated against the new failsafe declaration, and the
// AVC epoch bumps exactly once. It returns the diff that was actually
// applied; on error nothing changes and the running policy stays live.
// Text equal to the installed source (a re-publish of unchanged content,
// an agent that lost its ETag) reuses the installed artifact instead of
// compiling it again: compilation is deterministic, so the commit is the
// same, at the cost of the swap alone.
func (s *System) Reload(src string) (DiffReport, error) {
	compiled, installed := s.SACK.Installed()
	if src != installed {
		var err error
		if compiled, _, err = Compile(src); err != nil {
			return DiffReport{}, err
		}
	}
	return s.SACK.ReplacePolicy(compiled, src)
}

// ReloadCompiled transactionally installs an already compiled policy
// with the same coherence guarantees as Reload, skipping the parse,
// validation, and compilation passes. The fleet agent uses this when a
// bundle carries the control plane's compiled artifact, so a policy
// published to a thousand-vehicle group is compiled once at publish
// time, not a thousand times at apply time. source must be the policy
// text the artifact was compiled from (it is echoed through SACKfs and
// hashed into the reload status).
func (s *System) ReloadCompiled(compiled *CompiledPolicy, source string) (DiffReport, error) {
	if compiled == nil {
		return DiffReport{}, fmt.Errorf("sack: ReloadCompiled needs a compiled policy")
	}
	return s.SACK.ReplacePolicy(compiled, source)
}

// Check asks what the enforcement fast path would decide for a
// (subject, object, access) triple, with the full explanation — verdict,
// coverage, AVC residency, failsafe pinning, the deciding rule, and the
// situation state. The query has no side effects: counters, audit, and
// the cache are untouched, so tools can interrogate a live system
// without skewing its statistics.
func (s *System) Check(subject, object string, mask Access) (Decision, error) {
	return s.SACK.Check(subject, object, mask)
}

// CheckTask is Check with the subject taken from a task's credential,
// exactly as the LSM hooks resolve it (the executable path recorded at
// exec time).
func (s *System) CheckTask(task *Task, object string, mask Access) (Decision, error) {
	return s.SACK.CheckCred(task.Cred, object, mask)
}

// NewSDS wires a situation detection service over the system's vehicle:
// the standard sensor suite, the given detectors, and a transmitter that
// writes the SACKfs events file as the (privileged) task. When the
// system was booted with a fault plan, the sensors and the transmitter
// are wrapped with the system's injector.
func (s *System) NewSDS(task *Task, clock resilience.Clock, detectors ...sds.Detector) (*SDS, error) {
	return s.NewSDSWith(task, clock, detectors)
}

// NewSDSWith is NewSDS plus resilience options (queue capacity, retry
// backoff, heartbeat emission, jitter seed).
func (s *System) NewSDSWith(task *Task, clock resilience.Clock, detectors []sds.Detector, opts ...sds.ServiceOption) (*SDS, error) {
	if s.Vehicle == nil {
		return nil, fmt.Errorf("sack: system has no vehicle")
	}
	tx, err := sds.NewKernelTransmitter(task)
	if err != nil {
		return nil, err
	}
	if len(s.hbSecret) > 0 {
		opts = append([]sds.ServiceOption{sds.WithHeartbeatSecret(s.hbSecret)}, opts...)
	}
	var transmitter sds.Transmitter = tx
	sensors := sds.VehicleSensors(s.Vehicle.Dynamics)
	if s.Faults != nil {
		wrapped := make([]sds.Sensor, len(sensors))
		for i, sn := range sensors {
			wrapped[i] = sds.NewFaultySensor(sn, s.Faults)
		}
		sensors = wrapped
		transmitter = sds.NewFaultyTransmitter(tx, s.Faults)
	}
	return sds.NewService(clock, sensors, detectors, transmitter, opts...), nil
}
