package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/lsm"
	"repro/internal/securityfs"
	"repro/internal/sys"
)

// Typed event-delivery errors. Every entry point into the situation
// pipeline (the sack.EventSink API, the SDS queue, SACKfs writes)
// reports failures through these, so callers can react with errors.Is
// instead of string matching.
var (
	// ErrUnknownEvent: the event name is not referenced by any
	// transition rule of the installed policy. The event still reaches
	// the SSM (and is counted ignored) so accounting stays exact.
	ErrUnknownEvent = errors.New("sack: unknown situation event")
	// ErrQueueFull: the SDS event queue is at capacity and applied
	// backpressure instead of silently dropping.
	ErrQueueFull = errors.New("sack: event queue full")
	// ErrDegraded: the pipeline has degraded to the failsafe state;
	// ordinary event delivery is suspended until the heartbeat recovers.
	ErrDegraded = errors.New("sack: event pipeline degraded")
)

// PipelineFile is the securityfs view of event-pipeline health. It
// lives beside the hook metrics file (kernel-owned "sack" directory,
// lowercase) rather than under SACKfs proper, because like the metrics
// view it carries operational health, not policy content.
const PipelineFile = securityfs.MountPoint + "/sack/pipeline"

// HeartbeatPrefix starts a control line on the SACKfs events file. The
// SDS interleaves heartbeats with situation events on the same channel,
// so a stalled transmitter silences both — which is exactly the signal
// the kernel-side watchdog needs.
const HeartbeatPrefix = "!heartbeat"

// DefaultHeartbeatWindow is how stale the last heartbeat may grow
// before the watchdog declares the detection service dead.
const DefaultHeartbeatWindow = 3 * time.Second

// Heartbeat is one parsed SDS health report.
type Heartbeat struct {
	Seq     uint64
	At      time.Time // stamped by the SDS clock, not the kernel
	Queue   int       // SDS queue depth
	Cap     int       // SDS queue capacity
	Retries uint64    // cumulative transmit retries
	Drops   uint64    // cumulative queue-full drops
	Dark    []string  // sensors currently considered dark
	MAC     string    // hex HMAC-SHA256 over the other fields ("" = unsigned)
}

// String renders the heartbeat as an events-file control line. The MAC
// field, when present, renders last so the signed payload is exactly
// the line without it.
func (h Heartbeat) String() string {
	b := h.payload()
	if h.MAC != "" {
		return b + " mac=" + h.MAC
	}
	return b
}

// payload renders every field except the MAC — the byte string the
// HMAC covers. The SDS sequence number is inside, so a captured line
// cannot be replayed once a later beat has been accepted.
func (h Heartbeat) payload() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seq=%d t=%d queue=%d/%d retries=%d drops=%d",
		HeartbeatPrefix, h.Seq, h.At.UnixNano(), h.Queue, h.Cap, h.Retries, h.Drops)
	if len(h.Dark) > 0 {
		fmt.Fprintf(&b, " dark=%s", strings.Join(h.Dark, "|"))
	}
	return b.String()
}

// Sign computes the heartbeat's MAC with the shared secret and returns
// the heartbeat with the MAC field filled in.
func (h Heartbeat) Sign(secret []byte) Heartbeat {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(h.payload()))
	h.MAC = hex.EncodeToString(mac.Sum(nil))
	return h
}

// VerifyMAC reports whether the heartbeat's MAC is a valid signature
// of its payload under the shared secret (constant-time comparison).
func (h Heartbeat) VerifyMAC(secret []byte) bool {
	want, err := hex.DecodeString(h.MAC)
	if err != nil || h.MAC == "" {
		return false
	}
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(h.payload()))
	return hmac.Equal(mac.Sum(nil), want)
}

// ParseHeartbeat inverts Heartbeat.String.
func ParseHeartbeat(line string) (Heartbeat, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != HeartbeatPrefix {
		return Heartbeat{}, fmt.Errorf("core: not a heartbeat line: %q", line)
	}
	var h Heartbeat
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Heartbeat{}, fmt.Errorf("core: bad heartbeat field %q", f)
		}
		var err error
		switch key {
		case "seq":
			h.Seq, err = strconv.ParseUint(val, 10, 64)
		case "t":
			var ns int64
			ns, err = strconv.ParseInt(val, 10, 64)
			h.At = time.Unix(0, ns)
		case "queue":
			d, c, okq := strings.Cut(val, "/")
			if !okq {
				return Heartbeat{}, fmt.Errorf("core: bad heartbeat queue %q", val)
			}
			if h.Queue, err = strconv.Atoi(d); err == nil {
				h.Cap, err = strconv.Atoi(c)
			}
		case "retries":
			h.Retries, err = strconv.ParseUint(val, 10, 64)
		case "drops":
			h.Drops, err = strconv.ParseUint(val, 10, 64)
		case "dark":
			h.Dark = strings.Split(val, "|")
		case "mac":
			h.MAC = val
		default:
			return Heartbeat{}, fmt.Errorf("core: unknown heartbeat field %q", key)
		}
		if err != nil {
			return Heartbeat{}, fmt.Errorf("core: bad heartbeat field %q: %v", f, err)
		}
	}
	return h, nil
}

// Pipeline is the kernel-side resilience monitor for the situation
// event channel: it watches the SDS heartbeat, tracks the health the
// SDS reports about itself, and fails the SSM safe when detection dies.
//
// Fail-safe semantics: once armed (first heartbeat seen), a heartbeat
// older than the window — or a heartbeat reporting dark sensors —
// degrades the pipeline. Degrading forces the SSM into the
// policy-declared failsafe state (remembering where it was) and pins
// it there: ordinary event delivery returns ErrDegraded, because an
// event arriving while detection is dead is by definition stale or
// forged. A fresh heartbeat with no dark sensors recovers the pipeline
// and restores the pre-degradation state; re-detection then re-syncs
// the SSM with reality. Administrative break-glass bypasses the pin.
type Pipeline struct {
	s *SACK

	// degradedFlag and pinnedFlag are written under SACK.mu and read
	// lock-free by the decision query and the health views. pinned
	// (event delivery suspended) is degraded AND a failsafe state is
	// declared — without one, degradation is observational only.
	degradedFlag atomic.Bool
	pinnedFlag   atomic.Bool

	// hbSecret, when non-empty, demands every heartbeat control line be
	// HMAC-signed with it; failsafeOverride is Config.Failsafe, which
	// wins over the policy's declaration. Both are set once at
	// construction, read-only after.
	hbSecret         []byte
	failsafeOverride string

	// The monitor state below is guarded by SACK.mu: degrading and
	// recovering move the situation state, so they run under its one
	// writer lock.
	armed       bool
	last        Heartbeat
	lastCheck   time.Time
	reason      string
	degradedAt  time.Time
	prevState   string
	lastAuthSeq uint64 // highest authenticated heartbeat sequence

	beats        uint64
	degradations uint64
	recoveries   uint64

	unknownEvents    atomic.Uint64
	rejectedDegraded atomic.Uint64
	forgedHeartbeats atomic.Uint64
}

// Window reports the heartbeat window.
func (p *Pipeline) Window() time.Duration { return DefaultHeartbeatWindow }

// Degraded reports whether the pipeline is currently degraded.
func (p *Pipeline) Degraded() bool { return p.degradedFlag.Load() }

// Pinned reports whether ordinary event delivery is suspended: the
// pipeline is degraded and the policy declares a failsafe state to hold.
// A degraded pipeline without a failsafe declaration stays observational
// — events keep flowing, only the health view changes.
func (p *Pipeline) Pinned() bool { return p.pinnedFlag.Load() }

// Reason reports why the pipeline degraded ("" while healthy).
func (p *Pipeline) Reason() string {
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	if !p.degradedFlag.Load() {
		return ""
	}
	return p.reason
}

// Failsafe resolves the active failsafe state: the Config override if
// set, else the installed policy's declaration, else "".
func (p *Pipeline) Failsafe() string {
	if p.failsafeOverride != "" {
		return p.failsafeOverride
	}
	return p.s.snap.Load().compiled.Failsafe
}

// Stats is a point-in-time snapshot of the pipeline counters.
type PipelineStats struct {
	Degraded         bool
	Pinned           bool
	Reason           string
	Failsafe         string
	Armed            bool
	HeartbeatSeq     uint64
	HeartbeatAge     time.Duration // relative to the last Check; 0 before either
	Window           time.Duration
	Heartbeats       uint64
	QueueDepth       int
	QueueCap         int
	SDSRetries       uint64
	SDSDrops         uint64
	Dark             []string
	Degradations     uint64
	Recoveries       uint64
	UnknownEvents    uint64
	RejectedDegraded uint64
	ForgedHeartbeats uint64
	Authenticated    bool // a heartbeat secret is configured
}

// Stats snapshots the pipeline state.
func (p *Pipeline) Stats() PipelineStats {
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	st := PipelineStats{
		Degraded:         p.degradedFlag.Load(),
		Pinned:           p.pinnedFlag.Load(),
		Reason:           p.reason,
		Failsafe:         p.Failsafe(),
		Armed:            p.armed,
		HeartbeatSeq:     p.last.Seq,
		Window:           DefaultHeartbeatWindow,
		Heartbeats:       p.beats,
		QueueDepth:       p.last.Queue,
		QueueCap:         p.last.Cap,
		SDSRetries:       p.last.Retries,
		SDSDrops:         p.last.Drops,
		Dark:             append([]string(nil), p.last.Dark...),
		Degradations:     p.degradations,
		Recoveries:       p.recoveries,
		UnknownEvents:    p.unknownEvents.Load(),
		RejectedDegraded: p.rejectedDegraded.Load(),
		ForgedHeartbeats: p.forgedHeartbeats.Load(),
		Authenticated:    len(p.hbSecret) > 0,
	}
	if !st.Degraded {
		st.Reason = ""
	}
	if p.armed && p.lastCheck.After(p.last.At) {
		st.HeartbeatAge = p.lastCheck.Sub(p.last.At)
	}
	return st
}

// Observe ingests one SDS heartbeat. Dark sensors degrade the pipeline
// immediately (detection for part of the situation space is gone); a
// clean heartbeat while degraded recovers it.
func (p *Pipeline) Observe(h Heartbeat) {
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	p.observeLocked(h)
}

// observeLocked is Observe with SACK.mu held.
func (p *Pipeline) observeLocked(h Heartbeat) {
	p.armed = true
	p.beats++
	p.last = h
	switch {
	case len(h.Dark) > 0 && !p.degradedFlag.Load():
		p.degradeLocked("sensor_dropout:"+strings.Join(h.Dark, "|"), h.At)
	case len(h.Dark) == 0 && p.degradedFlag.Load():
		p.recoverLocked(h.At)
	}
}

// Check is the watchdog tick (the simulation's stand-in for the kernel
// timer): given the current time it degrades the pipeline if the last
// heartbeat is older than the window. It returns whether the pipeline
// is degraded after the check. Before the first heartbeat the watchdog
// is unarmed and never fires, so deployments without an SDS keep the
// exact pre-resilience behavior.
func (p *Pipeline) Check(now time.Time) bool {
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	p.lastCheck = now
	if p.armed && !p.degradedFlag.Load() && now.Sub(p.last.At) > DefaultHeartbeatWindow {
		p.degradeLocked("heartbeat_lapse", now)
	}
	return p.degradedFlag.Load()
}

// degradeLocked fails the SSM safe. Caller holds SACK.mu.
func (p *Pipeline) degradeLocked(reason string, now time.Time) {
	p.degradations++
	p.reason = reason
	p.degradedAt = now
	p.prevState = p.s.snap.Load().state.Name
	failsafe := p.Failsafe()
	if failsafe != "" && failsafe != p.prevState {
		// Boot and ReplacePolicy check the failsafe against the policy
		// they install, so the move cannot fail; it publishes the
		// failsafe rule set before the degradation becomes observable.
		_ = p.s.forceLocked(failsafe)
	}
	p.degradedFlag.Store(true)
	p.pinnedFlag.Store(failsafe != "")
	if p.s.audit != nil {
		p.s.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: "pipeline_degraded",
			Subject: reason, Object: failsafe, Action: "DENIED",
			Detail: fmt.Sprintf("from=%s window=%s pinned=%v", p.prevState, DefaultHeartbeatWindow, failsafe != ""),
		})
	}
}

// recoverLocked lifts the degradation and restores the pre-degradation
// state. Caller holds SACK.mu. ReplacePolicy remaps that state into the
// policy it installs, so the live policy always declares it.
func (p *Pipeline) recoverLocked(now time.Time) {
	p.recoveries++
	p.degradedFlag.Store(false)
	p.pinnedFlag.Store(false)
	if p.prevState != "" {
		_ = p.s.forceLocked(p.prevState)
	}
	if p.s.audit != nil {
		p.s.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: "pipeline_recovered",
			Subject: p.reason, Object: p.prevState, Action: "ALLOWED",
			Detail: fmt.Sprintf("degraded_for=%s", now.Sub(p.degradedAt)),
		})
	}
	p.reason = ""
	p.prevState = ""
}

// handleControl routes one "!"-prefixed events-file line. Unknown
// control lines are ignored (forward compatibility with newer SDS
// builds), but malformed heartbeats are rejected so a corrupted
// heartbeat cannot masquerade as a healthy one. When a heartbeat
// secret is configured, unsigned, mis-signed, and replayed (sequence
// not advancing past the last authenticated one) heartbeats are
// rejected with EPERM and audited — a compromised writer with the
// events-file capability but not the secret cannot keep a dead
// pipeline looking alive.
func (p *Pipeline) handleControl(line string) error {
	if !strings.HasPrefix(line, HeartbeatPrefix) {
		return nil
	}
	h, err := ParseHeartbeat(line)
	if err != nil {
		return sys.EINVAL
	}
	if len(p.hbSecret) > 0 && !h.VerifyMAC(p.hbSecret) {
		p.rejectHeartbeat(h, "bad or missing mac")
		return sys.EPERM
	}
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	if len(p.hbSecret) > 0 {
		if h.Seq <= p.lastAuthSeq {
			p.rejectHeartbeat(h, "sequence replay")
			return sys.EPERM
		}
		p.lastAuthSeq = h.Seq
	}
	p.observeLocked(h)
	return nil
}

// rejectHeartbeat counts and audits one forged heartbeat.
func (p *Pipeline) rejectHeartbeat(h Heartbeat, why string) {
	p.forgedHeartbeats.Add(1)
	if p.s.audit != nil {
		p.s.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: "heartbeat_forged",
			Subject: "events_write", Object: EventsFile, Action: "DENIED",
			Detail: fmt.Sprintf("%s (seq=%d)", why, h.Seq),
		})
	}
}

// Render formats the pipeline view in the flat key: value style of the
// other securityfs stats files.
func (p *Pipeline) Render() string {
	st := p.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "degraded: %v\n", st.Degraded)
	fmt.Fprintf(&b, "pinned: %v\n", st.Pinned)
	if st.Degraded {
		fmt.Fprintf(&b, "reason: %s\n", st.Reason)
	}
	failsafe := st.Failsafe
	if failsafe == "" {
		failsafe = "-"
	}
	fmt.Fprintf(&b, "failsafe_state: %s\n", failsafe)
	fmt.Fprintf(&b, "heartbeat_armed: %v\n", st.Armed)
	fmt.Fprintf(&b, "heartbeat_seq: %d\n", st.HeartbeatSeq)
	fmt.Fprintf(&b, "heartbeat_age_ms: %d\n", st.HeartbeatAge.Milliseconds())
	fmt.Fprintf(&b, "heartbeat_window_ms: %d\n", st.Window.Milliseconds())
	fmt.Fprintf(&b, "heartbeats: %d\n", st.Heartbeats)
	fmt.Fprintf(&b, "sds_queue_depth: %d\n", st.QueueDepth)
	fmt.Fprintf(&b, "sds_queue_capacity: %d\n", st.QueueCap)
	fmt.Fprintf(&b, "sds_retries: %d\n", st.SDSRetries)
	fmt.Fprintf(&b, "sds_drops: %d\n", st.SDSDrops)
	dark := "-"
	if len(st.Dark) > 0 {
		dark = strings.Join(st.Dark, ",")
	}
	fmt.Fprintf(&b, "dark_sensors: %s\n", dark)
	fmt.Fprintf(&b, "degradations: %d\n", st.Degradations)
	fmt.Fprintf(&b, "recoveries: %d\n", st.Recoveries)
	fmt.Fprintf(&b, "unknown_events: %d\n", st.UnknownEvents)
	fmt.Fprintf(&b, "rejected_degraded: %d\n", st.RejectedDegraded)
	fmt.Fprintf(&b, "heartbeat_auth: %v\n", st.Authenticated)
	fmt.Fprintf(&b, "forged_heartbeats: %d\n", st.ForgedHeartbeats)
	return b.String()
}
