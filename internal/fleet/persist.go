package fleet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/fleet/wire"
	"repro/internal/policy"
	"repro/internal/store"
)

// Durability layer. A Server opened over a store.Store appends one WAL
// record per mutation — publishes (accepted and rejected), invariant
// registrations, rollout transitions, status reports, ingested batches,
// drains — and can compact them into a snapshot at any consistent cut.
// OpenServer replays snapshot + WAL on boot, so a fleetd killed with
// SIGKILL restarts to the exact registry, generation counters, publish
// audit log, and per-vehicle ledger it had durably committed:
// `accepted + dropped == emitted` still holds for every vehicle, and no
// vehicle re-applies or skips a generation.
//
// Commit points: records that move externally visible state a client
// acts on (publish ACK, ingest accept) are fsynced before the call
// returns. Status reports and drains are appended without an explicit
// fsync — they are re-reported or re-drained naturally — and ride to
// disk on the next group commit.

// walRecord is the JSON envelope framing every WAL entry. Exactly one
// payload field is set, selected by Kind.
type walRecord struct {
	Kind       string         `json:"k"`
	Publish    *walPublish    `json:"pub,omitempty"`
	Invariants *walInvariants `json:"inv,omitempty"`
	Status     *walStatus     `json:"st,omitempty"`
	Ingest     *walIngest     `json:"ing,omitempty"`
	Drain      *walDrain      `json:"dr,omitempty"`
	Rollout    *walRollout    `json:"ro,omitempty"`
}

// walPublish records one publish attempt. Accepted publishes carry the
// full bundle content so replay can reinstall (and recompile) it;
// rejected ones carry only the audit entry.
type walPublish struct {
	Audit      PublishRecord `json:"audit"`
	Source     string        `json:"src,omitempty"`
	Invariants string        `json:"invariants,omitempty"`
	KeyID      string        `json:"key_id,omitempty"`
	SigAlg     string        `json:"sig_alg,omitempty"`
	Signature  string        `json:"sig,omitempty"`
}

type walInvariants struct {
	Group  string `json:"group"`
	Source string `json:"src"` // "" clears the set
}

type walStatus struct {
	Status VehicleStatus `json:"status"`
	When   time.Time     `json:"when"`
}

// walIngest records one admitted (or backpressure-rejected) upload
// batch: the post-dedupe records plus the duplicate count, so replay
// reproduces the exact ledger and buffer without re-running dedupe.
type walIngest struct {
	Vehicle  string      `json:"vehicle"`
	Fresh    []LogRecord `json:"fresh,omitempty"`
	Dups     int         `json:"dups,omitempty"`
	Rejected bool        `json:"rejected,omitempty"`
}

type walDrain struct {
	N int `json:"n"`
}

// walRollout records one rollout transition. "start" carries the full
// candidate content and plan; the others reference the group's
// in-flight state.
type walRollout struct {
	Op         string      `json:"op"` // start | advance | halt | abort | promote
	Group      string      `json:"group"`
	When       time.Time   `json:"when"`
	Plan       RolloutPlan `json:"plan,omitempty"`
	Source     string      `json:"src,omitempty"`
	Invariants string      `json:"invariants,omitempty"`
	KeyID      string      `json:"key_id,omitempty"`
	SigAlg     string      `json:"sig_alg,omitempty"`
	Signature  string      `json:"sig,omitempty"`
	Reason     string      `json:"reason,omitempty"`
	Stage      int         `json:"stage,omitempty"`
}

// snapState is the snapshot payload: the server's full durable state at
// one consistent cut.
type snapState struct {
	Groups     []snapGroup       `json:"groups"`
	Invariants map[string]string `json:"invariants,omitempty"`

	PubLog       []PublishRecord `json:"pub_log,omitempty"`
	Published    uint64          `json:"published"`
	PubRejected  uint64          `json:"pub_rejected"`
	PubViolation uint64          `json:"pub_violation"`

	Vehicles []VehicleState `json:"vehicles,omitempty"`

	LogBuf          []IngestedRecord `json:"log_buf,omitempty"`
	LogAccepted     uint64           `json:"log_accepted"`
	LogDuplicates   uint64           `json:"log_duplicates"`
	LogDrained      uint64           `json:"log_drained"`
	BatchesAccepted uint64           `json:"batches_accepted"`
	BatchesRejected uint64           `json:"batches_rejected"`

	Rollouts []snapRollout `json:"rollouts,omitempty"`
}

type snapGroup struct {
	Group      string `json:"group"`
	Generation uint64 `json:"generation"`
	LastGen    uint64 `json:"last_gen"`
	Source     string `json:"src"`
	Invariants string `json:"invariants,omitempty"`
	KeyID      string `json:"key_id,omitempty"`
	SigAlg     string `json:"sig_alg,omitempty"`
	Signature  string `json:"sig,omitempty"`
}

type snapRollout struct {
	Group         string      `json:"group"`
	Plan          RolloutPlan `json:"plan"`
	Stage         int         `json:"stage"`
	StartedAt     time.Time   `json:"started_at"`
	Source        string      `json:"src"`
	Invariants    string      `json:"invariants,omitempty"`
	Generation    uint64      `json:"generation"`
	KeyID         string      `json:"key_id,omitempty"`
	SigAlg        string      `json:"sig_alg,omitempty"`
	Signature     string      `json:"sig,omitempty"`
	CanarySamples uint64      `json:"canary_samples"`
	CanaryDenials uint64      `json:"canary_denials"`
	Halted        bool        `json:"halted,omitempty"`
	HaltReason    string      `json:"halt_reason,omitempty"`
}

// OpenServer builds a Server whose state is durable in st: boot replays
// the newest snapshot plus the WAL tail, and every subsequent mutation
// is logged before it is acknowledged. The store must be freshly opened
// (its Replay not yet consumed).
func OpenServer(st *store.Store, opts ...ServerOption) (*Server, error) {
	s := NewServer(opts...)
	s.store = st
	if _, payload, ok := st.Snapshot(); ok {
		var snap snapState
		if err := json.Unmarshal(payload, &snap); err != nil {
			return nil, fmt.Errorf("fleet: corrupt snapshot: %w", err)
		}
		if err := s.restoreSnapshot(&snap); err != nil {
			return nil, err
		}
	}
	if err := st.Replay(func(_ uint64, payload []byte) error {
		if len(payload) > 0 && payload[0] == walFrameMagic {
			ing, err := decodeIngestFrame(payload)
			if err != nil {
				return err
			}
			s.applyIngest(ing)
			return nil
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("fleet: corrupt wal record: %w", err)
		}
		return s.applyWal(&rec)
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// Store returns the server's backing store (nil for in-memory servers).
func (s *Server) Store() *store.Store { return s.store }

// persist marshals and appends one WAL record. Callers hold
// persistMu.RLock so the append lands on the same side of any snapshot
// cut as the in-memory mutation it describes. syncNow forces the record
// durable before return (commit point).
func (s *Server) persist(rec walRecord, syncNow bool) error {
	if s.store == nil {
		return nil
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet: encode wal record: %w", err)
	}
	return s.persistRaw(buf, syncNow)
}

// persistRaw appends an already encoded WAL payload (JSON envelope or
// binary ingest frame). The store copies the payload before returning,
// so callers may reuse their buffer.
func (s *Server) persistRaw(payload []byte, syncNow bool) error {
	idx, err := s.store.Append(payload)
	if err != nil {
		return fmt.Errorf("fleet: wal append: %w", err)
	}
	s.walCount.Add(1)
	if syncNow {
		if err := s.store.SyncTo(idx); err != nil {
			return fmt.Errorf("fleet: wal sync: %w", err)
		}
	}
	return nil
}

// Binary WAL ingest frames. Ingest is the only WAL record kind on the
// fleet's hot path — every accepted batch costs one append plus one
// fsync — and encoding the post-dedupe Fresh slice as reflective JSON
// dominated the whole ingest cost at scale. Accepted batches are
// instead framed as [magic, version, uvarint vehicle, uvarint dups,
// wire batch frame]; legacy JSON envelopes (first byte '{') and binary
// frames (first byte 0xB1, not valid JSON and not the wire batch
// magic) coexist in one WAL, so stores written by either version
// replay in the other. Rejected batches and every other record kind
// stay JSON — they are cold.
const (
	walFrameMagic   = 0xB1
	walFrameVersion = 1
)

// persistIngest WAL-commits one accepted batch using the scratch
// buffers pooled by the caller. fresh is the post-dedupe slice; the
// frame reuses the wire codec, so replay accounting is ledger-exact by
// construction (same records, same dedupe outcome).
func (s *Server) persistIngest(sc *ingestScratch, vehicle string, fresh []LogRecord, dups int) error {
	if s.store == nil {
		return nil
	}
	sc.wrecs = sc.wrecs[:0]
	for _, r := range fresh {
		sc.wrecs = append(sc.wrecs, wire.Record(r))
	}
	buf := sc.buf[:0]
	buf = append(buf, walFrameMagic, walFrameVersion)
	buf = binary.AppendUvarint(buf, uint64(len(vehicle)))
	buf = append(buf, vehicle...)
	buf = binary.AppendUvarint(buf, uint64(dups))
	e := wire.GetEncoder()
	buf = e.Encode(buf, sc.wrecs, false)
	wire.PutEncoder(e)
	sc.buf = buf
	return s.persistRaw(buf, true)
}

// decodeIngestFrame parses a binary WAL ingest frame back into the
// walIngest shape replay applies. Cold path: replay only.
func decodeIngestFrame(payload []byte) (*walIngest, error) {
	if len(payload) < 2 || payload[0] != walFrameMagic {
		return nil, fmt.Errorf("fleet: not a wal ingest frame")
	}
	if payload[1] != walFrameVersion {
		return nil, fmt.Errorf("fleet: unsupported wal ingest frame version %d", payload[1])
	}
	body := payload[2:]
	vlen, n := binary.Uvarint(body)
	if n <= 0 || vlen > uint64(len(body)-n) {
		return nil, fmt.Errorf("fleet: corrupt wal ingest frame: bad vehicle length")
	}
	vehicle := string(body[n : n+int(vlen)])
	body = body[n+int(vlen):]
	dups, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, fmt.Errorf("fleet: corrupt wal ingest frame: bad dup count")
	}
	wrecs, err := wire.DecodeBatch(body[n:])
	if err != nil {
		return nil, fmt.Errorf("fleet: corrupt wal ingest frame: %w", err)
	}
	fresh := make([]LogRecord, len(wrecs))
	for i, r := range wrecs {
		fresh[i] = LogRecord(r)
	}
	return &walIngest{Vehicle: vehicle, Fresh: fresh, Dups: int(dups)}, nil
}

// maybeAutoSnapshot compacts when the WAL has grown past the configured
// threshold. Called after the mutator releases persistMu.RLock.
func (s *Server) maybeAutoSnapshot() {
	if s.store == nil || s.snapEvery == 0 {
		return
	}
	if s.walCount.Load() < s.snapEvery {
		return
	}
	s.Checkpoint()
}

// Checkpoint writes a snapshot at a consistent cut and compacts the WAL
// behind it. Safe to call any time; concurrent mutators briefly pause.
func (s *Server) Checkpoint() error {
	if s.store == nil {
		return fmt.Errorf("fleet: server has no store")
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	snap := s.captureSnapshot()
	buf, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("fleet: encode snapshot: %w", err)
	}
	if err := s.store.SaveSnapshot(buf); err != nil {
		return fmt.Errorf("fleet: save snapshot: %w", err)
	}
	s.walCount.Store(0)
	return nil
}

// captureSnapshot assembles the snapshot payload. Caller holds
// persistMu.Lock, so no mutation is mid-flight; the internal locks are
// still taken to order with lock-only readers.
func (s *Server) captureSnapshot() *snapState {
	snap := &snapState{Invariants: map[string]string{}}

	s.regMu.Lock()
	for name, e := range s.groups {
		if e.bundle.Generation == 0 && e.lastGen == 0 {
			continue
		}
		snap.Groups = append(snap.Groups, snapGroup{
			Group: name, Generation: e.bundle.Generation, LastGen: e.lastGen,
			Source: e.bundle.Source, Invariants: e.bundle.Invariants,
			KeyID: e.bundle.KeyID, SigAlg: e.bundle.SigAlg, Signature: e.bundle.Signature,
		})
	}
	for name, inv := range s.invariants {
		snap.Invariants[name] = inv.src
	}
	s.regMu.Unlock()

	s.pubMu.Lock()
	snap.PubLog = append([]PublishRecord(nil), s.pubLog...)
	snap.Published, snap.PubRejected, snap.PubViolation = s.published, s.pubRejected, s.pubViolation
	s.pubMu.Unlock()

	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, v := range sh.m {
			snap.Vehicles = append(snap.Vehicles, *v)
		}
		sh.mu.Unlock()
	}

	s.logMu.Lock()
	snap.LogBuf = append([]IngestedRecord(nil), s.logBuf[s.logHead:]...)
	snap.LogAccepted, snap.LogDuplicates, snap.LogDrained = s.logAccepted, s.logDuplicates, s.logDrained
	snap.BatchesAccepted, snap.BatchesRejected = s.batchesAccepted, s.batchesRejected
	s.logMu.Unlock()

	s.rollMu.Lock()
	for name, r := range s.rollouts {
		snap.Rollouts = append(snap.Rollouts, snapRollout{
			Group: name, Plan: r.plan, Stage: r.stage, StartedAt: r.startedAt,
			Source: r.candidate.Source, Invariants: r.candidate.Invariants,
			Generation: r.candidate.Generation,
			KeyID:      r.candidate.KeyID, SigAlg: r.candidate.SigAlg, Signature: r.candidate.Signature,
			CanarySamples: r.canarySamples, CanaryDenials: r.canaryDenials,
			Halted: r.halted, HaltReason: r.haltReason,
		})
	}
	s.rollMu.Unlock()
	return snap
}

// rebuildBundle reconstructs an installable bundle (recompiling the
// policy) from persisted fields.
func rebuildBundle(group string, gen uint64, src, invariants, keyID, sigAlg, sig string) (policy.Bundle, error) {
	compiled, vr, err := policy.Load(src)
	if err != nil {
		return policy.Bundle{}, fmt.Errorf("fleet: replay: bundle for group %q no longer compiles: %w", group, err)
	}
	if !vr.OK() {
		return policy.Bundle{}, fmt.Errorf("fleet: replay: bundle for group %q no longer validates: %w", group, vr.Err())
	}
	b := policy.NewBundle(group, gen, src).WithInvariants(invariants)
	b.KeyID, b.SigAlg, b.Signature = keyID, sigAlg, sig
	b.Compiled = compiled
	return b, nil
}

func (s *Server) restoreSnapshot(snap *snapState) error {
	for _, g := range snap.Groups {
		e := &groupEntry{notify: make(chan struct{}), lastGen: g.LastGen}
		if g.Generation > 0 {
			b, err := rebuildBundle(g.Group, g.Generation, g.Source, g.Invariants, g.KeyID, g.SigAlg, g.Signature)
			if err != nil {
				return err
			}
			e.bundle = b
		}
		if e.lastGen < g.Generation {
			e.lastGen = g.Generation
		}
		s.groups[g.Group] = e
	}
	for group, src := range snap.Invariants {
		if err := s.setInvariantsLocked(group, src); err != nil {
			return err
		}
	}

	s.pubLog = append(s.pubLog, snap.PubLog...)
	s.published, s.pubRejected, s.pubViolation = snap.Published, snap.PubRejected, snap.PubViolation

	for i := range snap.Vehicles {
		v := snap.Vehicles[i]
		sh := s.shardFor(v.Vehicle)
		cp := v
		sh.m[v.Vehicle] = &cp
	}

	s.logBuf = append(s.logBuf, snap.LogBuf...)
	s.logAccepted, s.logDuplicates, s.logDrained = snap.LogAccepted, snap.LogDuplicates, snap.LogDrained
	s.batchesAccepted, s.batchesRejected = snap.BatchesAccepted, snap.BatchesRejected

	for _, r := range snap.Rollouts {
		cand, err := rebuildBundle(r.Group, r.Generation, r.Source, r.Invariants, r.KeyID, r.SigAlg, r.Signature)
		if err != nil {
			return err
		}
		e := s.groups[r.Group]
		if e == nil {
			e = &groupEntry{notify: make(chan struct{})}
			s.groups[r.Group] = e
		}
		s.rollouts[r.Group] = &rolloutState{
			group: r.Group, plan: r.Plan, candidate: cand, stable: e.bundle,
			stage: r.Stage, startedAt: r.StartedAt,
			canarySamples: r.CanarySamples, canaryDenials: r.CanaryDenials,
			halted: r.Halted, haltReason: r.HaltReason,
		}
	}
	return nil
}

// applyWal re-applies one replayed mutation. No locks are needed — the
// server is not yet shared — but the helpers it calls take them anyway
// (cheap, and keeps one code path).
func (s *Server) applyWal(rec *walRecord) error {
	switch rec.Kind {
	case "publish":
		p := rec.Publish
		if p == nil {
			return fmt.Errorf("fleet: publish wal record without payload")
		}
		if p.Audit.Outcome == "published" {
			b, err := rebuildBundle(p.Audit.Group, p.Audit.Generation, p.Source, p.Invariants, p.KeyID, p.SigAlg, p.Signature)
			if err != nil {
				return err
			}
			s.installBundle(b)
			// A direct publish clears a halted rollout on the live path;
			// mirror that so replay converges to the same registry.
			s.rollMu.Lock()
			delete(s.rollouts, p.Audit.Group)
			s.rollMu.Unlock()
		}
		s.auditPublish(p.Audit)
	case "invariants":
		iv := rec.Invariants
		if iv == nil {
			return fmt.Errorf("fleet: invariants wal record without payload")
		}
		s.regMu.Lock()
		err := s.setInvariantsLocked(iv.Group, iv.Source)
		s.regMu.Unlock()
		return err
	case "status":
		st := rec.Status
		if st == nil {
			return fmt.Errorf("fleet: status wal record without payload")
		}
		s.applyStatus(st.Status, st.When)
	case "ingest":
		ing := rec.Ingest
		if ing == nil {
			return fmt.Errorf("fleet: ingest wal record without payload")
		}
		s.applyIngest(ing)
	case "drain":
		d := rec.Drain
		if d == nil {
			return fmt.Errorf("fleet: drain wal record without payload")
		}
		s.applyDrain(d.N)
	case "rollout":
		ro := rec.Rollout
		if ro == nil {
			return fmt.Errorf("fleet: rollout wal record without payload")
		}
		return s.applyRolloutWal(ro)
	default:
		return fmt.Errorf("fleet: unknown wal record kind %q", rec.Kind)
	}
	return nil
}

// applyStatus folds one status report with an explicit timestamp (live
// path passes time.Now(); replay passes the recorded time).
func (s *Server) applyStatus(st VehicleStatus, when time.Time) {
	sh := s.shardFor(st.Vehicle)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v := sh.m[st.Vehicle]
	if v == nil {
		v = &VehicleState{Vehicle: st.Vehicle}
		sh.m[st.Vehicle] = v
	}
	v.Group = st.Group
	v.AppliedGeneration = st.AppliedGeneration
	v.Checksum = st.Checksum
	v.DiffSummary = st.DiffSummary
	v.Degraded = st.Degraded
	v.Pinned = st.Pinned
	v.Emitted = st.Emitted
	v.Uploaded = st.Uploaded
	v.Dropped = st.Dropped
	v.Breaker = st.Breaker
	v.Shed = st.Shed
	v.Fallbacks = st.Fallbacks
	v.SigRejects = st.SigRejects
	v.WireBytesOut = st.WireBytesOut
	v.WireRawBytesOut = st.WireRawBytesOut
	v.WireBytesIn = st.WireBytesIn
	v.DeltaPulls = st.DeltaPulls
	v.FullPulls = st.FullPulls
	v.Reports++
	v.LastSeen = when
}

// applyIngest re-applies one persisted batch outcome: the exact
// post-dedupe record set and counters, no re-deduplication.
func (s *Server) applyIngest(ing *walIngest) {
	if ing.Rejected {
		s.logMu.Lock()
		s.batchesRejected++
		s.logMu.Unlock()
		return
	}
	s.logMu.Lock()
	for _, r := range ing.Fresh {
		s.logBuf = append(s.logBuf, IngestedRecord{Vehicle: ing.Vehicle, Record: r})
	}
	s.logAccepted += uint64(len(ing.Fresh))
	s.logDuplicates += uint64(ing.Dups)
	s.batchesAccepted++
	s.logMu.Unlock()

	sh := s.shardFor(ing.Vehicle)
	sh.mu.Lock()
	v := sh.m[ing.Vehicle]
	if v == nil {
		v = &VehicleState{Vehicle: ing.Vehicle}
		sh.m[ing.Vehicle] = v
	}
	group := v.Group
	if n := len(ing.Fresh); n > 0 {
		if last := ing.Fresh[n-1].Seq; last > v.LastLogSeq {
			v.LastLogSeq = last
		}
		v.Accepted += uint64(n)
	}
	sh.mu.Unlock()
	s.observeCanary(group, ing.Vehicle, ing.Fresh)
}

func (s *Server) applyDrain(n int) {
	s.logMu.Lock()
	if depth := len(s.logBuf) - s.logHead; n > depth {
		n = depth
	}
	s.advanceLogHeadLocked(n)
	s.logDrained += uint64(n)
	s.logMu.Unlock()
}
