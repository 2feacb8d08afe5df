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
// One apply path: each record kind has exactly one apply function
// (applyPublish, applyInvariants, applyStatus, applyIngest, applyDrain,
// applyRollout), called both by the live mutator and by OpenServer's
// replay. The live mutator first decides, holding no lock: it compiles
// and gates a candidate, dedupes a batch, waits for buffer space. It
// then calls the apply function inside the one critical section that
// orders the state the record changes, and the apply function appends
// the record (commit) before it changes anything — so WAL order is the
// order the changes were made in, and a record the store refuses
// changes nothing. The critical sections are ctlMu for publishes,
// invariant sets and rollout transitions; the vehicle's shard lock plus
// logMu for an ingest (dedupe, buffer append and ledger advance
// together); logMu for a drain; the shard lock for a status report. The
// fsync (syncTx) runs after every lock is released, so concurrent
// commits share one group commit. persistMu's read half is shared by
// every mutator, so it orders nothing between them: Checkpoint takes
// the write half, which only makes a snapshot a consistent cut.
//
// Commit points: records that move externally visible state a client
// acts on (publish ACK, ingest accept, invariant sets, rollout steps)
// are fsynced before the call returns. Status reports, drains and
// backpressure rejections are appended without an explicit fsync — they
// are re-reported or re-drained naturally — and ride to disk on the
// next group commit.

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

// bundleContent is what a WAL record or snapshot keeps of one signed
// bundle: enough to rebuild (and recompile) it at replay. It is
// embedded, so its fields flatten into the enclosing JSON object.
type bundleContent struct {
	Source     string `json:"src,omitempty"`
	Invariants string `json:"invariants,omitempty"`
	KeyID      string `json:"key_id,omitempty"`
	SigAlg     string `json:"sig_alg,omitempty"`
	Signature  string `json:"sig,omitempty"`
}

func contentOf(b policy.Bundle) bundleContent {
	return bundleContent{Source: b.Source, Invariants: b.Invariants, KeyID: b.KeyID, SigAlg: b.SigAlg, Signature: b.Signature}
}

// walPublish records one publish attempt. Accepted publishes carry the
// full bundle content so replay can reinstall (and recompile) it;
// rejected ones carry only the audit entry.
type walPublish struct {
	Audit PublishRecord `json:"audit"`
	bundleContent
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
	Op    string      `json:"op"` // start | advance | halt | abort | promote
	Group string      `json:"group"`
	When  time.Time   `json:"when"`
	Plan  RolloutPlan `json:"plan,omitempty"`
	bundleContent
	Reason string `json:"reason,omitempty"`
	Stage  int    `json:"stage,omitempty"`
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
	bundleContent
}

type snapRollout struct {
	Group     string      `json:"group"`
	Plan      RolloutPlan `json:"plan"`
	Stage     int         `json:"stage"`
	StartedAt time.Time   `json:"started_at"`
	bundleContent
	Generation    uint64 `json:"generation"`
	CanarySamples uint64 `json:"canary_samples"`
	CanaryDenials uint64 `json:"canary_denials"`
	Halted        bool   `json:"halted,omitempty"`
	HaltReason    string `json:"halt_reason,omitempty"`
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
	if err := st.Replay(s.replay); err != nil {
		return nil, err
	}
	return s, nil
}

// Store returns the server's backing store (nil for in-memory servers).
func (s *Server) Store() *store.Store { return s.store }

// walTx carries one live mutation's WAL record from its apply function,
// which appends it, to syncTx, which makes it durable once every lock is
// released. Replay passes a nil *walTx: its record is already logged.
type walTx struct {
	frame []byte // pre-encoded payload (binary ingest frame); nil = JSON
	sync  bool   // commit point: durable before the mutator returns
	idx   uint64 // store index once appended
}

// commit appends one record — tx.frame when set, else rec as JSON.
// Apply functions call it inside their critical section, before they
// change any state.
func (s *Server) commit(tx *walTx, rec walRecord) error {
	if tx == nil || s.store == nil {
		return nil
	}
	payload := tx.frame
	if payload == nil {
		var err error
		if payload, err = json.Marshal(rec); err != nil {
			return fmt.Errorf("fleet: encode wal record: %w", err)
		}
	}
	idx, err := s.store.Append(payload)
	if err != nil {
		return fmt.Errorf("fleet: wal append: %w", err)
	}
	tx.idx = idx
	s.walCount.Add(1)
	return nil
}

// syncTx makes a committed commit-point record durable. Called with no
// lock held, so concurrent commits share one fsync.
func (s *Server) syncTx(tx *walTx) error {
	if !tx.sync || tx.idx == 0 {
		return nil
	}
	if err := s.store.SyncTo(tx.idx); err != nil {
		return fmt.Errorf("fleet: wal sync: %w", err)
	}
	return nil
}

// control runs one control-plane mutation: fn decides and calls an apply
// function inside the ctlMu critical section, and the record is synced
// once the locks are released. Every control-plane record is a commit
// point.
func (s *Server) control(fn func(tx *walTx) error) error {
	tx := &walTx{sync: true}
	s.persistMu.RLock()
	s.ctlMu.Lock()
	err := fn(tx)
	s.ctlMu.Unlock()
	s.persistMu.RUnlock()
	if err != nil {
		return err
	}
	return s.syncTx(tx)
}

// replay re-applies one WAL record through the apply function its live
// mutator called. OpenServer runs before the server is shared, so it
// does not take the locks a live caller holds around the apply.
func (s *Server) replay(_ uint64, payload []byte) error {
	if len(payload) > 0 && payload[0] == walFrameMagic {
		ing, err := decodeIngestFrame(payload)
		if err != nil {
			return err
		}
		return s.applyIngest(ing, nil)
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("fleet: corrupt wal record: %w", err)
	}
	switch {
	case rec.Kind == "publish" && rec.Publish != nil:
		var b policy.Bundle
		if a := rec.Publish.Audit; a.Outcome == "published" {
			var err error
			if b, err = rebuildBundle(a.Group, a.Generation, rec.Publish.bundleContent); err != nil {
				return err
			}
		}
		return s.applyPublish(rec.Publish, b, nil)
	case rec.Kind == "invariants" && rec.Invariants != nil:
		return s.applyInvariants(rec.Invariants, nil)
	case rec.Kind == "status" && rec.Status != nil:
		return s.applyStatus(rec.Status, nil)
	case rec.Kind == "ingest" && rec.Ingest != nil:
		return s.applyIngest(rec.Ingest, nil)
	case rec.Kind == "drain" && rec.Drain != nil:
		s.applyDrain(rec.Drain.N, nil)
		return nil
	case rec.Kind == "rollout" && rec.Rollout != nil:
		var cand policy.Bundle
		if ro := rec.Rollout; ro.Op == "start" {
			var err error
			if cand, err = rebuildBundle(ro.Group, 0, ro.bundleContent); err != nil {
				return err
			}
		}
		return s.applyRollout(rec.Rollout, cand, nil)
	}
	return fmt.Errorf("fleet: bad wal record of kind %q", rec.Kind)
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

// encodeIngest frames one accepted batch into the caller's pooled
// scratch (nil for an in-memory server). The frame reuses the wire
// codec, so replay accounting is ledger-exact by construction (same
// records, same dedupe outcome).
func (s *Server) encodeIngest(sc *ingestScratch, ing *walIngest) []byte {
	if s.store == nil {
		return nil
	}
	sc.wrecs = sc.wrecs[:0]
	for _, r := range ing.Fresh {
		sc.wrecs = append(sc.wrecs, wire.Record(r))
	}
	buf := sc.buf[:0]
	buf = append(buf, walFrameMagic, walFrameVersion)
	buf = binary.AppendUvarint(buf, uint64(len(ing.Vehicle)))
	buf = append(buf, ing.Vehicle...)
	buf = binary.AppendUvarint(buf, uint64(ing.Dups))
	e := wire.GetEncoder()
	buf = e.Encode(buf, sc.wrecs, false)
	wire.PutEncoder(e)
	sc.buf = buf
	return buf
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
			bundleContent: contentOf(e.bundle),
		})
	}
	s.regMu.Unlock()

	s.ctlMu.Lock()
	for name, inv := range s.invariants {
		snap.Invariants[name] = inv.src
	}
	snap.PubLog = append([]PublishRecord(nil), s.pubLog...)
	snap.Published, snap.PubRejected, snap.PubViolation = s.published, s.pubRejected, s.pubViolation
	for name, r := range s.rollouts {
		snap.Rollouts = append(snap.Rollouts, snapRollout{
			Group: name, Plan: r.plan, Stage: r.stage, StartedAt: r.startedAt,
			bundleContent: contentOf(r.candidate), Generation: r.candidate.Generation,
			CanarySamples: r.canarySamples, CanaryDenials: r.canaryDenials,
			Halted: r.halted, HaltReason: r.haltReason,
		})
	}
	s.ctlMu.Unlock()

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
	return snap
}

// rebuildBundle reconstructs an installable bundle (recompiling the
// policy) from persisted content.
func rebuildBundle(group string, gen uint64, c bundleContent) (policy.Bundle, error) {
	compiled, vr, err := policy.Load(c.Source)
	if err != nil {
		return policy.Bundle{}, fmt.Errorf("fleet: replay: bundle for group %q no longer compiles: %w", group, err)
	}
	if !vr.OK() {
		return policy.Bundle{}, fmt.Errorf("fleet: replay: bundle for group %q no longer validates: %w", group, vr.Err())
	}
	b := policy.NewBundle(group, gen, c.Source).WithInvariants(c.Invariants)
	b.KeyID, b.SigAlg, b.Signature = c.KeyID, c.SigAlg, c.Signature
	b.Compiled = compiled
	return b, nil
}

func (s *Server) restoreSnapshot(snap *snapState) error {
	for _, g := range snap.Groups {
		e := &groupEntry{notify: make(chan struct{}), lastGen: g.LastGen}
		if g.Generation > 0 {
			b, err := rebuildBundle(g.Group, g.Generation, g.bundleContent)
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
		if err := s.applyInvariants(&walInvariants{Group: group, Source: src}, nil); err != nil {
			return err
		}
	}

	s.pubLog = append(s.pubLog, snap.PubLog...)
	s.published, s.pubRejected, s.pubViolation = snap.Published, snap.PubRejected, snap.PubViolation

	for i := range snap.Vehicles {
		v := &snap.Vehicles[i]
		s.shardFor(v.Vehicle).m[v.Vehicle] = v
	}

	s.logBuf = append(s.logBuf, snap.LogBuf...)
	s.logAccepted, s.logDuplicates, s.logDrained = snap.LogAccepted, snap.LogDuplicates, snap.LogDrained
	s.batchesAccepted, s.batchesRejected = snap.BatchesAccepted, snap.BatchesRejected

	for _, r := range snap.Rollouts {
		cand, err := rebuildBundle(r.Group, r.Generation, r.bundleContent)
		if err != nil {
			return err
		}
		s.rollouts[r.Group] = &rolloutState{
			group: r.Group, plan: r.Plan, candidate: cand, stable: s.group(r.Group).bundle,
			stage: r.Stage, startedAt: r.StartedAt,
			canarySamples: r.CanarySamples, canaryDenials: r.CanaryDenials,
			halted: r.Halted, haltReason: r.HaltReason,
		}
	}
	return nil
}
