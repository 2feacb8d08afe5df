package fleet

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet/wire"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/verify"
)

// Server defaults.
const (
	DefaultLogCapacity = 65536
	DefaultShards      = 64
	// MaxLongPoll caps how long one FetchBundle call may be held.
	MaxLongPoll = 30 * time.Second
	// DefaultAdmissionGrace is how long a full-buffer upload parks for
	// drain space before ErrBackpressure (see Server.logFree).
	DefaultAdmissionGrace = 50 * time.Millisecond
	// Per-vehicle-group ingestion bulkhead defaults: concurrent
	// admissions and queued callers per group. Cross-group isolation
	// comes from the admission cap — a flooding group saturates only
	// its own compartment's concurrency — so the queue is deep enough
	// that a 100k-vehicle group's synchronized upload burst parks
	// (timer-free, on the compartment semaphore) instead of shedding:
	// with admission this cheap, mass ErrBulkheadFull sheds turn every
	// agent's retry loop into a scheduler-saturating timer storm that
	// starves the drain path — the shed is then causing the very
	// overload it exists to protect against. Queued callers are
	// goroutines that exist either way; the bound only protects
	// against unbounded pile-up from a caller bug.
	DefaultGroupAdmissions = 128
	DefaultGroupQueue      = 1 << 17
)

// Server is the fleet control plane: a policy-bundle registry keyed by
// vehicle group, sharded per-vehicle state, and a bounded decision-log
// ingestion buffer. All methods are safe for concurrent use by
// thousands of agent goroutines; the hot read path (FetchBundle with a
// current ETag) touches only the registry lock briefly before parking
// on a notification channel.
type Server struct {
	// registry: group name → current bundle + publish notification.
	regMu  sync.Mutex
	groups map[string]*groupEntry

	// ctlMu is the control plane's critical section: it orders every
	// publish, invariant set and rollout transition with its WAL append
	// (see persist.go), and guards the state below.
	ctlMu sync.Mutex
	// per-group invariant sets: the publish gate re-proves these against
	// every candidate bundle before it can reach the registry.
	invariants map[string]*invariantEntry
	// staged rollouts: group → in-flight (or halted) rollout.
	rollouts map[string]*rolloutState
	// publish audit log (bounded; newest kept) and counters.
	pubLog       []PublishRecord
	published    uint64
	pubRejected  uint64 // validation/compile failures
	pubViolation uint64 // invariant-gate rejections

	// per-vehicle state, sharded by FNV hash of the vehicle ID so
	// status reports and log uploads from different vehicles never
	// contend on one lock.
	shards []serverShard

	// per-vehicle-group ingestion bulkheads: one compartment per
	// group, so a flooding group sheds with ErrBulkheadFull (429 over
	// HTTP) while other groups' uploads are untouched.
	gates *resilience.KeyedBulkheads

	// decision-log ingestion buffer (bounded queue of accepted records
	// awaiting Drain) plus ingestion counters. logBuf[logHead:] is the
	// live queue: Drain advances logHead instead of shifting the slice,
	// so a drain is O(records drained), not O(records still queued) —
	// with the binary ingest path feeding the buffer at millions of
	// records/s, a shifting drain was the scale bottleneck. The backing
	// array is reclaimed when the queue empties and compacted (amortized
	// O(1) per record) when the dead prefix outgrows the live tail.
	logMu           sync.Mutex
	logBuf          []IngestedRecord
	logHead         int
	logCap          int
	logAccepted     uint64
	logDuplicates   uint64
	logDrained      uint64
	batchesAccepted uint64
	batchesRejected uint64
	// logFree is closed and replaced each time a drain frees buffer
	// space; full-buffer uploads park on it (up to
	// DefaultAdmissionGrace) instead of failing instantly. With
	// admission this cheap, an instant reject
	// turns every agent's retry loop into a timer storm the moment the
	// buffer fills — parking on the drain edge admits in drain order at
	// drain speed, and ErrBackpressure is reserved for a consumer that
	// is genuinely not keeping up.
	logFree chan struct{}

	// bundle signer (nil = unsigned bundles, the legacy wire format):
	// every published or rolled-out bundle carries a detached signature
	// over its canonical encoding.
	signer *sign.Signer

	// durability (nil store = in-memory server, the historical
	// behaviour). Every mutator holds persistMu's read half across its
	// critical section and Checkpoint takes the write half, so a snapshot
	// is a consistent cut. The read half is shared: it orders nothing
	// between mutators.
	persistMu sync.RWMutex
	store     *store.Store
	walCount  atomic.Uint64 // records since the last snapshot
	snapEvery uint64        // auto-checkpoint threshold (0 = manual)

	// binary data-plane counters, bumped by the HTTP layer (the
	// in-process transport has no wire). Not durable: like bulkhead
	// stats, they describe the current process's traffic.
	wireIn  wireIngestCounters
	wireOut wireFanoutCounters
}

type wireIngestCounters struct {
	binBatches, binBytes atomic.Uint64
}

type wireFanoutCounters struct {
	fullPulls, fullBytes   atomic.Uint64
	deltaPulls, deltaBytes atomic.Uint64
}

type groupEntry struct {
	bundle policy.Bundle
	notify chan struct{} // closed and replaced on every publish
	// lastGen is the highest generation ever assigned in the group —
	// ahead of bundle.Generation while a rollout candidate is in flight,
	// so a halted rollout's generation is never reused.
	lastGen uint64
	// delta is the publish-time edit script from the revision bundle
	// replaced (whose ETag is deltaETag) to bundle, cached once per
	// publish and served to any vehicle whose If-None-Match names the
	// base. nil when the group has no prior revision or the delta would
	// not be smaller than the full body.
	delta     *policy.BundleDelta
	deltaETag string
}

type invariantEntry struct {
	src string
	set *verify.Set
}

// PublishRecord is one entry of the server's publish audit log: every
// attempt to install a bundle, accepted or not, with the rejection
// reason (including the verifier's witness) when refused.
type PublishRecord struct {
	When       time.Time `json:"when"`
	Group      string    `json:"group"`
	Generation uint64    `json:"generation,omitempty"` // 0 when rejected
	Checksum   string    `json:"checksum"`
	Outcome    string    `json:"outcome"` // "published" | "rejected" | "invariant-violation"
	Reason     string    `json:"reason,omitempty"`
}

// publishLogCap bounds the publish audit log; publishes are rare
// (human- or pipeline-driven), so a small window is plenty.
const publishLogCap = 256

type serverShard struct {
	mu sync.Mutex
	m  map[string]*VehicleState
}

// VehicleState is the server's record of one vehicle: the last status
// report, the ingestion ledger, and bookkeeping for deduplication.
type VehicleState struct {
	VehicleStatus           // agent-reported: the last status report
	Accepted      uint64    `json:"accepted"` // server-side: unique records taken
	LastLogSeq    uint64    `json:"last_log_seq"`
	Reports       uint64    `json:"reports"`
	LastSeen      time.Time `json:"last_seen"`
}

// vehicle returns the shard's record for id, creating it on first use.
// Caller holds sh.mu.
func (sh *serverShard) vehicle(id string) *VehicleState {
	v := sh.m[id]
	if v == nil {
		v = &VehicleState{VehicleStatus: VehicleStatus{Vehicle: id}}
		sh.m[id] = v
	}
	return v
}

// lastLogSeq is the vehicle's dedupe high-water mark (0 before its
// first accepted record). Caller holds sh.mu.
func (sh *serverShard) lastLogSeq(id string) uint64 {
	if v := sh.m[id]; v != nil {
		return v.LastLogSeq
	}
	return 0
}

// IngestedRecord is one accepted decision-log record tagged with its
// origin vehicle, as handed to Drain.
type IngestedRecord struct {
	Vehicle string    `json:"vehicle"`
	Record  LogRecord `json:"record"`
}

// ServerOption tunes a Server.
type ServerOption func(*Server)

// WithLogCapacity bounds the decision-log ingestion buffer (records,
// not batches). A batch that does not fit is rejected whole with
// ErrBackpressure.
func WithLogCapacity(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.logCap = n
		}
	}
}

// WithGroupBulkhead sizes the per-vehicle-group ingestion bulkheads:
// admissions concurrent uploads and queue waiting callers per group.
// Non-positive admissions keeps the default; a negative queue disables
// queueing (admit or shed immediately).
func WithGroupBulkhead(admissions, queue int) ServerOption {
	return func(s *Server) {
		if admissions <= 0 {
			admissions = DefaultGroupAdmissions
		}
		s.gates = resilience.NewKeyedBulkheads(resilience.BulkheadConfig{
			Capacity: admissions, Queue: queue,
		})
	}
}

// WithShards overrides the vehicle-state shard count.
func WithShards(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.shards = make([]serverShard, n)
		}
	}
}

// WithBundleSigner makes the server sign every bundle it publishes (or
// stages for rollout) with a detached signature agents verify against
// their keyring before apply.
func WithBundleSigner(sg *sign.Signer) ServerOption {
	return func(s *Server) { s.signer = sg }
}

// WithSnapshotEvery auto-checkpoints a durable server every n WAL
// records, bounding replay time after a crash. 0 disables (snapshot via
// Checkpoint only). No effect on in-memory servers.
func WithSnapshotEvery(n uint64) ServerOption {
	return func(s *Server) { s.snapEvery = n }
}

// NewServer builds an empty control plane.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		groups:     make(map[string]*groupEntry),
		invariants: make(map[string]*invariantEntry),
		rollouts:   make(map[string]*rolloutState),
		shards:     make([]serverShard, DefaultShards),
		logCap:     DefaultLogCapacity,
		gates: resilience.NewKeyedBulkheads(resilience.BulkheadConfig{
			Capacity: DefaultGroupAdmissions, Queue: DefaultGroupQueue,
		}),
		logFree: make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*VehicleState)
	}
	return s
}

// shardFor hashes the vehicle id inline (FNV-1a) — hash/fnv's
// interface-based digest allocates on every call, and this sits on the
// per-upload and per-status hot paths.
func (s *Server) shardFor(vehicle string) *serverShard {
	h := uint32(2166136261)
	for i := 0; i < len(vehicle); i++ {
		h ^= uint32(vehicle[i])
		h *= 16777619
	}
	return &s.shards[h%uint32(len(s.shards))]
}

// Publish validates and compiles the policy source once, assigns the
// group's next generation, installs the bundle as the group's current
// revision, and wakes every long-polling vehicle of the group. The
// compiled artifact rides inside the bundle for in-process consumers, so
// a policy published to a thousand-vehicle group is compiled here once
// rather than once per vehicle at apply time. Validation failures
// publish nothing.
func (s *Server) Publish(group, src string) (policy.Bundle, error) {
	return s.PublishBundle(group, src, "")
}

// SetInvariants registers (or, with empty src, clears) the group's
// invariant set. Every subsequent publish to the group must prove the
// set before the bundle is installed. The source is parsed here so a
// syntax error surfaces to the operator, not at the next publish.
func (s *Server) SetInvariants(group, src string) error {
	if group == "" {
		return fmt.Errorf("fleet: empty group name")
	}
	return s.control(func(tx *walTx) error {
		return s.applyInvariants(&walInvariants{Group: group, Source: src}, tx)
	})
}

// applyInvariants applies one invariant-set record: it parses and
// installs (or, for an empty source, clears) the group's set. A source
// that does not parse is refused before it is logged. Caller holds
// ctlMu.
func (s *Server) applyInvariants(iv *walInvariants, tx *walTx) error {
	var set *verify.Set
	if strings.TrimSpace(iv.Source) != "" {
		var err error
		if set, err = verify.ParseSet(iv.Source); err != nil {
			return fmt.Errorf("fleet: bad invariant set for group %q: %w", iv.Group, err)
		}
	}
	if err := s.commit(tx, walRecord{Kind: "invariants", Invariants: iv}); err != nil {
		return err
	}
	if set == nil {
		delete(s.invariants, iv.Group)
	} else {
		s.invariants[iv.Group] = &invariantEntry{src: iv.Source, set: set}
	}
	return nil
}

// GroupInvariants returns the invariant source registered for a group
// ("" when none).
func (s *Server) GroupInvariants(group string) string {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if e := s.invariants[group]; e != nil {
		return e.src
	}
	return ""
}

// PublishBundle is Publish with an optional bundle-embedded invariant
// set: the candidate policy must prove BOTH the group's registered
// invariants and the ones it carries. On success the embedded set rides
// in the bundle (versioned with the policy, distributed to agents); a
// violation rejects the publish with ErrInvariantViolation and the
// verifier's witness, and the attempt lands in the publish audit log.
// A group with a live staged rollout refuses direct publishes; a halted
// one is cleared by them (the operator is shipping the fix).
func (s *Server) PublishBundle(group, src, invariants string) (policy.Bundle, error) {
	c, err := s.admit(group, src, invariants, "bundle")
	if err != nil {
		return policy.Bundle{}, err
	}
	var b policy.Bundle
	err = s.control(func(tx *walTx) error {
		if r := s.rollouts[group]; r != nil && !r.halted {
			return fmt.Errorf("%w: %q (tick, abort, or wait)", ErrRolloutActive, group)
		}
		b = c.bundle(s.nextGen(group), s.signer)
		return s.applyPublish(&walPublish{
			Audit: PublishRecord{
				When: time.Now(), Group: group, Generation: b.Generation,
				Checksum: b.Checksum, Outcome: "published",
			},
			bundleContent: contentOf(b),
		}, b, tx)
	})
	if err != nil {
		return policy.Bundle{}, err
	}
	return b, nil
}

// applyPublish applies one publish record: an accepted publish installs
// b, the bundle the record names, as its group's current revision and
// clears the group's halted rollout; every attempt lands in the audit
// log. Caller holds ctlMu.
func (s *Server) applyPublish(p *walPublish, b policy.Bundle, tx *walTx) error {
	if err := s.commit(tx, walRecord{Kind: "publish", Publish: p}); err != nil {
		return err
	}
	if p.Audit.Outcome == "published" {
		s.installBundle(b)
		delete(s.rollouts, p.Audit.Group)
	}
	s.auditPublish(p.Audit)
	return nil
}

// candidate is a policy that passed admission, ready to become a signed
// bundle once its generation is assigned.
type candidate struct {
	group, src, invariants string
	compiled               *policy.Compiled
}

// bundle builds and (with a signer) signs the candidate at generation
// gen.
func (c candidate) bundle(gen uint64, sg *sign.Signer) policy.Bundle {
	b := policy.NewBundle(c.group, gen, c.src).WithInvariants(c.invariants)
	if sg != nil {
		b = b.Signed(sg)
	}
	b.Compiled = c.compiled
	return b
}

// admit is the admission step PublishBundle and StartRollout share: load
// and validate the source, parse its embedded invariant set, and prove
// the group's and the bundle's sets. A rejection is audited and logged
// as a publish record before it is returned; what names the attempt in
// the error ("bundle", "rollout candidate").
func (s *Server) admit(group, src, invariants, what string) (candidate, error) {
	if group == "" {
		return candidate{}, fmt.Errorf("fleet: empty group name")
	}
	reject := func(outcome string, err error) (candidate, error) {
		rec := PublishRecord{
			When: time.Now(), Group: group, Checksum: policy.ChecksumSource(src),
			Outcome: outcome, Reason: err.Error(),
		}
		// The rejection is the caller's answer either way; a store that
		// refuses its audit record leaves the audit log as it was.
		_ = s.control(func(tx *walTx) error {
			return s.applyPublish(&walPublish{Audit: rec}, policy.Bundle{}, tx)
		})
		return candidate{}, err
	}
	compiled, vr, err := policy.Load(src)
	if err == nil && !vr.OK() {
		err = vr.Err()
	}
	var embedded *verify.Set
	if err == nil && strings.TrimSpace(invariants) != "" {
		embedded, err = verify.ParseSet(invariants)
	}
	if err != nil {
		return reject("rejected", fmt.Errorf("fleet: %s rejected: %w", what, err))
	}
	var groupSet *verify.Set
	s.ctlMu.Lock()
	if e := s.invariants[group]; e != nil {
		groupSet = e.set
	}
	s.ctlMu.Unlock()
	for _, gate := range []struct {
		origin string
		set    *verify.Set
	}{
		{"group", groupSet},
		{"bundle", embedded},
	} {
		if gate.set == nil {
			continue
		}
		if rep := verify.Check(compiled, gate.set); !rep.OK() {
			return reject("invariant-violation",
				fmt.Errorf("%w (%s set):\n%s", ErrInvariantViolation, gate.origin, rep.Render()))
		}
	}
	return candidate{group: group, src: src, invariants: invariants, compiled: compiled}, nil
}

// nextGen is the generation the group's next publish or rollout
// candidate takes. Caller holds ctlMu, which every generation change
// holds too.
func (s *Server) nextGen(group string) uint64 {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if e := s.groups[group]; e != nil {
		return e.lastGen + 1
	}
	return 1
}

// auditPublish appends to the publish audit log. Caller holds ctlMu.
func (s *Server) auditPublish(rec PublishRecord) {
	switch rec.Outcome {
	case "published":
		s.published++
	case "invariant-violation":
		s.pubViolation++
	default:
		s.pubRejected++
	}
	s.pubLog = append(s.pubLog, rec)
	if len(s.pubLog) > publishLogCap {
		s.pubLog = append(s.pubLog[:0], s.pubLog[len(s.pubLog)-publishLogCap:]...)
	}
}

// PublishLog returns a copy of the publish audit log, oldest first.
func (s *Server) PublishLog() []PublishRecord {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	return append([]PublishRecord(nil), s.pubLog...)
}

// Bundle returns the group's current bundle.
func (s *Server) Bundle(group string) (policy.Bundle, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	e := s.groups[group]
	if e == nil || e.bundle.Generation == 0 {
		return policy.Bundle{}, fmt.Errorf("%w: %q", ErrUnknownGroup, group)
	}
	return e.bundle, nil
}

// FetchBundle implements Transport in-process: the ETag/long-poll
// download path. A vehicle already on the current revision parks on
// the group's notification channel up to wait; Publish (and every
// rollout transition) wakes all parked vehicles at once. During a
// staged rollout, canary-cohort vehicles are served the candidate
// bundle and everyone else the stable one — a halt flips the canaries'
// visible ETag back to stable, rolling them back through this same
// path.
func (s *Server) FetchBundle(vehicle, group, etag string, wait time.Duration) (policy.Bundle, bool, error) {
	b, _, modified, err := s.FetchBundleDelta(vehicle, group, etag, wait)
	return b, modified, err
}

// FetchBundleDelta is FetchBundle for delta-capable callers: alongside
// the full bundle it returns the group's cached publish-time delta
// whenever the caller's etag names exactly the base revision that delta
// applies to — i.e. the vehicle advertises (via If-None-Match over
// HTTP) that it holds the previous stable generation. The caller then
// ships O(edit) bytes instead of the whole bundle; anything else —
// vehicle several generations behind, rollout candidate in play,
// unknown base — degrades to the full bundle (delta == nil). The full
// bundle is always returned too, so in-process consumers pay nothing
// for the negotiation.
func (s *Server) FetchBundleDelta(vehicle, group, etag string, wait time.Duration) (policy.Bundle, *policy.BundleDelta, bool, error) {
	if wait > MaxLongPoll {
		wait = MaxLongPoll
	}
	deadline := time.Now().Add(wait)
	for {
		s.regMu.Lock()
		e := s.groups[group]
		var (
			stable policy.Bundle
			notify chan struct{}
			delta  *policy.BundleDelta
		)
		if e != nil {
			stable, notify = e.bundle, e.notify
			if e.delta != nil && etag != "" && e.deltaETag == etag {
				delta = e.delta
			}
		}
		s.regMu.Unlock()
		if e == nil {
			return policy.Bundle{}, nil, false, fmt.Errorf("%w: %q", ErrUnknownGroup, group)
		}
		b := s.rolloutPick(vehicle, group, stable)
		if b.Generation > 0 && b.ETag() != etag {
			// The cached delta reconstructs the stable revision only; a
			// canary being served the rollout candidate gets the full body.
			if b.ETag() != stable.ETag() {
				delta = nil
			}
			return b, delta, true, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return policy.Bundle{}, nil, false, nil
		}
		t := time.NewTimer(remaining)
		select {
		case <-notify:
			t.Stop()
		case <-t.C:
			return policy.Bundle{}, nil, false, nil
		}
	}
}

// ReportStatus implements Transport: it folds one vehicle status
// report into the sharded per-vehicle state. Reports are WAL-appended
// without an explicit fsync — a lost tail is re-reported on the
// vehicle's next round — and ride to disk on the next commit.
func (s *Server) ReportStatus(st VehicleStatus) error {
	if st.Vehicle == "" {
		return fmt.Errorf("fleet: status report without vehicle id")
	}
	sh := s.shardFor(st.Vehicle)
	s.persistMu.RLock()
	sh.mu.Lock()
	err := s.applyStatus(&walStatus{Status: st, When: time.Now()}, &walTx{})
	sh.mu.Unlock()
	s.persistMu.RUnlock()
	s.maybeAutoSnapshot()
	return err
}

// applyStatus applies one status report: the vehicle's reported fields
// replace its last report. Caller holds the vehicle's shard lock.
func (s *Server) applyStatus(ws *walStatus, tx *walTx) error {
	if err := s.commit(tx, walRecord{Kind: "status", Status: ws}); err != nil {
		return err
	}
	v := s.shardFor(ws.Status.Vehicle).vehicle(ws.Status.Vehicle)
	v.VehicleStatus = ws.Status
	v.Reports++
	v.LastSeen = ws.When
	return nil
}

// UploadLogs implements Transport: the decision-log ingestion
// endpoint. Equivalent to UploadLogsContext with a background context.
func (s *Server) UploadLogs(vehicle string, recs []LogRecord) (int, error) {
	return s.UploadLogsContext(context.Background(), vehicle, recs)
}

// UploadLogsContext is UploadLogs with the caller's context (the HTTP
// handler passes the request context). The batch runs inside the
// vehicle's group ingestion bulkhead: a group flooding the endpoint
// saturates its own compartment and is shed with ErrBulkheadFull,
// while other groups' uploads never queue behind it. The group comes
// from the vehicle's last status report; vehicles that have never
// reported share the "" compartment. Past the bulkhead, the whole
// batch is admitted or rejected — a batch that does not fit the
// bounded buffer returns ErrBackpressure and takes nothing, so the
// agent's cursor (and therefore the ledger) never splits across a
// partial accept. Records at or below the vehicle's high-water
// sequence are duplicates from at-least-once retries and are counted,
// not re-ingested.
func (s *Server) UploadLogsContext(ctx context.Context, vehicle string, recs []LogRecord) (int, error) {
	if vehicle == "" {
		return 0, fmt.Errorf("fleet: log upload without vehicle id")
	}
	if len(recs) == 0 {
		return 0, nil
	}
	var group string
	sh := s.shardFor(vehicle)
	sh.mu.Lock()
	if v := sh.m[vehicle]; v != nil {
		group = v.Group
	}
	sh.mu.Unlock()

	accepted := 0
	err := s.gates.Do(ctx, group, func(context.Context) error {
		var ierr error
		accepted, ierr = s.ingest(vehicle, recs)
		return ierr
	})
	s.maybeAutoSnapshot()
	return accepted, err
}

// ingestScratch pools the per-batch scratch of the hot ingest path:
// the ingest record with its post-dedupe record slice, the wire-record
// conversion slice, and the binary WAL frame buffer. Nothing in it
// escapes an ingest call — logBuf appends copy the records,
// observeCanary does not retain its slice, and store.Append copies the
// frame — so steady-state ingest performs no per-batch allocations
// beyond logBuf's amortized growth.
type ingestScratch struct {
	ing   walIngest
	wrecs []wire.Record
	buf   []byte
}

var ingestScratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// ingest is the admission body run inside the group bulkhead. It decides
// holding no lock — dedupe against the vehicle's high-water mark, encode
// the record, park for buffer space — and applies the record inside the
// ingest critical section (lockIngest) only if the high-water mark has
// not moved meanwhile; a concurrent upload from the same vehicle that
// did move it sends this one back to decide again. An accepted batch is
// WAL-committed (fsync) before the accept returns: the agent advances
// its cursor on our word, so forgetting an accepted batch across a
// crash would break the accepted+dropped==emitted ledger permanently.
func (s *Server) ingest(vehicle string, recs []LogRecord) (int, error) {
	sc := ingestScratchPool.Get().(*ingestScratch)
	defer ingestScratchPool.Put(sc)
	sh := s.shardFor(vehicle)
	var deadline time.Time
	for {
		sh.mu.Lock()
		seen := sh.lastLogSeq(vehicle)
		sh.mu.Unlock()
		ing := &sc.ing
		*ing = walIngest{Vehicle: vehicle, Fresh: ing.Fresh[:0]}
		for _, r := range recs {
			if r.Seq <= seen {
				ing.Dups++
				continue
			}
			ing.Fresh = append(ing.Fresh, r)
		}
		tx := walTx{sync: true, frame: s.encodeIngest(sc, ing)}

		s.lockIngest(sh)
		stale := sh.lastLogSeq(vehicle) != seen
		depth := len(s.logBuf) - s.logHead
		fits := depth+len(ing.Fresh) <= s.logCap
		var err error
		if !stale && fits {
			err = s.applyIngest(ing, &tx)
		}
		free := s.logFree
		s.unlockIngest(sh)
		switch {
		case stale:
			continue
		case fits:
			if err != nil {
				return 0, err
			}
			return len(ing.Fresh), s.syncTx(&tx)
		}
		// Full: park on the next drain edge, up to the admission grace,
		// instead of bouncing the agent into a retry loop.
		if deadline.IsZero() {
			deadline = time.Now().Add(DefaultAdmissionGrace)
		}
		if wait := time.Until(deadline); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-free:
				t.Stop()
			case <-t.C:
			}
			continue
		}
		s.lockIngest(sh)
		err = s.applyIngest(&walIngest{Vehicle: vehicle, Rejected: true}, &walTx{})
		s.unlockIngest(sh)
		if err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("%w: %d queued, capacity %d", ErrBackpressure, depth, s.logCap)
	}
}

// lockIngest enters the ingest critical section of the vehicle on sh:
// its shard lock, then logMu (under persistMu's read half).
func (s *Server) lockIngest(sh *serverShard) {
	s.persistMu.RLock()
	sh.mu.Lock()
	s.logMu.Lock()
}

func (s *Server) unlockIngest(sh *serverShard) {
	s.logMu.Unlock()
	sh.mu.Unlock()
	s.persistMu.RUnlock()
}

// applyIngest applies one ingest record: a backpressure rejection, or an
// accepted batch's post-dedupe records — buffered, counted in the
// vehicle's ledger, and fed to its group's rollout window. Caller holds
// the vehicle's shard lock and logMu, the critical section that orders
// dedupe, buffer and ledger.
func (s *Server) applyIngest(ing *walIngest, tx *walTx) error {
	if err := s.commit(tx, walRecord{Kind: "ingest", Ingest: ing}); err != nil {
		return err
	}
	if ing.Rejected {
		s.batchesRejected++
		return nil
	}
	for _, r := range ing.Fresh {
		s.logBuf = append(s.logBuf, IngestedRecord{Vehicle: ing.Vehicle, Record: r})
	}
	s.logAccepted += uint64(len(ing.Fresh))
	s.logDuplicates += uint64(ing.Dups)
	s.batchesAccepted++
	v := s.shardFor(ing.Vehicle).vehicle(ing.Vehicle)
	if n := len(ing.Fresh); n > 0 {
		if last := ing.Fresh[n-1].Seq; last > v.LastLogSeq {
			v.LastLogSeq = last
		}
		v.Accepted += uint64(n)
	}
	s.observeCanary(v.Group, ing.Vehicle, ing.Fresh)
	return nil
}

// Drain pops up to max accepted records from the ingestion buffer (the
// downstream consumer: an analytics pipeline, fleetd's retention file,
// a test's ledger check). max <= 0 drains everything.
func (s *Server) Drain(max int) []IngestedRecord {
	s.persistMu.RLock()
	s.logMu.Lock()
	out := s.applyDrain(max, &walTx{})
	s.logMu.Unlock()
	s.persistMu.RUnlock()
	return out
}

// applyDrain pops up to max queued records (max <= 0: all of them) and
// returns them; the record names the exact count taken, and a record
// the store refuses drains nothing. Caller holds logMu.
func (s *Server) applyDrain(max int, tx *walTx) []IngestedRecord {
	n := len(s.logBuf) - s.logHead
	if max > 0 && max < n {
		n = max
	}
	if n == 0 || s.commit(tx, walRecord{Kind: "drain", Drain: &walDrain{N: n}}) != nil {
		return nil
	}
	out := make([]IngestedRecord, n)
	copy(out, s.logBuf[s.logHead:s.logHead+n])
	s.advanceLogHeadLocked(n)
	s.logDrained += uint64(n)
	return out
}

// advanceLogHeadLocked consumes n queued records. The backing array is
// released when the queue runs empty and compacted once the dead prefix
// is at least as long as the live tail — each record is copied at most
// once over its queue lifetime. Caller holds logMu.
func (s *Server) advanceLogHeadLocked(n int) {
	s.logHead += n
	switch {
	case s.logHead == len(s.logBuf):
		s.logBuf = s.logBuf[:0]
		s.logHead = 0
	case s.logHead >= len(s.logBuf)-s.logHead:
		s.logBuf = s.logBuf[:copy(s.logBuf, s.logBuf[s.logHead:])]
		s.logHead = 0
	}
	if n > 0 {
		// Wake every upload parked on a full buffer (admission grace).
		close(s.logFree)
		s.logFree = make(chan struct{})
	}
}

// Vehicle returns the server's state for one vehicle.
func (s *Server) Vehicle(id string) (VehicleState, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v := sh.m[id]
	if v == nil {
		return VehicleState{}, false
	}
	return *v, true
}

// Vehicles snapshots every vehicle's state, sorted by ID.
func (s *Server) Vehicles() []VehicleState {
	var out []VehicleState
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, v := range sh.m {
			out = append(out, *v)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vehicle < out[j].Vehicle })
	return out
}

// GroupStats summarises one vehicle group.
type GroupStats struct {
	Group      string `json:"group"`
	Generation uint64 `json:"generation"`
	ETag       string `json:"etag"`
	Vehicles   int    `json:"vehicles"`
	Converged  int    `json:"converged"` // vehicles on the current generation
}

// LogStats summarises the decision-log ingestion side.
type LogStats struct {
	Depth           int    `json:"depth"`
	Capacity        int    `json:"capacity"`
	Accepted        uint64 `json:"accepted"`
	Duplicates      uint64 `json:"duplicates"`
	Drained         uint64 `json:"drained"`
	BatchesAccepted uint64 `json:"batches_accepted"`
	BatchesRejected uint64 `json:"batches_rejected"`
}

// WireStats summarises the binary data plane at the server's HTTP
// boundary: how many binary ingest batches arrive and how large they
// are, and how bundles fan out (full bodies vs publish-time deltas). All
// zero on an in-process transport, which has no wire.
type WireStats struct {
	BinaryBatches uint64 `json:"binary_batches"`
	BinaryBytes   uint64 `json:"binary_bytes"`
	FullPulls     uint64 `json:"full_pulls"`
	FullBytes     uint64 `json:"full_bytes"`
	DeltaPulls    uint64 `json:"delta_pulls"`
	DeltaBytes    uint64 `json:"delta_bytes"`
}

// FleetStats is the server's aggregate view.
type FleetStats struct {
	Groups   []GroupStats `json:"groups"`
	Vehicles int          `json:"vehicles"`
	Logs     LogStats     `json:"logs"`
	Wire     WireStats    `json:"wire"`
	// Resilience surface: per-group ingestion bulkhead snapshots and
	// fleet-wide agent-reported counters.
	Ingest       []resilience.KeyedStats `json:"ingest,omitempty"`
	BreakersOpen int                     `json:"breakers_open"` // vehicles reporting a non-closed breaker
	AgentSheds   uint64                  `json:"agent_sheds"`   // agent rounds shed by bulkheads
	Fallbacks    uint64                  `json:"fallbacks"`     // agent rounds served from cached bundles
	// Publish gate counters.
	Published         uint64 `json:"published"`
	PublishRejects    uint64 `json:"publish_rejects"`    // invalid bundles
	PublishViolations uint64 `json:"publish_violations"` // invariant-gate rejections
}

// Stats computes the aggregate fleet view.
func (s *Server) Stats() FleetStats {
	type genInfo struct {
		gen  uint64
		etag string
	}
	s.regMu.Lock()
	gens := make(map[string]genInfo, len(s.groups))
	for name, e := range s.groups {
		gens[name] = genInfo{e.bundle.Generation, e.bundle.ETag()}
	}
	s.regMu.Unlock()

	counts := make(map[string]*GroupStats)
	total := 0
	st := FleetStats{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, v := range sh.m {
			total++
			g := counts[v.Group]
			if g == nil {
				g = &GroupStats{Group: v.Group}
				counts[v.Group] = g
			}
			g.Vehicles++
			if gi, ok := gens[v.Group]; ok && v.AppliedGeneration == gi.gen {
				g.Converged++
			}
			if v.Breaker != "" && v.Breaker != "closed" {
				st.BreakersOpen++
			}
			st.AgentSheds += v.Shed
			st.Fallbacks += v.Fallbacks
		}
		sh.mu.Unlock()
	}
	// Groups with a published bundle but no vehicles yet still appear.
	for name := range gens {
		if counts[name] == nil {
			counts[name] = &GroupStats{Group: name}
		}
	}
	st.Vehicles = total
	for name, g := range counts {
		if gi, ok := gens[name]; ok {
			g.Generation, g.ETag = gi.gen, gi.etag
		}
		st.Groups = append(st.Groups, *g)
	}
	sort.Slice(st.Groups, func(i, j int) bool { return st.Groups[i].Group < st.Groups[j].Group })
	st.Ingest = s.gates.Stats()

	s.ctlMu.Lock()
	st.Published, st.PublishRejects, st.PublishViolations = s.published, s.pubRejected, s.pubViolation
	s.ctlMu.Unlock()

	s.logMu.Lock()
	st.Logs = LogStats{
		Depth: len(s.logBuf) - s.logHead, Capacity: s.logCap,
		Accepted: s.logAccepted, Duplicates: s.logDuplicates, Drained: s.logDrained,
		BatchesAccepted: s.batchesAccepted, BatchesRejected: s.batchesRejected,
	}
	s.logMu.Unlock()

	st.Wire = WireStats{
		BinaryBatches: s.wireIn.binBatches.Load(), BinaryBytes: s.wireIn.binBytes.Load(),
		FullPulls: s.wireOut.fullPulls.Load(), FullBytes: s.wireOut.fullBytes.Load(),
		DeltaPulls: s.wireOut.deltaPulls.Load(), DeltaBytes: s.wireOut.deltaBytes.Load(),
	}
	return st
}

// Render formats the fleet view in the flat style of the securityfs
// stats files — the text surfaced by `sackctl fleet status` and
// `sackmon -fleet`.
func (st FleetStats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vehicles: %d\n", st.Vehicles)
	for _, g := range st.Groups {
		fmt.Fprintf(&b, "group %s: generation=%d etag=%s vehicles=%d converged=%d\n",
			g.Group, g.Generation, g.ETag, g.Vehicles, g.Converged)
	}
	fmt.Fprintf(&b, "logs_depth: %d/%d\n", st.Logs.Depth, st.Logs.Capacity)
	fmt.Fprintf(&b, "logs_accepted: %d\n", st.Logs.Accepted)
	fmt.Fprintf(&b, "logs_duplicates: %d\n", st.Logs.Duplicates)
	fmt.Fprintf(&b, "logs_drained: %d\n", st.Logs.Drained)
	fmt.Fprintf(&b, "log_batches_accepted: %d\n", st.Logs.BatchesAccepted)
	fmt.Fprintf(&b, "log_batches_rejected: %d\n", st.Logs.BatchesRejected)
	for _, in := range st.Ingest {
		key := in.Key
		if key == "" {
			key = "(unreported)"
		}
		fmt.Fprintf(&b, "ingest %s: active=%d queued=%d admitted=%d shed=%d\n",
			key, in.Active, in.Queued, in.Admitted, in.Shed)
	}
	fmt.Fprintf(&b, "wire_ingest: binary_batches=%d binary_bytes=%d\n",
		st.Wire.BinaryBatches, st.Wire.BinaryBytes)
	fmt.Fprintf(&b, "wire_fanout: full_pulls=%d full_bytes=%d delta_pulls=%d delta_bytes=%d\n",
		st.Wire.FullPulls, st.Wire.FullBytes, st.Wire.DeltaPulls, st.Wire.DeltaBytes)
	fmt.Fprintf(&b, "published: %d\n", st.Published)
	fmt.Fprintf(&b, "publish_rejects: %d\n", st.PublishRejects)
	fmt.Fprintf(&b, "publish_violations: %d\n", st.PublishViolations)
	fmt.Fprintf(&b, "breakers_open: %d\n", st.BreakersOpen)
	fmt.Fprintf(&b, "agent_sheds: %d\n", st.AgentSheds)
	fmt.Fprintf(&b, "fallbacks: %d\n", st.Fallbacks)
	return b.String()
}
