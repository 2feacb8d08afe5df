package fleet

import (
	"fmt"
	"path"
	"strings"
	"time"

	"repro/internal/policy"
)

// Staged rollout controller. A rollout publishes a candidate bundle to
// a widening canary cohort of the group — percentage splits (stable
// FNV hash of the vehicle id into percentile buckets) and/or named
// rings (vehicle-id glob) — while the rest of the group stays on the
// stable revision. The ingestion path tracks the canary cohort's
// decision-log denial rate, and RolloutTick compares it (plus the
// cohort's failsafe-pinned/degraded fraction from status reports)
// against the plan's brakes: a regression halts the rollout and pins
// every vehicle back to the stable bundle — the canaries' next poll
// sees the stable ETag and rolls back through the normal apply path.
// Advancing past the final stage promotes the candidate to the group's
// current bundle.

// RolloutStage is one widening step of the plan.
type RolloutStage struct {
	// Percent of the group (0–100) in the canary cohort: vehicles whose
	// stable hash percentile is below it.
	Percent int `json:"percent"`
	// Ring optionally names an explicit cohort by vehicle-id glob
	// (path.Match syntax, e.g. "veh-00*" or "depot-?-*"). A vehicle is a
	// canary when it matches EITHER the percentile split or the ring.
	Ring string `json:"ring,omitempty"`
}

// RolloutPlan drives one staged rollout.
type RolloutPlan struct {
	Stages []RolloutStage `json:"stages"`
	// MinSamples is how many canary decision-log records a stage must
	// observe before RolloutTick will judge it (default 1).
	MinSamples uint64 `json:"min_samples,omitempty"`
	// MaxDenialRate halts the rollout when the canary cohort's denied
	// fraction exceeds it. Zero means any denial halts; negative
	// disables the brake.
	MaxDenialRate float64 `json:"max_denial_rate"`
	// MaxPinnedFrac halts when the fraction of reporting canary
	// vehicles that are failsafe-pinned or degraded exceeds it. Zero
	// means any pin halts; negative disables the brake.
	MaxPinnedFrac float64 `json:"max_pinned_frac"`
}

func (p RolloutPlan) validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("fleet: rollout plan needs at least one stage")
	}
	for i, st := range p.Stages {
		if st.Percent < 0 || st.Percent > 100 {
			return fmt.Errorf("fleet: rollout stage %d: percent %d out of range", i, st.Percent)
		}
		if st.Percent == 0 && st.Ring == "" {
			return fmt.Errorf("fleet: rollout stage %d selects no vehicles", i)
		}
		if st.Ring != "" {
			if _, err := path.Match(st.Ring, "probe"); err != nil {
				return fmt.Errorf("fleet: rollout stage %d: bad ring pattern %q: %v", i, st.Ring, err)
			}
		}
	}
	return nil
}

type rolloutState struct {
	group     string
	plan      RolloutPlan
	candidate policy.Bundle // generation lastGen (reserved at start)
	stable    policy.Bundle // what non-canaries keep fetching
	stage     int
	startedAt time.Time

	// observation window for the current stage, fed by the ingestion
	// path for vehicles in the canary cohort.
	canarySamples uint64
	canaryDenials uint64

	halted     bool
	haltReason string
}

// stageFor returns the active stage definition.
func (r *rolloutState) stageFor() RolloutStage { return r.plan.Stages[r.stage] }

// percentile buckets a vehicle id deterministically into [0,100).
// Inline FNV-1a: this runs inside rolloutPick on every bundle fetch of
// a group with an active rollout, so it must not allocate.
func vehiclePercentile(vehicle string) int {
	h := uint32(2166136261)
	for i := 0; i < len(vehicle); i++ {
		h ^= uint32(vehicle[i])
		h *= 16777619
	}
	return int(h % 100)
}

// cohort is what canary membership depends on, copied under ctlMu so
// canaryCensus can walk the vehicle shards without holding it.
type cohort struct {
	group     string
	stage     RolloutStage
	halted    bool
	candidate uint64 // candidate generation
}

func (r *rolloutState) cohort() cohort {
	return cohort{group: r.group, stage: r.stageFor(), halted: r.halted, candidate: r.candidate.Generation}
}

// has reports whether a vehicle is in the cohort. A halted rollout has
// none, and anonymous fetches (vehicle == "") never are.
func (c cohort) has(vehicle string) bool {
	if vehicle == "" || c.halted {
		return false
	}
	if c.stage.Percent > 0 && vehiclePercentile(vehicle) < c.stage.Percent {
		return true
	}
	if c.stage.Ring != "" {
		if ok, _ := path.Match(c.stage.Ring, vehicle); ok {
			return true
		}
	}
	return false
}

// inCanary reports whether a vehicle is in the rollout's current
// cohort. Caller holds ctlMu.
func (r *rolloutState) inCanary(vehicle string) bool { return r.cohort().has(vehicle) }

// RolloutStatus is the operator's view of one rollout, rendered by
// `sackctl fleet rollout status`.
type RolloutStatus struct {
	Group         string    `json:"group"`
	Stage         int       `json:"stage"`  // 0-based index of the active stage
	Stages        int       `json:"stages"` // total
	Percent       int       `json:"percent"`
	Ring          string    `json:"ring,omitempty"`
	CandidateGen  uint64    `json:"candidate_generation"`
	CandidateETag string    `json:"candidate_etag"`
	StableGen     uint64    `json:"stable_generation"`
	StableETag    string    `json:"stable_etag,omitempty"`
	StartedAt     time.Time `json:"started_at"`
	Samples       uint64    `json:"samples"`
	Denials       uint64    `json:"denials"`
	DenialRate    float64   `json:"denial_rate"`
	MinSamples    uint64    `json:"min_samples"`
	Canaries      int       `json:"canaries"`        // reporting vehicles in the cohort
	CanariesOnNew int       `json:"canaries_on_new"` // of those, on the candidate generation
	PinnedFrac    float64   `json:"pinned_frac"`
	Halted        bool      `json:"halted,omitempty"`
	HaltReason    string    `json:"halt_reason,omitempty"`
}

// Render formats the status in the flat securityfs style.
func (rs RolloutStatus) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "group: %s\n", rs.Group)
	fmt.Fprintf(&b, "stage: %d/%d (percent=%d ring=%q)\n", rs.Stage+1, rs.Stages, rs.Percent, rs.Ring)
	fmt.Fprintf(&b, "candidate: generation=%d etag=%s\n", rs.CandidateGen, rs.CandidateETag)
	fmt.Fprintf(&b, "stable: generation=%d etag=%s\n", rs.StableGen, rs.StableETag)
	fmt.Fprintf(&b, "canaries: %d (on_candidate=%d pinned_frac=%.3f)\n", rs.Canaries, rs.CanariesOnNew, rs.PinnedFrac)
	fmt.Fprintf(&b, "samples: %d (denials=%d rate=%.4f min_samples=%d)\n", rs.Samples, rs.Denials, rs.DenialRate, rs.MinSamples)
	if rs.Halted {
		fmt.Fprintf(&b, "halted: %s\n", rs.HaltReason)
	}
	return b.String()
}

// StartRollout validates, verifies, signs, and stages a candidate
// bundle for the group under the plan, reserving the group's next
// generation for it. Stage 0's cohort sees the candidate on their next
// poll; everyone else keeps the stable bundle. A group with a rollout
// already in flight (even a halted one — inspect it first, then abort)
// refuses a second one, as does a group with no published stable
// bundle (there is nothing to fall back to; use Publish).
func (s *Server) StartRollout(group, src, invariants string, plan RolloutPlan) (RolloutStatus, error) {
	if err := plan.validate(); err != nil {
		return RolloutStatus{}, err
	}
	if plan.MinSamples == 0 {
		plan.MinSamples = 1
	}
	c, err := s.admit(group, src, invariants, "rollout candidate")
	if err != nil {
		return RolloutStatus{}, err
	}
	var status RolloutStatus
	err = s.control(func(tx *walTx) error {
		if s.rollouts[group] != nil {
			return fmt.Errorf("%w: %q", ErrRolloutActive, group)
		}
		if _, err := s.Bundle(group); err != nil {
			return fmt.Errorf("%w: %q has no stable bundle to roll from", ErrUnknownGroup, group)
		}
		cand := c.bundle(s.nextGen(group), s.signer)
		if err := s.applyRollout(&walRollout{
			Op: "start", Group: group, When: time.Now(), Plan: plan,
			bundleContent: contentOf(cand),
		}, cand, tx); err != nil {
			return err
		}
		status = s.rolloutStatusLocked(s.rollouts[group])
		return nil
	})
	if err != nil {
		return RolloutStatus{}, err
	}
	return status, nil
}

// RolloutTick judges the active stage against the plan's brakes and
// either waits (not enough samples), halts (regression), advances to
// the next stage, or — past the final stage — promotes the candidate
// to the group's current bundle. Drive it from a timer (fleetd's
// -rollout-tick) or an operator's `sackctl bundle rollout tick`. The
// verdict is reached on a copy of the stage's window; if another
// transition reaches the rollout before the verdict is applied, the
// tick judges the new state instead.
func (s *Server) RolloutTick(group string) (RolloutStatus, error) {
	for {
		s.ctlMu.Lock()
		r := s.rollouts[group]
		if r == nil {
			s.ctlMu.Unlock()
			return RolloutStatus{}, fmt.Errorf("%w: %q", ErrNoRollout, group)
		}
		status, plan, c := s.rolloutStatusLocked(r), r.plan, r.cohort()
		s.ctlMu.Unlock()
		if status.Halted {
			return status, ErrRolloutHalted
		}
		samples, denials := status.Samples, status.Denials
		canaries, onNew, pinned := s.canaryCensus(c)

		ro := &walRollout{Group: group, When: time.Now()}
		rate := float64(denials) / float64(max(samples, 1))
		frac := float64(pinned) / float64(max(canaries, 1))
		switch {
		// Brake 1: canary denial rate.
		case samples >= plan.MinSamples && plan.MaxDenialRate >= 0 &&
			((plan.MaxDenialRate == 0 && denials > 0) || (plan.MaxDenialRate > 0 && rate > plan.MaxDenialRate)):
			ro.Op, ro.Reason = "halt", fmt.Sprintf("canary denial rate %.4f (%d/%d) exceeds %.4f",
				rate, denials, samples, plan.MaxDenialRate)
		// Brake 2: canary failsafe-pin/degradation fraction.
		case canaries > 0 && plan.MaxPinnedFrac >= 0 &&
			((plan.MaxPinnedFrac == 0 && pinned > 0) || (plan.MaxPinnedFrac > 0 && frac > plan.MaxPinnedFrac)):
			ro.Op, ro.Reason = "halt", fmt.Sprintf("canary pinned/degraded fraction %.3f (%d/%d) exceeds %.3f",
				frac, pinned, canaries, plan.MaxPinnedFrac)
		case samples < plan.MinSamples:
			status.Canaries, status.CanariesOnNew = canaries, onNew
			return status, nil // waiting for evidence
		case status.Stage+1 < len(plan.Stages):
			ro.Op, ro.Stage = "advance", status.Stage+1
		default:
			ro.Op = "promote"
		}

		stale := false
		err := s.control(func(tx *walTx) error {
			if stale = s.rollouts[group] != r || r.halted || r.stage != status.Stage; stale {
				return nil
			}
			if err := s.applyRollout(ro, policy.Bundle{}, tx); err != nil {
				return err
			}
			status = s.rolloutStatusLocked(r)
			return nil
		})
		switch {
		case stale:
			continue
		case err != nil:
			return RolloutStatus{}, err
		case ro.Op == "halt":
			return status, ErrRolloutHalted
		case ro.Op == "promote":
			cand := r.candidate
			return RolloutStatus{
				Group: group, Stage: len(plan.Stages), Stages: len(plan.Stages),
				CandidateGen: cand.Generation, CandidateETag: cand.ETag(),
				StableGen: cand.Generation, StableETag: cand.ETag(),
			}, nil
		}
		return status, nil
	}
}

// AbortRollout cancels the group's rollout (halted or live): the
// candidate is discarded, every canary rolls back to stable on its next
// poll.
func (s *Server) AbortRollout(group string) error {
	return s.control(func(tx *walTx) error {
		if s.rollouts[group] == nil {
			return fmt.Errorf("%w: %q", ErrNoRollout, group)
		}
		return s.applyRollout(&walRollout{Op: "abort", Group: group, When: time.Now()}, policy.Bundle{}, tx)
	})
}

// applyRollout applies one rollout record. start stages cand (the
// candidate the record names) at the group's next generation; advance
// moves to the record's stage with a fresh observation window; halt
// pins every vehicle back to the stable bundle, leaving the rollout
// inspectable until aborted; abort discards the candidate; promote
// installs it as the group's current bundle. Every transition wakes the
// group's parked long-polls so each vehicle re-evaluates which bundle
// it should see. Caller holds ctlMu.
func (s *Server) applyRollout(ro *walRollout, cand policy.Bundle, tx *walTx) error {
	if err := s.commit(tx, walRecord{Kind: "rollout", Rollout: ro}); err != nil {
		return err
	}
	r := s.rollouts[ro.Group]
	if ro.Op == "start" {
		s.regMu.Lock()
		e := s.group(ro.Group)
		e.lastGen++
		cand.Generation = e.lastGen
		r = &rolloutState{group: ro.Group, plan: ro.Plan, candidate: cand, stable: e.bundle, startedAt: ro.When}
		s.regMu.Unlock()
		s.rollouts[ro.Group] = r
	}
	var cur policy.Bundle // the group's candidate, when it has one
	if r != nil {
		cur = r.candidate
	}
	audit := func(outcome, reason string) {
		s.auditPublish(PublishRecord{
			When: ro.When, Group: ro.Group, Generation: cur.Generation,
			Checksum: cur.Checksum, Outcome: outcome, Reason: reason,
		})
	}
	switch ro.Op {
	case "start":
		audit("rollout-started", "")
	case "advance":
		if r != nil && ro.Stage < len(r.plan.Stages) {
			r.stage = ro.Stage
			r.canarySamples, r.canaryDenials = 0, 0
		}
	case "halt":
		if r != nil {
			r.halted, r.haltReason = true, ro.Reason
		}
		audit("rollout-halted", ro.Reason)
	case "abort":
		delete(s.rollouts, ro.Group)
		audit("rollout-aborted", "")
	case "promote":
		if r != nil {
			delete(s.rollouts, ro.Group)
			s.installBundle(cur)
			audit("published", "")
		}
	default:
		return fmt.Errorf("fleet: unknown rollout wal op %q", ro.Op)
	}
	s.wakeGroup(ro.Group)
	return nil
}

// RolloutStatus reports the group's in-flight (or halted) rollout.
func (s *Server) RolloutStatus(group string) (RolloutStatus, error) {
	s.ctlMu.Lock()
	r := s.rollouts[group]
	if r == nil {
		s.ctlMu.Unlock()
		return RolloutStatus{}, fmt.Errorf("%w: %q", ErrNoRollout, group)
	}
	status, c := s.rolloutStatusLocked(r), r.cohort()
	s.ctlMu.Unlock()
	canaries, onNew, pinned := s.canaryCensus(c)
	status.Canaries, status.CanariesOnNew = canaries, onNew
	if canaries > 0 {
		status.PinnedFrac = float64(pinned) / float64(canaries)
	}
	return status, nil
}

// rolloutStatusLocked snapshots the cheap fields. Caller holds ctlMu.
func (s *Server) rolloutStatusLocked(r *rolloutState) RolloutStatus {
	st := r.stageFor()
	rs := RolloutStatus{
		Group: r.group, Stage: r.stage, Stages: len(r.plan.Stages),
		Percent: st.Percent, Ring: st.Ring,
		CandidateGen: r.candidate.Generation, CandidateETag: r.candidate.ETag(),
		StableGen: r.stable.Generation, StableETag: r.stable.ETag(),
		StartedAt: r.startedAt,
		Samples:   r.canarySamples, Denials: r.canaryDenials,
		MinSamples: r.plan.MinSamples,
		Halted:     r.halted, HaltReason: r.haltReason,
	}
	if r.canarySamples > 0 {
		rs.DenialRate = float64(r.canaryDenials) / float64(r.canarySamples)
	}
	return rs
}

// canaryCensus walks the vehicle shards counting the cohort group's
// reporting canary vehicles, how many run the candidate, and how many
// are failsafe-pinned or degraded.
func (s *Server) canaryCensus(c cohort) (canaries, onCandidate, pinned int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, v := range sh.m {
			if v.Group != c.group || !c.has(v.Vehicle) {
				continue
			}
			canaries++
			if v.AppliedGeneration == c.candidate {
				onCandidate++
			}
			if v.Pinned || v.Degraded {
				pinned++
			}
		}
		sh.mu.Unlock()
	}
	return canaries, onCandidate, pinned
}

// observeCanary feeds the rollout's stage window from the ingestion
// path: every fresh decision-log record from a canary vehicle counts,
// denials doubly so. Called inside the ingest critical section, so the
// window and the WAL agree on which stage each record fell in.
func (s *Server) observeCanary(group, vehicle string, fresh []LogRecord) {
	if len(fresh) == 0 {
		return
	}
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	r := s.rollouts[group]
	if r == nil || r.halted || !r.inCanary(vehicle) {
		return
	}
	for _, rec := range fresh {
		r.canarySamples++
		if rec.Action == "DENIED" {
			r.canaryDenials++
		}
	}
}

// rolloutPick substitutes the candidate bundle for canary vehicles of a
// group with an active (non-halted) rollout.
func (s *Server) rolloutPick(vehicle, group string, stable policy.Bundle) policy.Bundle {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	r := s.rollouts[group]
	if r == nil || !r.inCanary(vehicle) {
		return stable
	}
	return r.candidate
}

// wakeGroup closes and replaces the group's notify channel so parked
// long-polls re-evaluate which bundle they should see.
func (s *Server) wakeGroup(group string) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	e := s.groups[group]
	if e == nil {
		return
	}
	close(e.notify)
	e.notify = make(chan struct{})
}

// installBundle installs b as its group's current bundle and wakes the
// group. Used by publish and rollout promotion.
func (s *Server) installBundle(b policy.Bundle) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	setBundleLocked(s.group(b.Group), b)
}

// group returns the registry entry for name, creating it on first use.
// Caller holds regMu.
func (s *Server) group(name string) *groupEntry {
	e := s.groups[name]
	if e == nil {
		e = &groupEntry{notify: make(chan struct{})}
		s.groups[name] = e
	}
	return e
}

// setBundleLocked installs b as e's current revision and wakes the
// group. It also computes the publish-time delta against the revision
// being replaced — once per publish, here, so the fan-out path serves
// a cached edit script instead of diffing per vehicle. The delta is
// kept only when it actually beats the full body on the wire. Caller
// holds regMu. Publish and WAL replay share this path, so a replayed
// server caches the same delta the live one did.
func setBundleLocked(e *groupEntry, b policy.Bundle) {
	e.delta, e.deltaETag = nil, ""
	if prev := e.bundle; prev.Generation > 0 && prev.ETag() != b.ETag() {
		if d, err := policy.ComputeBundleDelta(prev, b); err == nil && d.EncodedSize() < len(b.Encode()) {
			e.delta, e.deltaETag = &d, prev.ETag()
		}
	}
	e.bundle = b
	if e.lastGen < b.Generation {
		e.lastGen = b.Generation
	}
	close(e.notify)
	e.notify = make(chan struct{})
}
