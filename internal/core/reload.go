package core

import (
	"fmt"
	"strings"

	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/securityfs"
)

// ReloadFile is the securityfs view of the reload transaction status:
// generation counter, installed-source hash, the diff the last commit
// actually applied, and any state remaps it performed. It lives beside
// the pipeline and metrics files (kernel-owned lowercase "sack"
// directory) but, unlike them, requires CAP_MAC_ADMIN to read: the diff
// lines reproduce policy content.
const ReloadFile = securityfs.MountPoint + "/sack/reload"

// ReloadStatus is a snapshot of the policy-replacement transaction
// state, as rendered at ReloadFile.
type ReloadStatus struct {
	// Generation counts successful policy installs, starting at 1 for
	// the boot-time policy. It increments exactly once per committed
	// reload and never moves on a rejected one.
	Generation uint64
	// SourceHash identifies the installed policy source (hex SHA-256
	// prefix), so operators can tell which revision is live.
	SourceHash string
	// Summary is the one-line digest of the last applied diff
	// ("initial policy" for generation 1).
	Summary string
	// Diff is the full change list the last reload applied.
	Diff []string
	// Remaps records the state remappings the last reload performed
	// (current state or pre-degradation state falling back to the new
	// initial state, pin/unpin re-evaluations).
	Remaps []string
}

// sourceHash fingerprints policy source text for the reload status: the
// first 16 hex digits of its bundle checksum.
func sourceHash(src string) string { return policy.ChecksumSource(src)[:16] }

// ReloadStatus snapshots the reload transaction state.
func (s *SACK) ReloadStatus() ReloadStatus {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	st := s.reloadLast
	st.Diff = append([]string(nil), s.reloadLast.Diff...)
	st.Remaps = append([]string(nil), s.reloadLast.Remaps...)
	return st
}

// setReloadStatus publishes the status of a committed install.
func (s *SACK) setReloadStatus(st ReloadStatus) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.reloadLast = st
}

// ReplacePolicy atomically replaces the installed policy (the SACKfs
// write path and the public Reload API; CAP_MAC_ADMIN is checked by the
// caller). It is a transaction, coherent with the pipeline watchdog,
// the AVC, and the audit log, committed under SACK.mu, the one writer
// lock every state move and the pipeline monitor share:
//
//  1. validate: resolve the new failsafe (Config override wins) and
//     reject the reload outright if the override names a state the new
//     policy does not declare — nothing is mutated on failure, and the
//     returned report is empty. Both inputs are immutable, so this runs
//     before the lock;
//  2. diff: compute the change list against the outgoing policy. It is
//     computed before the lock, against the policy installed then, so
//     event delivery and the pipeline monitor never wait for it; under
//     the lock it is recomputed only if another reload committed in
//     between;
//  3. remap: carry the *logical* current state across the swap. While
//     pinned the SSM is parked in the failsafe, so the state to
//     preserve is the pipeline's pre-degradation state, never the
//     failsafe itself — otherwise recovery would restore the failsafe
//     and the vehicle would be wedged there forever. Any carried state
//     (current or pre-degradation) that the new policy drops falls back
//     to the new initial state with a policy_reload_remap audit record;
//  4. re-pin: degradation pinning is re-evaluated against the *new*
//     failsafe declaration: a failsafe added mid-degradation pins now
//     (capturing the logical state for recovery), one removed mid-pin
//     unpins and resumes the logical state;
//  5. swap: one publish installs the new policy in the post-remap
//     landing state, with that state's enforcement artifacts;
//  6. invalidate: the AVC epoch bumps exactly once per commit, after
//     the new rule set is observable;
//  7. audit: the commit appends one policy_reload record (generation,
//     hash, diff summary) plus one record per remap and pin change, and
//     the reload generation surfaces at ReloadFile.
//
// It returns the diff the kernel actually applied: the change list from
// the policy this commit replaced, empty when the reload is rejected.
// Reinstalling the installed artifact is a commit like any other, with
// an empty diff.
func (s *SACK) ReplacePolicy(c *policy.Compiled, source string) (policy.DiffReport, error) {
	p := s.pipe

	// Validate the failsafe the new policy will run under before
	// touching anything: a Config override must exist in the new state
	// set, exactly as core.New demands at boot.
	newFailsafe := p.failsafeOverride
	if newFailsafe == "" {
		newFailsafe = c.Failsafe
	}
	if newFailsafe != "" {
		if _, ok := c.StateSets[newFailsafe]; !ok {
			return policy.DiffReport{}, fmt.Errorf("sack: reload rejected: failsafe state %q not declared by new policy", newFailsafe)
		}
	}

	// Diff, render and hash against the policy installed now, before
	// the lock; redo the diff under it only if a reload committed since.
	base := s.snap.Load().compiled
	report, lines := reloadDiff(base, c)
	hash := sourceHash(source)

	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.snap.Load()
	if old.compiled != base {
		report, lines = reloadDiff(old.compiled, c)
	}

	var remaps []string
	remapState := func(role, name string) string {
		if _, ok := c.StateSets[name]; ok {
			return name
		}
		ev := fmt.Sprintf("%s %s -> %s (state dropped by reload)", role, name, c.Initial)
		remaps = append(remaps, ev)
		if s.audit != nil {
			s.audit.Append(lsm.AuditRecord{
				Module: ModuleName, Op: "policy_reload_remap",
				Subject: role, Object: c.Initial, Action: "ALLOWED",
				Detail: fmt.Sprintf("state %q dropped by reload, falling back to initial %q", name, c.Initial),
			})
		}
		return c.Initial
	}

	degraded := p.degradedFlag.Load()
	pinned := p.pinnedFlag.Load()

	// The logical current state: where the vehicle "really is". While
	// pinned that is the remembered pre-degradation state, not the
	// failsafe the SSM is parked in.
	prevAfter := ""
	if degraded && p.prevState != "" {
		prevAfter = remapState("prev_state", p.prevState)
	}
	var logical string
	if pinned {
		logical = prevAfter
		if logical == "" {
			logical = c.Initial
		}
	} else {
		logical = remapState("current_state", old.state.Name)
	}

	// Re-evaluate pinning against the new failsafe declaration.
	pinnedAfter := degraded && newFailsafe != ""
	landing := logical
	if pinnedAfter {
		landing = newFailsafe
		if prevAfter == "" {
			// Failsafe added mid-degradation: capture where we were so
			// recovery has somewhere to go back to.
			prevAfter = logical
		}
	}
	if !degraded {
		prevAfter = ""
	}

	// Commit point: one snapshot carrying the new policy, the landing
	// state's rule set, and a fresh AVC epoch — checks flip from the old
	// policy to the new in one load. Every landing is declared by c:
	// remapState yields c's states, and newFailsafe was checked above.
	to, _ := c.State(landing)
	s.publish(c, source, to)

	p.prevState = prevAfter
	if pinnedAfter != pinned {
		pinOp, pinAction := "policy_reload_unpin", "ALLOWED"
		if pinnedAfter {
			pinOp, pinAction = "policy_reload_pin", "DENIED"
		}
		if s.audit != nil {
			s.audit.Append(lsm.AuditRecord{
				Module: ModuleName, Op: pinOp,
				Subject: p.reason, Object: landing, Action: pinAction,
				Detail: fmt.Sprintf("failsafe=%q prev_state=%q", newFailsafe, prevAfter),
			})
		}
		remaps = append(remaps, fmt.Sprintf("%s: failsafe %q, landing %s", pinOp, newFailsafe, landing))
	}
	p.pinnedFlag.Store(pinnedAfter)

	gen := s.reloadGen.Add(1)
	st := ReloadStatus{
		Generation: gen,
		SourceHash: hash,
		Summary:    report.Summary(),
		Diff:       lines,
		Remaps:     remaps,
	}
	s.setReloadStatus(st)

	if s.audit != nil {
		s.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: "policy_reload",
			Subject: st.SourceHash, Object: landing, Action: "ALLOWED",
			Detail: fmt.Sprintf("generation=%d %s remaps=%d", gen, st.Summary, len(remaps)),
		})
	}
	return report, nil
}

// reloadDiff is the diff from old to c and its lines as ReloadFile
// renders them.
func reloadDiff(old, c *policy.Compiled) (policy.DiffReport, []string) {
	report := policy.Report(policy.Diff(old, c))
	var lines []string
	for _, ch := range report.Changes {
		lines = append(lines, ch.String())
	}
	return report, lines
}

// Render formats the reload status in the flat key: value style of the
// other securityfs stats files.
func (st ReloadStatus) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "generation: %d\n", st.Generation)
	fmt.Fprintf(&b, "source_hash: %s\n", st.SourceHash)
	fmt.Fprintf(&b, "summary: %s\n", st.Summary)
	for _, d := range st.Diff {
		fmt.Fprintf(&b, "diff: %s\n", d)
	}
	for _, r := range st.Remaps {
		fmt.Fprintf(&b, "remap: %s\n", r)
	}
	return b.String()
}
