package core

import (
	"sort"

	"repro/internal/apparmor"
	"repro/internal/policy"
	"repro/internal/sys"
)

// ManageProfile registers an AppArmor base profile for SACK-enhanced
// mode. The base holds the profile's state-independent rules; on every
// situation transition SACK regenerates the loaded profile as
//
//	base rules + rules granted by the current state that apply to it
//
// and atomically replaces it in AppArmor. A rule applies to a profile
// when it has no subject clause, or its subject glob matches the profile
// name or attachment pattern.
func (s *SACK) ManageProfile(base *apparmor.Profile) error {
	if s.mode != EnhancedAppArmor {
		return sys.EINVAL
	}
	if base == nil || base.Name == "" {
		return sys.EINVAL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.managed[base.Name] = base.Clone()
	s.regenerateProfiles(s.snap.Load().rules)
	return nil
}

// UnmanageProfile stops SACK from rewriting the named profile; the base
// profile is restored.
func (s *SACK) UnmanageProfile(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	base, ok := s.managed[name]
	delete(s.managed, name)
	if !ok {
		return sys.ENOENT
	}
	return s.aa.LoadProfile(base.Clone())
}

// ManagedProfiles lists the profiles under SACK control, sorted.
func (s *SACK) ManagedProfiles() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.managed))
	for n := range s.managed {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// regenerateProfiles recomputes every managed profile for a state's
// rule set and swaps them into AppArmor in a single snapshot. The rule
// set is a parameter (not read from s.snap) because publish regenerates
// profiles *before* storing the snapshot that carries it. The rules are
// appended as they are, with the subject cleared (the profile is the
// subject) and canonical permission letters for audit text; AppArmor's
// deny-wins evaluation preserves the meaning of deny rules. Caller
// holds mu.
func (s *SACK) regenerateProfiles(rs *policy.RuleSet) {
	if s.aa == nil {
		return
	}
	bases := make([]*apparmor.Profile, 0, len(s.managed))
	for _, b := range s.managed {
		bases = append(bases, b)
	}
	if len(bases) == 0 {
		return
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i].Name < bases[j].Name })

	generated := make([]*apparmor.Profile, 0, len(bases))
	for _, base := range bases {
		p := base.Clone()
		for _, r := range rs.Rules() {
			if !ruleAppliesToProfile(&r, base) {
				continue
			}
			r.Subject = nil
			r.Perm = apparmor.FormatPerms(r.Access)
			p.Rules = append(p.Rules, r)
		}
		generated = append(generated, p)
	}
	// Errors cannot occur here (profiles are pre-validated), but keep the
	// module honest if AppArmor's invariants ever change.
	_ = s.aa.LoadProfiles(generated)
}

// ruleAppliesToProfile decides whether a state-granted rule belongs in a
// managed profile.
func ruleAppliesToProfile(r *policy.CompiledRule, base *apparmor.Profile) bool {
	if r.Subject == nil {
		return true
	}
	if r.Subject.Match(base.Name) {
		return true
	}
	if base.Attachment != nil && r.Subject.String() == base.Attachment.String() {
		return true
	}
	return false
}
