package policy

import (
	"fmt"
	"sort"
	"strings"
)

// Change is one difference between two compiled policies.
type Change struct {
	Kind   string // "state", "permission", "rule", "transition", "initial", "failsafe"
	Action string // "added", "removed", "changed"
	Detail string
}

// String renders "rule added: ...".
func (c Change) String() string {
	return fmt.Sprintf("%s %s: %s", c.Kind, c.Action, c.Detail)
}

// Diff compares two compiled policies and reports the changes an
// administrator should review before a reload: states and permissions
// appearing or vanishing, per-state rule set deltas, and transition
// graph edits. Deterministic ordering.
func Diff(old, new *Compiled) []Change {
	var out []Change

	// Initial state.
	if old.Initial != new.Initial {
		out = append(out, Change{Kind: "initial", Action: "changed",
			Detail: fmt.Sprintf("%s -> %s", old.Initial, new.Initial)})
	}

	// Failsafe state.
	if old.Failsafe != new.Failsafe {
		from, to := old.Failsafe, new.Failsafe
		if from == "" {
			from = "(none)"
		}
		if to == "" {
			to = "(none)"
		}
		out = append(out, Change{Kind: "failsafe", Action: "changed",
			Detail: fmt.Sprintf("%s -> %s", from, to)})
	}

	// States (by name; encodings compared for survivors).
	oldStates := map[string]uint32{}
	for _, s := range old.States {
		oldStates[s.Name] = s.Encoding
	}
	newStates := map[string]uint32{}
	for _, s := range new.States {
		newStates[s.Name] = s.Encoding
	}
	for _, name := range sortedKeys(oldStates) {
		if _, ok := newStates[name]; !ok {
			out = append(out, Change{Kind: "state", Action: "removed", Detail: name})
		}
	}
	for _, name := range sortedKeys(newStates) {
		if oldEnc, ok := oldStates[name]; !ok {
			out = append(out, Change{Kind: "state", Action: "added", Detail: name})
		} else if oldEnc != newStates[name] {
			out = append(out, Change{Kind: "state", Action: "changed",
				Detail: fmt.Sprintf("%s encoding %d -> %d", name, oldEnc, newStates[name])})
		}
	}

	// Permissions.
	oldPerms := toSet(old.Permissions)
	newPerms := toSet(new.Permissions)
	for _, p := range sortedKeys(oldPerms) {
		if !newPerms[p] {
			out = append(out, Change{Kind: "permission", Action: "removed", Detail: p})
		}
	}
	for _, p := range sortedKeys(newPerms) {
		if !oldPerms[p] {
			out = append(out, Change{Kind: "permission", Action: "added", Detail: p})
		}
	}

	// Per-state effective rule sets (the operational meaning of the
	// policy): compare canonical rule strings.
	for _, name := range sortedKeys(newStates) {
		oldRS, okOld := old.StateSets[name]
		newRS := new.StateSets[name]
		if !okOld {
			continue // addition already reported; its rules are all new
		}
		oldRules := ruleStrings(oldRS)
		newRules := ruleStrings(newRS)
		for _, r := range missingFrom(oldRules, newRules) {
			out = append(out, Change{Kind: "rule", Action: "removed",
				Detail: fmt.Sprintf("state %s: %s", name, r)})
		}
		for _, r := range missingFrom(newRules, oldRules) {
			out = append(out, Change{Kind: "rule", Action: "added",
				Detail: fmt.Sprintf("state %s: %s", name, r)})
		}
	}

	// Transitions.
	oldTrans := transitionSet(old)
	newTrans := transitionSet(new)
	for _, tr := range sortedKeys(oldTrans) {
		if !newTrans[tr] {
			out = append(out, Change{Kind: "transition", Action: "removed", Detail: tr})
		}
	}
	for _, tr := range sortedKeys(newTrans) {
		if !oldTrans[tr] {
			out = append(out, Change{Kind: "transition", Action: "added", Detail: tr})
		}
	}
	return out
}

// DiffReport packages the changes of one policy replacement, as applied
// by a reload commit: the caller gets back the exact delta the kernel
// installed, not merely the delta it requested.
type DiffReport struct {
	Changes []Change
}

// Report wraps a change list in a DiffReport.
func Report(changes []Change) DiffReport { return DiffReport{Changes: changes} }

// Empty reports whether the two policies were equivalent.
func (r DiffReport) Empty() bool { return len(r.Changes) == 0 }

// Summary condenses the report into one line ("no changes" or e.g.
// "5 changes: 2 added, 2 removed, 1 changed").
func (r DiffReport) Summary() string {
	if r.Empty() {
		return "no changes"
	}
	var added, removed, changed int
	for _, c := range r.Changes {
		switch c.Action {
		case "added":
			added++
		case "removed":
			removed++
		case "changed":
			changed++
		}
	}
	parts := make([]string, 0, 3)
	if added > 0 {
		parts = append(parts, fmt.Sprintf("%d added", added))
	}
	if removed > 0 {
		parts = append(parts, fmt.Sprintf("%d removed", removed))
	}
	if changed > 0 {
		parts = append(parts, fmt.Sprintf("%d changed", changed))
	}
	return fmt.Sprintf("%d changes: %s", len(r.Changes), strings.Join(parts, ", "))
}

// String renders the full change list, one per line.
func (r DiffReport) String() string { return FormatDiff(r.Changes) }

// FormatDiff renders changes one per line (empty string for none).
func FormatDiff(changes []Change) string {
	if len(changes) == 0 {
		return ""
	}
	var b strings.Builder
	for _, c := range changes {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func toSet(xs []string) map[string]bool {
	out := make(map[string]bool, len(xs))
	for _, x := range xs {
		out[x] = true
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func ruleStrings(rs *RuleSet) map[string]bool {
	out := map[string]bool{}
	if rs == nil {
		return out
	}
	for _, r := range rs.Rules() {
		out[r.String()] = true
	}
	return out
}

// missingFrom returns the sorted keys of a that are absent from b.
func missingFrom(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func transitionSet(c *Compiled) map[string]bool {
	out := map[string]bool{}
	for _, t := range c.Transitions {
		out[fmt.Sprintf("%s -> %s on %s", t.From, t.To, t.Event)] = true
	}
	return out
}
