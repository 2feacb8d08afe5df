package policy

import (
	"cmp"
	"fmt"
	"slices"
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
//
// A reload's diff is mostly empty, so Diff pays for what changed, not
// for the policy's size: the same artifact is no change at all; a state,
// permission or transition list equal element by element to its old
// one is skipped; rules are compared structurally (pattern, access,
// deny, subject), and only the rules one side lists and the other does
// not are rendered. The report is the one rendering every rule of every
// state and comparing the strings would give.
func Diff(old, new *Compiled) []Change {
	if old == new {
		return nil
	}
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
	if !slices.Equal(old.States, new.States) {
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
	}

	// Permissions.
	if !slices.Equal(old.Permissions, new.Permissions) {
		out = appendSetDelta(out, "permission", toSet(old.Permissions), toSet(new.Permissions))
	}

	// Per-state effective rule sets (the operational meaning of the
	// policy), in state name order. A state new to the policy is skipped:
	// its addition is already reported and its rules are all new.
	type stateDelta struct {
		name           string
		removed, added []string
	}
	var deltas []stateDelta
	for _, st := range new.States {
		oldRS, ok := old.StateSets[st.Name]
		if !ok {
			continue
		}
		removed, added := ruleDelta(oldRS.rules, new.StateSets[st.Name].rules)
		if len(removed)+len(added) > 0 {
			deltas = append(deltas, stateDelta{st.Name, removed, added})
		}
	}
	slices.SortFunc(deltas, func(a, b stateDelta) int { return strings.Compare(a.name, b.name) })
	for _, d := range deltas {
		for _, r := range d.removed {
			out = append(out, Change{Kind: "rule", Action: "removed", Detail: "state " + d.name + ": " + r})
		}
		for _, r := range d.added {
			out = append(out, Change{Kind: "rule", Action: "added", Detail: "state " + d.name + ": " + r})
		}
	}

	// Transitions.
	if !slices.Equal(old.Transitions, new.Transitions) {
		out = appendSetDelta(out, "transition", transitionSet(old), transitionSet(new))
	}
	return out
}

// appendSetDelta appends a removed change for each key of old that new
// lacks, then an added change for each key of new that old lacks, each
// run in key order.
func appendSetDelta(out []Change, kind string, old, new map[string]bool) []Change {
	for _, k := range sortedKeys(old) {
		if !new[k] {
			out = append(out, Change{Kind: kind, Action: "removed", Detail: k})
		}
	}
	for _, k := range sortedKeys(new) {
		if !old[k] {
			out = append(out, Change{Kind: kind, Action: "added", Detail: k})
		}
	}
	return out
}

// ruleDelta renders, each list sorted, the rules old lists and new does
// not and the rules new lists and old does not. Rules compare as sets:
// order and repetition do not matter. Revisions leave most of a state's
// list in place, so the common prefix and suffix are skipped without
// allocating, and only the rest is sorted and merged.
func ruleDelta(old, new []*CompiledRule) (removed, added []string) {
	p := 0
	for p < len(old) && p < len(new) && compareRules(old[p], new[p]) == 0 {
		p++
	}
	if p == len(old) && p == len(new) {
		return nil, nil
	}
	q := 0
	for q < len(old)-p && q < len(new)-p && compareRules(old[len(old)-1-q], new[len(new)-1-q]) == 0 {
		q++
	}
	// The skipped rules are on both sides: a middle rule equal to one of
	// them (a repeated rule) is listed by both.
	kept := func(r *CompiledRule) bool {
		return slices.ContainsFunc(old[:p], func(k *CompiledRule) bool { return compareRules(k, r) == 0 }) ||
			slices.ContainsFunc(old[len(old)-q:], func(k *CompiledRule) bool { return compareRules(k, r) == 0 })
	}
	a := slices.Clone(old[p : len(old)-q])
	b := slices.Clone(new[p : len(new)-q])
	slices.SortFunc(a, compareRules)
	slices.SortFunc(b, compareRules)
	for i, j := 0, 0; i < len(a) || j < len(b); {
		c := 1
		switch {
		case i == len(a):
		case j == len(b):
			c = -1
		default:
			c = compareRules(a[i], b[j])
		}
		if c < 0 && !kept(a[i]) {
			removed = append(removed, a[i].String())
		}
		if c > 0 && !kept(b[j]) {
			added = append(added, b[j].String())
		}
		if c <= 0 {
			i = skipEqual(a, i)
		}
		if c >= 0 {
			j = skipEqual(b, j)
		}
	}
	sort.Strings(removed)
	sort.Strings(added)
	return removed, added
}

// skipEqual returns the index past the run of rules equal to rs[i].
func skipEqual(rs []*CompiledRule, i int) int {
	r := rs[i]
	for i++; i < len(rs) && compareRules(rs[i], r) == 0; i++ {
	}
	return i
}

// compareRules orders rules by what String renders: pattern, subject
// (none first), access, then allow before deny. It is 0 exactly when
// the two render the same.
func compareRules(a, b *CompiledRule) int {
	if a == b {
		return 0
	}
	if c := strings.Compare(a.Pattern.String(), b.Pattern.String()); c != 0 {
		return c
	}
	switch {
	case a.Subject == nil && b.Subject != nil:
		return -1
	case a.Subject != nil && b.Subject == nil:
		return 1
	case a.Subject != nil:
		if c := strings.Compare(a.Subject.String(), b.Subject.String()); c != 0 {
			return c
		}
	}
	if c := cmp.Compare(a.Access, b.Access); c != 0 {
		return c
	}
	switch {
	case a.Deny == b.Deny:
		return 0
	case b.Deny:
		return -1
	}
	return 1
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

func transitionSet(c *Compiled) map[string]bool {
	out := map[string]bool{}
	for _, t := range c.Transitions {
		out[fmt.Sprintf("%s -> %s on %s", t.From, t.To, t.Event)] = true
	}
	return out
}
