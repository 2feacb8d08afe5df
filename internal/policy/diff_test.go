package policy

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func mustLoad(t *testing.T, src string) *Compiled {
	t.Helper()
	c, vr, err := Load(src)
	if err != nil || !vr.OK() {
		t.Fatalf("Load: %v %v", err, vr)
	}
	return c
}

const diffBase = `
states { normal = 0 emergency = 1 }
initial normal
permissions { READ DOORS }
state_per {
  normal: READ
  emergency: READ, DOORS
}
per_rules {
  READ  { allow read /dev/vehicle/** }
  DOORS { allow ioctl /dev/vehicle/door* }
}
transitions {
  normal -> emergency on crash
  emergency -> normal on clear
}
`

func TestDiffIdenticalIsEmpty(t *testing.T) {
	a := mustLoad(t, diffBase)
	b := mustLoad(t, diffBase)
	if changes := Diff(a, b); len(changes) != 0 {
		t.Fatalf("identical policies differ: %v", changes)
	}
	if FormatDiff(nil) != "" {
		t.Fatal("empty diff should format empty")
	}
}

func TestDiffDetectsAdditionsAndRemovals(t *testing.T) {
	a := mustLoad(t, diffBase)
	b := mustLoad(t, `
states { normal = 0 emergency = 1 lockdown = 2 }
initial normal
permissions { READ }
state_per {
  normal: READ
  emergency: READ
}
per_rules {
  READ { allow read /dev/vehicle/** }
}
transitions {
  normal -> emergency on crash
  emergency -> normal on clear
  normal -> lockdown on threat
}
`)
	text := FormatDiff(Diff(a, b))
	for _, frag := range []string{
		"state added: lockdown",
		"permission removed: DOORS",
		"rule removed: state emergency: allow ioctl /dev/vehicle/door*",
		"transition added: normal -> lockdown on threat",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("diff missing %q:\n%s", frag, text)
		}
	}
}

func TestDiffDetectsEncodingAndInitialChanges(t *testing.T) {
	a := mustLoad(t, "states { x = 0 y = 1 }\ninitial x")
	b := mustLoad(t, "states { x = 5 y = 1 }\ninitial y")
	text := FormatDiff(Diff(a, b))
	if !strings.Contains(text, "initial changed: x -> y") {
		t.Errorf("missing initial change:\n%s", text)
	}
	if !strings.Contains(text, "x encoding 0 -> 5") {
		t.Errorf("missing encoding change:\n%s", text)
	}
}

func TestDiffRuleChangeWithinState(t *testing.T) {
	a := mustLoad(t, diffBase)
	b := mustLoad(t, strings.Replace(diffBase,
		"allow ioctl /dev/vehicle/door*",
		"allow ioctl,write /dev/vehicle/door*", 1))
	text := FormatDiff(Diff(a, b))
	if !strings.Contains(text, "rule removed: state emergency: allow ioctl /dev/vehicle/door*") {
		t.Errorf("old rule not reported removed:\n%s", text)
	}
	if !strings.Contains(text, "rule added: state emergency: allow write,ioctl /dev/vehicle/door*") {
		t.Errorf("new rule not reported added:\n%s", text)
	}
}

// Property: Diff(a, b) and Diff(b, a) have mirrored added/removed counts.
func TestDiffSymmetry(t *testing.T) {
	a := mustLoad(t, diffBase)
	b := mustLoad(t, strings.Replace(diffBase, "emergency = 1", "emergency = 1\n  valet = 2", 1))
	ab := Diff(a, b)
	ba := Diff(b, a)
	count := func(changes []Change, action string) int {
		n := 0
		for _, c := range changes {
			if c.Action == action {
				n++
			}
		}
		return n
	}
	if count(ab, "added") != count(ba, "removed") || count(ab, "removed") != count(ba, "added") {
		t.Fatalf("asymmetric diff:\nab=%v\nba=%v", ab, ba)
	}
}

// ReferenceDiff is the rendering diff: it renders every rule of every
// state and compares the strings, and builds every state, permission
// and transition set. It is the oracle Diff must match byte for byte
// (TestDiffMatchesReference), exported so the external tests can judge
// reload reports by it.
func ReferenceDiff(old, new *Compiled) []Change {
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
		oldRules := refRuleStrings(oldRS)
		newRules := refRuleStrings(newRS)
		for _, r := range refMissingFrom(oldRules, newRules) {
			out = append(out, Change{Kind: "rule", Action: "removed",
				Detail: fmt.Sprintf("state %s: %s", name, r)})
		}
		for _, r := range refMissingFrom(newRules, oldRules) {
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

func refRuleStrings(rs *RuleSet) map[string]bool {
	out := map[string]bool{}
	if rs == nil {
		return out
	}
	for _, r := range rs.Rules() {
		out[r.String()] = true
	}
	return out
}

// refMissingFrom returns the sorted keys of a that are absent from b.
func refMissingFrom(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
