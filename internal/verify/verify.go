package verify

import (
	"fmt"
	"strings"

	"repro/internal/glob"
	"repro/internal/policy"
	"repro/internal/sys"
)

// Violation is one invariant failure with its concrete witness: the
// trace that enters the offending state and, for access invariants, the
// object path, operation, and deciding rule. Witness traces replay
// against the live system — deliver the events (or force the pseudo-
// steps) and System.Check reproduces the verdict.
type Violation struct {
	Invariant string // source line of the violated invariant
	Kind      Kind
	State     string   // offending situation state ("" when state-independent)
	Trace     []string // how the SSM reaches State from the initial state
	Subject   string   // access witness: subject ("" = unconfined)
	Op        string   // access witness: operation name
	Path      string   // access witness: object path
	Rule      string   // deciding rule in policy syntax, when one matched
	Detail    string   // human-readable explanation
}

// String renders the violation with its witness on following lines.
func (v Violation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "violated: %s\n  %s", v.Invariant, v.Detail)
	if len(v.Trace) > 0 {
		fmt.Fprintf(&sb, "\n  trace: %s", strings.Join(v.Trace, " "))
	}
	if v.Path != "" {
		fmt.Fprintf(&sb, "\n  witness: subject %s may %s %s", subjectWord(v.Subject), v.Op, v.Path)
	}
	if v.Rule != "" {
		fmt.Fprintf(&sb, "\n  rule: %s", v.Rule)
	}
	return sb.String()
}

// Report is the outcome of checking one policy against one invariant set.
type Report struct {
	Invariants  int // invariants checked
	States      int // situation states explored
	Transitions int // transition edges explored
	Violations  []Violation
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Render prints the report for terminals (sackctl verify) and HTTP
// bodies (the fleetd publish gate).
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verified %d invariants over %d states, %d transitions\n",
		r.Invariants, r.States, r.Transitions)
	if r.OK() {
		sb.WriteString("all invariants hold\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "%d violation(s)\n", len(r.Violations))
	for _, v := range r.Violations {
		sb.WriteString(v.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// explorer pre-computes the reachability ground truth (shared with
// Validate via policy.Reachability) and one witness trace per state.
type explorer struct {
	c      *policy.Compiled
	kinds  map[string]policy.EntryKind
	traces map[string][]string
}

func newExplorer(c *policy.Compiled) *explorer {
	e := &explorer{c: c, kinds: c.Reachability(), traces: make(map[string][]string)}

	type hop struct{ prev, event string }
	bfsTraces := func(root string, prefix []string) map[string][]string {
		parents := map[string]hop{root: {}}
		queue := []string{root}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, t := range c.Transitions {
				if t.From != cur || t.To == cur {
					continue
				}
				if _, seen := parents[t.To]; seen {
					continue
				}
				parents[t.To] = hop{prev: cur, event: t.Event}
				queue = append(queue, t.To)
			}
		}
		out := make(map[string][]string, len(parents))
		for s := range parents {
			var steps []string
			for cur := s; cur != root; cur = parents[cur].prev {
				steps = append(steps, fmt.Sprintf("-[%s]-> %s", parents[cur].event, cur))
			}
			// steps were collected target-first; reverse into delivery order.
			for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
				steps[i], steps[j] = steps[j], steps[i]
			}
			out[s] = append(append([]string{}, prefix...), steps...)
		}
		return out
	}

	normal := bfsTraces(c.Initial, []string{"start: " + c.Initial})
	for s, tr := range normal {
		e.traces[s] = tr
	}
	if c.Failsafe != "" {
		degraded := bfsTraces(c.Failsafe,
			[]string{"start: " + c.Initial, "-[«pipeline degradation»]-> " + c.Failsafe})
		for s, tr := range degraded {
			if _, ok := e.traces[s]; !ok {
				e.traces[s] = tr
			}
		}
	}
	for _, s := range c.StateNames() {
		if _, ok := e.traces[s]; !ok {
			e.traces[s] = []string{"start: " + c.Initial, "-[«break-glass»]-> " + s}
		}
	}
	return e
}

// operational reports whether normal operation (including watchdog
// degradation) can occupy the state — the scope of `always` and
// `reachable` invariants. Break-glass entries are excluded there: an
// administrator force is not operation.
func (e *explorer) operational(state string) bool {
	k, ok := e.kinds[state]
	return ok && k != policy.EntryBreakGlass
}

// Check explores the SSM product space of the compiled policy against
// the invariant set.
//
// Soundness: every reported access violation replays on the live
// engine — the witness (subject, path, op) is re-decided through the
// state's rule set before being reported, so a `never` violation is a
// real reachable allow, never an artifact of the search. When a deny
// rule carves the first synthesized witness out of an allow glob,
// witness synthesis keeps going: salted intersection enumeration
// (glob.IntersectK) proposes paths from different regions of the
// patterns' common language until one escapes the carve-outs or the
// enumeration budget is spent.
func Check(c *policy.Compiled, set *Set) *Report {
	e := newExplorer(c)
	rep := &Report{Invariants: set.Len(), States: len(c.States), Transitions: len(c.Transitions)}

	declared := make(map[string]bool)
	for _, s := range c.StateNames() {
		declared[s] = true
	}

	for _, inv := range set.Invariants {
		switch inv.Kind {
		case KindReachable:
			s := inv.States[0]
			if !declared[s] {
				rep.add(inv, Violation{State: s,
					Detail: fmt.Sprintf("state %s is not declared by the policy", s)})
				continue
			}
			if !e.operational(s) {
				rep.add(inv, Violation{State: s, Trace: e.traces[s],
					Detail: fmt.Sprintf("state %s is %s: no event path reaches it in normal operation", s, e.kinds[s])})
			}

		case KindAlwaysIn:
			allowed := make(map[string]bool, len(inv.States))
			for _, s := range inv.States {
				allowed[s] = true
			}
			for _, s := range c.StateNames() {
				if e.operational(s) && !allowed[s] {
					rep.add(inv, Violation{State: s, Trace: e.traces[s],
						Detail: fmt.Sprintf("operation can occupy state %s, outside {%s}", s, strings.Join(inv.States, ", "))})
				}
			}

		case KindAlwaysNot:
			s := inv.States[0]
			if declared[s] && e.operational(s) {
				rep.add(inv, Violation{State: s, Trace: e.traces[s],
					Detail: fmt.Sprintf("operation can occupy forbidden state %s", s)})
			}

		case KindNever:
			scope := inv.States
			if len(scope) == 0 {
				scope = c.StateNames() // full product space: break-glass enters anything
			}
			for _, s := range scope {
				if !declared[s] {
					continue // vacuous: shared baselines span heterogeneous policies
				}
				if v, found := e.findNeverWitness(s, inv); found {
					rep.add(inv, v)
				}
			}

		case KindImpliesAllow:
			s := inv.States[0]
			if !declared[s] {
				continue // vacuous for policies without the state
			}
			rs := c.StateSets[s]
			ok, rule := rs.Decide(inv.Subject, inv.Path, inv.Access)
			if ok {
				continue
			}
			v := Violation{State: s, Trace: e.traces[s], Subject: inv.Subject,
				Op: strings.Join(inv.Ops, ","), Path: inv.Path,
				Detail: fmt.Sprintf("state %s does not grant subject %s %s on %s",
					s, subjectWord(inv.Subject), strings.Join(inv.Ops, ","), inv.Path)}
			if rule != nil {
				v.Rule = rule.String()
			}
			rep.add(inv, v)
		}
	}
	return rep
}

func (r *Report) add(inv Invariant, v Violation) {
	v.Invariant = inv.Source
	v.Kind = inv.Kind
	r.Violations = append(r.Violations, v)
}

// neverWitnessBudget bounds how many distinct intersection witnesses
// are proposed per (invariant, allow-rule) pair before conceding to a
// deny carve-out. Each candidate costs one trie decision; the budget
// only matters when deny rules swallow the early candidates.
const neverWitnessBudget = 16

// findNeverWitness searches state s for an object matching the
// invariant glob that the state's rule set grants to the invariant's
// subject. Witness candidates come from exact glob intersection between
// the invariant pattern and each overlapping allow rule (plus an
// exemplar probe of the invariant pattern itself); each candidate is
// confirmed through RuleSet.Decide before being reported, so the
// witness is live, not symbolic. Candidates a deny rule carves out of
// the allow glob are not the end of the search: salted enumeration
// proposes further paths from the intersection language until one
// escapes the carve-outs or the budget is spent.
func (e *explorer) findNeverWitness(s string, inv Invariant) (Violation, bool) {
	rs := e.c.StateSets[s]
	if rs == nil {
		return Violation{}, false
	}
	confirm := func(path string) (Violation, bool) {
		for _, op := range inv.Ops {
			bit := sys.ParseAccess(op)
			if ok, rule := rs.Decide(inv.Subject, path, bit); ok {
				v := Violation{State: s, Trace: e.traces[s], Subject: inv.Subject,
					Op: op, Path: path,
					Detail: fmt.Sprintf("state %s grants subject %s %s on %s",
						s, subjectWord(inv.Subject), op, path)}
				if rule != nil {
					v.Rule = rule.String()
				}
				return v, true
			}
		}
		return Violation{}, false
	}

	invSplit := inv.Glob.Split()
	for _, r := range rs.Rules() {
		if r.Deny || r.Access&inv.Access == 0 {
			continue
		}
		if r.Subject != nil && !r.Subject.Match(inv.Subject) {
			continue
		}
		if ws, res := glob.IntersectK(invSplit, r.Pattern.Split(), neverWitnessBudget); res == glob.IntersectFound {
			for _, w := range ws {
				if v, found := confirm(w); found {
					return v, true
				}
			}
		}
	}
	// Secondary probe: an exemplar of the invariant pattern itself. This
	// catches rules whose patterns the intersection cannot segment-index
	// but that still cover the invariant glob's simplest instance.
	for _, br := range inv.Glob.Branches() {
		if w := glob.Exemplar(br); w != "" && inv.Glob.Match(w) {
			if v, found := confirm(w); found {
				return v, true
			}
		}
	}
	return Violation{}, false
}
