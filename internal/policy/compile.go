package policy

import (
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/glob"
	"repro/internal/sys"
)

// CompiledRule is one MAC rule ready for enforcement.
type CompiledRule struct {
	Pattern *glob.Glob
	Access  sys.Access
	Deny    bool
	Subject *glob.Glob // nil: applies to every subject
	Perm    string     // owning SACK permission, for audit messages
}

// Matches reports whether the rule applies to the subject/path pair.
func (r *CompiledRule) Matches(subject, path string) bool {
	if r.Subject != nil && !r.Subject.Match(subject) {
		return false
	}
	return r.Pattern.Match(path)
}

// String renders the rule in policy syntax.
func (r *CompiledRule) String() string {
	verb := "allow"
	if r.Deny {
		verb = "deny"
	}
	s := verb + " " + r.Access.String() + " " + r.Pattern.String()
	if r.Subject != nil {
		s += " subject " + r.Subject.String()
	}
	return s
}

// RuleSet is the immutable set of MAC rules active in one situation
// state. Rules are bucketed by the first literal path segment so the
// per-check cost stays flat as policies grow (the property behind the
// paper's Table III). Patterns whose first segment contains a
// metacharacter land in the wildcard bucket checked on every lookup.
type RuleSet struct {
	State string
	// rules is a view: pointers into the rule table the set was built
	// over (a compiled policy's shares it among every state), in state
	// order; a rule the state lists twice appears twice.
	rules    []*CompiledRule
	buckets  map[string][]int // first path segment -> rule indices
	wildcard []int            // rules with non-literal first segment

	// matcher is the trie-compiled decision engine over the same rules,
	// built once here (compile/publish time) and exact with respect to
	// Decide.
	matcher *Matcher

	// details memoises denial audit details (see Detail): one list per
	// matcher rank, then one for NoRule.
	details []atomic.Pointer[detailNode]
}

// NewRuleSet builds a rule set for a state, including its trie-compiled
// matcher over a trie of its own rules (the publish-time compilation
// step of DESIGN.md §10). The set is a view over rules, which the
// caller must not modify afterwards.
func NewRuleSet(state string, rules []CompiledRule) *RuleSet {
	view := make([]*CompiledRule, len(rules))
	patterns := make([]*glob.Glob, len(rules))
	ids := make([]int32, len(rules))
	for i := range rules {
		view[i] = &rules[i]
		patterns[i] = rules[i].Pattern
		ids[i] = int32(i)
	}
	t := newTrie(patterns)
	return newRuleSet(state, view, &t, ids)
}

// newRuleSet builds a rule set whose matcher is a view over t, where
// ids[i] is the trie pattern id of rules[i].Pattern.
func newRuleSet(state string, rules []*CompiledRule, t *trie, ids []int32) *RuleSet {
	rs := &RuleSet{State: state, rules: rules, buckets: make(map[string][]int)}
	order := make([]int, 0, len(rules))
	for i, r := range rules {
		seg, literal := firstSegment(r.Pattern.String())
		if literal {
			rs.buckets[seg] = append(rs.buckets[seg], i)
			order = append(order, i)
		} else {
			rs.wildcard = append(rs.wildcard, i)
		}
	}
	rs.matcher = newMatcher(t, rules, ids, append(order, rs.wildcard...))
	rs.details = make([]atomic.Pointer[detailNode], len(rules)+1)
	return rs
}

// DetailFunc renders the audit detail of a denial: the requested mask,
// the deciding rule (nil when no allow rule granted the mask) and the
// rule set's state.
type DetailFunc func(mask sys.Access, rule *CompiledRule, state string) string

// detailNode is one memoised detail, prepended to its rank's list.
type detailNode struct {
	mask sys.Access
	text string
	next *detailNode
}

func (n *detailNode) find(mask sys.Access) (string, bool) {
	for ; n != nil; n = n.next {
		if n.mask == mask {
			return n.text, true
		}
	}
	return "", false
}

// Detail returns the audit detail of a denial the rule set's matcher
// decided with rank (NoRule: no allow rule granted mask), rendering it
// at most once per (rank, mask) and sharing that one string with every
// later denial. A detail depends only on the rule set, the deciding
// rule and the mask, and a rule set is immutable, so the memo needs no
// invalidation: a reload or a rewritten profile brings a new rule set.
// It is lock-free: a filler prepends with a CAS, and one that loses the
// race to the same mask returns the winner's string. Its size is
// bounded by rules × distinct masks. A rule set serves one renderer;
// every caller must pass the same.
func (rs *RuleSet) Detail(rank int, mask sys.Access, render DetailFunc) string {
	slot := &rs.details[len(rs.details)-1]
	if rank != NoRule {
		slot = &rs.details[rank]
	}
	head := slot.Load()
	if text, ok := head.find(mask); ok {
		return text
	}
	n := &detailNode{mask: mask, text: render(mask, rs.matcher.Rule(rank), rs.State), next: head}
	for !slot.CompareAndSwap(head, n) {
		head = slot.Load()
		if text, ok := head.find(mask); ok {
			return text
		}
		n.next = head
	}
	return n.text
}

// Matcher returns the trie-compiled decision engine for this rule set.
// It is never nil.
func (rs *RuleSet) Matcher() *Matcher { return rs.matcher }

// firstSegment extracts the first path component of a pattern and
// whether it is metacharacter-free.
func firstSegment(pattern string) (string, bool) {
	p := strings.TrimPrefix(pattern, "/")
	end := strings.IndexByte(p, '/')
	if end < 0 {
		end = len(p)
	}
	seg := p[:end]
	return seg, !strings.ContainsAny(seg, "*?[{")
}

// Len reports the number of rules in the set.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// Rules returns a copy of the rule list.
func (rs *RuleSet) Rules() []CompiledRule {
	out := make([]CompiledRule, len(rs.rules))
	for i, r := range rs.rules {
		out[i] = *r
	}
	return out
}

// Decide evaluates an access request. Deny rules veto; otherwise every
// requested bit must be granted. matched reports the deciding rule for
// audit (nil when nothing matched). It is the glob-walk reference
// oracle; enforcement runs the rule set's Matcher, which is exact with
// respect to it.
func (rs *RuleSet) Decide(subject, path string, mask sys.Access) (allowed bool, matched *CompiledRule) {
	var granted sys.Access
	var lastAllow *CompiledRule

	check := func(idx int) (deny bool) {
		r := rs.rules[idx]
		if !r.Matches(subject, path) {
			return false
		}
		if r.Deny {
			if mask&r.Access != 0 {
				lastAllow = r
				return true
			}
			return false
		}
		if r.Access&mask != 0 {
			granted |= r.Access
			lastAllow = r
		}
		return false
	}

	seg, _ := firstSegment(path)
	for _, idx := range rs.buckets[seg] {
		if check(idx) {
			return false, lastAllow
		}
	}
	for _, idx := range rs.wildcard {
		if check(idx) {
			return false, lastAllow
		}
	}
	if granted.Has(mask) {
		return true, lastAllow
	}
	return false, nil
}

// DecideLinear evaluates the same decision as Decide with a full linear
// scan over every rule, ignoring the first-segment index. It exists for
// the ablation benchmarks that quantify what the index buys.
func (rs *RuleSet) DecideLinear(subject, path string, mask sys.Access) (allowed bool, matched *CompiledRule) {
	var granted sys.Access
	var lastAllow *CompiledRule
	for _, r := range rs.rules {
		if !r.Matches(subject, path) {
			continue
		}
		if r.Deny {
			if mask&r.Access != 0 {
				return false, r
			}
			continue
		}
		if r.Access&mask != 0 {
			granted |= r.Access
			lastAllow = r
		}
	}
	if granted.Has(mask) {
		return true, lastAllow
	}
	return false, nil
}

// Coverage is the union of every rule pattern across all states; SACK
// only mediates objects the policy covers, passing everything else to
// the next LSM. Its trie is the one every state's Matcher walks.
type Coverage struct {
	buckets  map[string][]*glob.Glob
	wildcard []*glob.Glob
	trie     trie // by value: the fast path reaches the root step in one hop
}

// NewCoverage indexes the patterns, both in the first-segment buckets
// the walk engine scans and in the segment trie the fast path walks; a
// pattern's trie id is its index in patterns.
func NewCoverage(patterns []*glob.Glob) *Coverage {
	c := &Coverage{buckets: make(map[string][]*glob.Glob)}
	for _, g := range patterns {
		seg, literal := firstSegment(g.String())
		if literal {
			c.buckets[seg] = append(c.buckets[seg], g)
		} else {
			c.wildcard = append(c.wildcard, g)
		}
	}
	c.trie = newTrie(patterns)
	return c
}

// Covers reports whether any policy pattern matches path — the trie
// walk: O(path segments), no glob-engine pass over the pattern list.
// Enforcement gets the same answer from Matcher.Evaluate's walk.
func (c *Coverage) Covers(path string) bool {
	var st matchState
	c.trie.match(RootStep{}, path, &st)
	return st.covered
}

// MayCover is the trie's root step alone: false means no pattern can
// match the path's first segment, so Covers is false too; true means
// only that Covers might be.
func (c *Coverage) MayCover(path string) bool {
	_, may := c.trie.rootStep(path)
	return may
}

// Root is MayCover that also returns the step it took, for the walk of
// any of the policy's state matchers (Matcher.EvaluateAt) to resume
// past. It lets the enforcement fast path pass most uncovered objects
// through without touching the AVC, and take the root step once on a
// miss.
func (c *Coverage) Root(path string) (step RootStep, may bool) {
	return c.trie.rootStep(path)
}

// CoversWalk answers the same question with the pre-trie bucket scan.
// It is the reference oracle for the matcher ablation benchmarks and
// the differential suite that proves the two engines agree; enforcement
// always uses Covers.
func (c *Coverage) CoversWalk(path string) bool {
	seg, _ := firstSegment(path)
	for _, g := range c.buckets[seg] {
		if g.Match(path) {
			return true
		}
	}
	for _, g := range c.wildcard {
		if g.Match(path) {
			return true
		}
	}
	return false
}

// NumPatterns reports the indexed pattern count.
func (c *Coverage) NumPatterns() int { return c.trie.size }

// StateInfo is a situation state: a name plus the numeric encoding used
// as a compact security context value in the kernel.
type StateInfo struct {
	Name     string
	Encoding uint32
}

// Event is a situation event name ("crash_detected", "ignition_on"...).
type Event string

// CompiledTransition is one transition rule TR_i: on Event in state
// From, move to state To.
type CompiledTransition struct {
	From  string
	To    string
	Event string
}

// transitionKey indexes the transition relation by (from state, event).
type transitionKey struct {
	from  string
	event Event
}

// Compiled is a fully validated, enforcement-ready policy: the paper's
// triple (SS_i, P_i, MR_i) materialised per state, plus the transition
// rules that drive the situation state machine.
type Compiled struct {
	States      []StateInfo
	Initial     string
	Failsafe    string // "" when the policy declares no failsafe state
	Permissions []string
	StatePerms  map[string][]string       // f: SS_i -> P_i
	PermRules   map[string][]CompiledRule // g: P_i -> MR_i, slices of one rule table
	StateSets   map[string]*RuleSet       // g(f(SS_i)) pre-composed, views over that table
	Transitions []CompiledTransition
	Coverage    *Coverage

	// next indexes Transitions by (from, event) — validation has made
	// the relation deterministic — and events holds every event some
	// transition reacts to.
	next   map[transitionKey]StateInfo
	events map[Event]bool
}

// Compile validates and lowers a parsed policy. Validation errors abort;
// warnings are returned alongside the result.
func Compile(f *File) (*Compiled, *ValidationResult, error) {
	vr, prepared := validateDecls(f)
	detectConflicts(vr, f, prepared)
	if err := vr.Err(); err != nil {
		return nil, vr, err
	}

	c := &Compiled{
		StatePerms: make(map[string][]string),
		PermRules:  make(map[string][]CompiledRule),
		StateSets:  make(map[string]*RuleSet),
	}

	// Assign encodings: explicit ones first, then lowest free values in
	// declaration order.
	used := make(map[uint32]bool)
	for _, s := range f.States {
		if s.Encoding != nil {
			used[*s.Encoding] = true
		}
	}
	var nextEnc uint32
	byName := make(map[string]StateInfo, len(f.States))
	for _, s := range f.States {
		enc := uint32(0)
		if s.Encoding != nil {
			enc = *s.Encoding
		} else {
			for used[nextEnc] {
				nextEnc++
			}
			enc = nextEnc
			used[enc] = true
		}
		st := StateInfo{Name: s.Name, Encoding: enc}
		c.States = append(c.States, st)
		byName[s.Name] = st
	}

	c.Initial = f.Initial
	if c.Initial == "" {
		c.Initial = f.States[0].Name
	}
	c.Failsafe = f.Failsafe
	c.Permissions = f.PermissionNames()

	for _, sp := range f.StatePer {
		c.StatePerms[sp.State] = append([]string(nil), sp.Perms...)
	}

	// The rule table: every rule once, in declaration order, lowered
	// from the globs and masks validation prepared. A permission's rules
	// are one run of it (validation rejects a second per_rules block),
	// a rule's index in it is its pattern's id in the coverage trie, and
	// every state's rule set below is a view over it, so a rule granted
	// in several states is stored once.
	table := make([]CompiledRule, len(prepared.all))
	patterns := make([]*glob.Glob, len(prepared.all))
	i := 0
	for _, pr := range f.PerRules {
		start := i
		for ; i < start+len(pr.Rules); i++ {
			p := &prepared.all[i]
			table[i] = CompiledRule{Pattern: p.path, Access: p.ops, Deny: p.Deny, Subject: p.subject, Perm: pr.Perm}
			patterns[i] = p.path
		}
		c.PermRules[pr.Perm] = table[start:i:i]
	}
	c.Coverage = NewCoverage(patterns)

	// Pre-compose g(f(SS)) for every state: the rule set the APE installs
	// on transition, so enforcement is one pointer swap (Algorithm 1).
	for _, s := range c.States {
		var rules []*CompiledRule
		var ids []int32
		for _, perm := range c.StatePerms[s.Name] {
			for _, id := range prepared.byPerm[perm] {
				rules = append(rules, &table[id])
				ids = append(ids, int32(id))
			}
		}
		c.StateSets[s.Name] = newRuleSet(s.Name, rules, &c.Coverage.trie, ids)
	}

	c.next = make(map[transitionKey]StateInfo, len(f.Transitions))
	c.events = make(map[Event]bool)
	for _, t := range f.Transitions {
		c.Transitions = append(c.Transitions, CompiledTransition{From: t.From, To: t.To, Event: t.Event})
		c.next[transitionKey{t.From, Event(t.Event)}] = byName[t.To]
		c.events[Event(t.Event)] = true
	}
	return c, vr, nil
}

// Next is one step of Algorithm 1: the state a transition rule moves
// from on ev, and whether any rule matches.
func (c *Compiled) Next(from string, ev Event) (StateInfo, bool) {
	to, ok := c.next[transitionKey{from, ev}]
	return to, ok
}

// KnowsEvent reports whether any transition rule, from any state,
// reacts to ev.
func (c *Compiled) KnowsEvent(ev Event) bool { return c.events[ev] }

// Events returns the sorted set of events any transition reacts to.
func (c *Compiled) Events() []Event {
	out := make([]Event, 0, len(c.events))
	for e := range c.events {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// State returns the named state and whether the policy declares it.
func (c *Compiled) State(name string) (StateInfo, bool) {
	for _, s := range c.States {
		if s.Name == name {
			return s, true
		}
	}
	return StateInfo{}, false
}

// StateNames returns the compiled state names in declaration order.
func (c *Compiled) StateNames() []string {
	out := make([]string, len(c.States))
	for i, s := range c.States {
		out[i] = s.Name
	}
	return out
}

// Encoding returns the numeric encoding of a state name.
func (c *Compiled) Encoding(state string) (uint32, bool) {
	st, ok := c.State(state)
	return st.Encoding, ok
}

// Load is the one-call front door: parse, validate, compile.
func Load(src string) (*Compiled, *ValidationResult, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return Compile(f)
}
