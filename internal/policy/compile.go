package policy

import (
	"sort"
	"strings"

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
	State    string
	rules    []CompiledRule
	buckets  map[string][]int // first path segment -> rule indices
	wildcard []int            // rules with non-literal first segment

	// matcher is the trie-compiled decision engine over the same rules,
	// built once here (compile/publish time) and exact with respect to
	// Decide.
	matcher *Matcher
}

// NewRuleSet builds a rule set for a state, including its trie-compiled
// matcher (the publish-time compilation step of DESIGN.md §10).
func NewRuleSet(state string, rules []CompiledRule) *RuleSet {
	rs := &RuleSet{State: state, rules: rules, buckets: make(map[string][]int)}
	for i := range rules {
		seg, literal := firstSegment(rules[i].Pattern.String())
		if literal {
			rs.buckets[seg] = append(rs.buckets[seg], i)
		} else {
			rs.wildcard = append(rs.wildcard, i)
		}
	}
	rs.matcher = newMatcher(rs)
	return rs
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
	copy(out, rs.rules)
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
		r := &rs.rules[idx]
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
	for i := range rs.rules {
		r := &rs.rules[i]
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
// the next LSM.
type Coverage struct {
	buckets  map[string][]*glob.Glob
	wildcard []*glob.Glob
	trie     *coverTrie
}

// NewCoverage indexes the patterns, both in the first-segment buckets
// the walk engine scans and in the segment trie the fast path probes.
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
	c.trie = newCoverTrie(patterns)
	return c
}

// Covers reports whether any policy pattern matches path — the trie
// walk: O(path segments) with early exit, no glob-engine pass over the
// pattern list.
func (c *Coverage) Covers(path string) bool {
	return c.trie.covers(path)
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
func (c *Coverage) NumPatterns() int {
	n := len(c.wildcard)
	for _, b := range c.buckets {
		n += len(b)
	}
	return n
}

// StateInfo pairs a state name with its encoding.
type StateInfo struct {
	Name     string
	Encoding uint32
}

// CompiledTransition is one SSM transition rule.
type CompiledTransition struct {
	From  string
	To    string
	Event string
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
	PermRules   map[string][]CompiledRule // g: P_i -> MR_i
	StateSets   map[string]*RuleSet       // g(f(SS_i)) pre-composed
	Transitions []CompiledTransition
	Coverage    *Coverage
}

// Compile validates and lowers a parsed policy. Validation errors abort;
// warnings are returned alongside the result.
func Compile(f *File) (*Compiled, *ValidationResult, error) {
	vr := Validate(f)
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
		c.States = append(c.States, StateInfo{Name: s.Name, Encoding: enc})
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

	var coverage []*glob.Glob
	for _, pr := range f.PerRules {
		for _, rd := range pr.Rules {
			cr, err := compileRule(pr.Perm, rd)
			if err != nil {
				return nil, vr, err // unreachable post-validation; defensive
			}
			c.PermRules[pr.Perm] = append(c.PermRules[pr.Perm], cr)
			coverage = append(coverage, cr.Pattern)
		}
	}
	c.Coverage = NewCoverage(coverage)

	// Pre-compose g(f(SS)) for every state: the rule set the APE installs
	// on transition, so enforcement is one pointer swap (Algorithm 1).
	for _, s := range c.States {
		var rules []CompiledRule
		for _, perm := range c.StatePerms[s.Name] {
			rules = append(rules, c.PermRules[perm]...)
		}
		c.StateSets[s.Name] = NewRuleSet(s.Name, rules)
	}

	for _, t := range f.Transitions {
		c.Transitions = append(c.Transitions, CompiledTransition{From: t.From, To: t.To, Event: t.Event})
	}
	return c, vr, nil
}

func compileRule(perm string, rd RuleDecl) (CompiledRule, error) {
	pattern, err := glob.Compile(rd.Path)
	if err != nil {
		return CompiledRule{}, err
	}
	var subject *glob.Glob
	if rd.Subject != "" {
		if subject, err = glob.Compile(rd.Subject); err != nil {
			return CompiledRule{}, err
		}
	}
	var mask sys.Access
	for _, op := range rd.Ops {
		mask |= sys.ParseAccess(op)
	}
	return CompiledRule{Pattern: pattern, Access: mask, Deny: rd.Deny, Subject: subject, Perm: perm}, nil
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
	for _, s := range c.States {
		if s.Name == state {
			return s.Encoding, true
		}
	}
	return 0, false
}

// EventNames returns the sorted set of events referenced by transitions.
func (c *Compiled) EventNames() []string {
	set := make(map[string]bool)
	for _, t := range c.Transitions {
		set[t.Event] = true
	}
	out := make([]string, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Load is the one-call front door: parse, validate, compile.
func Load(src string) (*Compiled, *ValidationResult, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return Compile(f)
}
