package policy

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/glob"
	"repro/internal/sys"
)

// Severity grades a validation finding.
type Severity int

// Severities.
const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Issue is one validation finding, positioned in the source.
type Issue struct {
	Severity Severity
	Pos      Pos
	Message  string
}

// String renders "error 3:4: message".
func (i Issue) String() string {
	return fmt.Sprintf("%s %s: %s", i.Severity, i.Pos, i.Message)
}

// ValidationResult aggregates all findings for a policy file.
type ValidationResult struct {
	Issues []Issue
}

// Errors returns only error-severity findings.
func (r *ValidationResult) Errors() []Issue {
	var out []Issue
	for _, i := range r.Issues {
		if i.Severity == Error {
			out = append(out, i)
		}
	}
	return out
}

// Warnings returns only warning-severity findings.
func (r *ValidationResult) Warnings() []Issue {
	var out []Issue
	for _, i := range r.Issues {
		if i.Severity == Warning {
			out = append(out, i)
		}
	}
	return out
}

// OK reports whether no errors were found (warnings allowed).
func (r *ValidationResult) OK() bool { return len(r.Errors()) == 0 }

// Err folds the error findings into a single error, or nil.
func (r *ValidationResult) Err() error {
	errs := r.Errors()
	if len(errs) == 0 {
		return nil
	}
	msgs := make([]string, len(errs))
	for i, e := range errs {
		msgs[i] = e.String()
	}
	return fmt.Errorf("policy: validation failed:\n  %s", strings.Join(msgs, "\n  "))
}

func (r *ValidationResult) errorf(pos Pos, format string, args ...any) {
	r.Issues = append(r.Issues, Issue{Severity: Error, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

func (r *ValidationResult) warnf(pos Pos, format string, args ...any) {
	r.Issues = append(r.Issues, Issue{Severity: Warning, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Validate performs the semantic checks the paper's "policy-checking
// tools" provide: reference integrity across the four interfaces,
// deterministic transitions, glob syntax, allow/deny conflicts, and
// reachability.
func Validate(f *File) *ValidationResult {
	r, rules := validateDecls(f)
	detectConflicts(r, f, rules)
	return r
}

// validateDecls runs every check but the allow/deny conflict pass and
// returns the per_rules section prepared for that pass.
func validateDecls(f *File) (*ValidationResult, preparedRules) {
	r := &ValidationResult{}

	// --- states ---
	if len(f.States) == 0 {
		r.errorf(Pos{1, 1}, "policy declares no situation states")
	}
	states := make(map[string]StateDecl, len(f.States))
	encodings := make(map[uint32]string)
	for _, s := range f.States {
		if _, dup := states[s.Name]; dup {
			r.errorf(s.Pos, "duplicate state %s", quoteIdent(s.Name))
			continue
		}
		states[s.Name] = s
		if s.Encoding != nil {
			if prev, taken := encodings[*s.Encoding]; taken {
				r.errorf(s.Pos, "state %s reuses encoding %d already assigned to %s",
					quoteIdent(s.Name), *s.Encoding, quoteIdent(prev))
			} else {
				encodings[*s.Encoding] = s.Name
			}
		}
	}

	// --- initial state ---
	initial := f.Initial
	if initial == "" && len(f.States) > 0 {
		initial = f.States[0].Name
	}
	if initial != "" {
		if _, ok := states[initial]; !ok {
			r.errorf(f.InitialPos, "initial state %s is not declared", quoteIdent(initial))
		}
	}

	// --- failsafe state ---
	if f.Failsafe != "" {
		if _, ok := states[f.Failsafe]; !ok {
			r.errorf(f.FailsafePos, "failsafe state %s is not declared", quoteIdent(f.Failsafe))
		}
	}

	// --- permissions ---
	perms := make(map[string]PermDecl, len(f.Permissions))
	for _, p := range f.Permissions {
		if _, dup := perms[p.Name]; dup {
			r.errorf(p.Pos, "duplicate permission %s", quoteIdent(p.Name))
			continue
		}
		perms[p.Name] = p
	}

	// --- events ---
	events := make(map[string]EventDecl, len(f.Events))
	for _, e := range f.Events {
		if _, dup := events[e.Name]; dup {
			r.errorf(e.Pos, "duplicate event %s", quoteIdent(e.Name))
			continue
		}
		events[e.Name] = e
	}

	// --- state_per ---
	statePerSeen := make(map[string]bool)
	grantedPerms := make(map[string]bool)
	for _, sp := range f.StatePer {
		if _, ok := states[sp.State]; !ok {
			r.errorf(sp.Pos, "state_per references undeclared state %s", quoteIdent(sp.State))
		}
		if statePerSeen[sp.State] {
			r.errorf(sp.Pos, "state %s appears twice in state_per", quoteIdent(sp.State))
		}
		statePerSeen[sp.State] = true
		permSeen := make(map[string]bool)
		for _, pm := range sp.Perms {
			if _, ok := perms[pm]; !ok {
				r.errorf(sp.Pos, "state_per for %s references undeclared permission %s",
					quoteIdent(sp.State), quoteIdent(pm))
			}
			if permSeen[pm] {
				r.warnf(sp.Pos, "permission %s listed twice for state %s", quoteIdent(pm), quoteIdent(sp.State))
			}
			permSeen[pm] = true
			grantedPerms[pm] = true
		}
	}

	// --- per_rules ---
	perRulesSeen := make(map[string]bool)
	nRules := 0
	for _, pr := range f.PerRules {
		nRules += len(pr.Rules)
	}
	rules := preparedRules{all: make([]conflictRule, 0, nRules),
		byPerm: make(map[string][]int, len(f.PerRules)), globs: make(map[string]compiledGlob)}
	for _, pr := range f.PerRules {
		if _, ok := perms[pr.Perm]; !ok {
			r.errorf(pr.Pos, "per_rules references undeclared permission %s", quoteIdent(pr.Perm))
		}
		if perRulesSeen[pr.Perm] {
			r.errorf(pr.Pos, "permission %s has two per_rules blocks", quoteIdent(pr.Perm))
		}
		perRulesSeen[pr.Perm] = true
		if len(pr.Rules) == 0 {
			r.warnf(pr.Pos, "permission %s has an empty per_rules block", quoteIdent(pr.Perm))
		}
		if rules.byPerm[pr.Perm] == nil {
			rules.byPerm[pr.Perm] = make([]int, 0, len(pr.Rules))
		}
		for _, rule := range pr.Rules {
			rules.byPerm[pr.Perm] = append(rules.byPerm[pr.Perm], len(rules.all))
			rules.all = append(rules.all, rules.validateRule(r, rule))
		}
	}
	// Declaration order, not map order, so the findings are deterministic.
	for _, p := range f.Permissions {
		if perms[p.Name] != p {
			continue // a duplicate, reported above
		}
		if !perRulesSeen[p.Name] {
			r.warnf(p.Pos, "permission %s has no per_rules block (grants nothing)", quoteIdent(p.Name))
		}
		if !grantedPerms[p.Name] {
			r.warnf(p.Pos, "permission %s is never granted by any state", quoteIdent(p.Name))
		}
	}

	// --- transitions ---
	type transKey struct{ from, event string }
	transSeen := make(map[transKey]string)
	adjacency := make(map[string][]string)
	for _, t := range f.Transitions {
		if _, ok := states[t.From]; !ok {
			r.errorf(t.Pos, "transition source state %s is not declared", quoteIdent(t.From))
		}
		if _, ok := states[t.To]; !ok {
			r.errorf(t.Pos, "transition target state %s is not declared", quoteIdent(t.To))
		}
		if len(f.Events) > 0 {
			if _, ok := events[t.Event]; !ok {
				r.errorf(t.Pos, "transition uses undeclared event %s", quoteIdent(t.Event))
			}
		}
		key := transKey{t.From, t.Event}
		if to, dup := transSeen[key]; dup {
			if to == t.To {
				r.warnf(t.Pos, "duplicate transition %s -> %s on %s", quoteIdent(t.From), quoteIdent(t.To), quoteIdent(t.Event))
			} else {
				r.errorf(t.Pos, "nondeterministic transition: %s on %s goes to both %s and %s",
					quoteIdent(t.From), quoteIdent(t.Event), quoteIdent(to), quoteIdent(t.To))
			}
		}
		transSeen[key] = t.To
		adjacency[t.From] = append(adjacency[t.From], t.To)
		if t.From == t.To {
			r.warnf(t.Pos, "self-transition %s on %s has no effect on permissions", quoteIdent(t.From), quoteIdent(t.Event))
		}
	}

	// --- reachability ---
	// Classification is shared with the symbolic verifier (reach.go), so
	// the warning classes here and the verifier's reachable set can never
	// disagree. Failsafe-only and break-glass-only states get distinct
	// warnings: both are invisible to normal operation, but the former is
	// entered by the watchdog while the latter needs a CAP_MAC_ADMIN
	// break-glass force — dead policy unless that is the intent.
	if initial != "" && len(f.Transitions) > 0 {
		names := make([]string, 0, len(f.States))
		for _, s := range f.States {
			names = append(names, s.Name)
		}
		kinds := classifyReachability(names, initial, f.Failsafe, adjacency)
		for _, s := range f.States {
			switch kinds[s.Name] {
			case EntryFailsafe:
				if s.Name != f.Failsafe {
					r.warnf(s.Pos, "state %s is only reachable after failsafe degradation pins %s (no normal event path from %s)",
						quoteIdent(s.Name), quoteIdent(f.Failsafe), quoteIdent(initial))
				}
			case EntryBreakGlass:
				r.warnf(s.Pos, "state %s is unreachable from the initial state %s (only break-glass can enter it)",
					quoteIdent(s.Name), quoteIdent(initial))
			}
		}
	}

	return r, rules
}

// conflictRule is one MAC rule prepared for the conflict pass: its
// patterns compiled and its operations folded once per Validate, not
// once per rule pair. Compile lowers the same preparation into the
// policy's rule table, so no rule is compiled twice.
type conflictRule struct {
	RuleDecl
	path    *glob.Glob // nil when the pattern does not compile
	subject *glob.Glob // nil without a (compilable) subject
	ops     sys.Access
	prefix  string // path.LiteralPrefix(); "" when path is nil
}

// preparedRules is the per_rules section as the conflict pass reads it:
// every rule in declaration order, and each permission's rules as
// indices into all.
type preparedRules struct {
	all    []conflictRule
	byPerm map[string][]int

	// globs compiles each distinct pattern text once: rules that repeat
	// a path or a subject share one *glob.Glob.
	globs map[string]compiledGlob
}

type compiledGlob struct {
	g   *glob.Glob
	err error
}

func (p *preparedRules) compile(pattern string) (*glob.Glob, error) {
	c, ok := p.globs[pattern]
	if !ok {
		c.g, c.err = glob.Compile(pattern)
		p.globs[pattern] = c
	}
	return c.g, c.err
}

// validateRule checks operation names, glob syntax, and intra-rule
// consistency for one MAC rule, and returns it prepared for the
// conflict pass.
func (p *preparedRules) validateRule(r *ValidationResult, rule RuleDecl) conflictRule {
	cr := conflictRule{RuleDecl: rule}
	seen := make(map[string]bool)
	for _, op := range rule.Ops {
		acc := sys.ParseAccess(op)
		if acc == 0 {
			r.errorf(rule.Pos, "unknown operation %s (valid: %s)", quoteIdent(op), strings.Join(sys.AccessNames(), ", "))
		}
		cr.ops |= acc
		if seen[op] {
			r.warnf(rule.Pos, "operation %s repeated in rule", quoteIdent(op))
		}
		seen[op] = true
	}
	if g, err := p.compile(rule.Path); err != nil {
		r.errorf(rule.Pos, "bad path pattern: %v", err)
	} else {
		cr.path, cr.prefix = g, g.LiteralPrefix()
	}
	if rule.Subject != "" {
		if g, err := p.compile(rule.Subject); err != nil {
			r.errorf(rule.Pos, "bad subject pattern: %v", err)
		} else {
			cr.subject = g
		}
	}
	return cr
}

// candidate is an allow/deny pair of the policy's rules that may
// conflict in a state granting both: indices into preparedRules.all.
type candidate struct {
	deny, allow int32
}

// conflictCandidates lists, once per policy, every allow/deny pair that
// passes the cheap tests: the masks share a bit, one literal prefix
// extends the other (a literal prefix is a required prefix of every
// match, so any other pair is disjoint), and the subjects are not two
// different literals (two processes). The deny rules and the allow
// rules are each sorted by prefix, so the rules whose prefix extends p
// form one run starting at p's sort position: each deny pairs with the
// allows whose prefix extends its own, and each allow with the denies
// whose prefix strictly extends its own, so every related pair is
// visited once and unrelated pairs are never visited.
func conflictCandidates(rules []conflictRule) []candidate {
	var denies, allows []int32
	for i := range rules {
		if rules[i].Deny {
			denies = append(denies, int32(i))
		} else {
			allows = append(allows, int32(i))
		}
	}
	byPrefix := func(a, b int32) int { return strings.Compare(rules[a].prefix, rules[b].prefix) }
	slices.SortFunc(denies, byPrefix)
	slices.SortFunc(allows, byPrefix)

	var out []candidate
	keep := func(d, a int32) {
		if rules[d].ops&rules[a].ops != 0 && !distinctLiterals(rules[d].subject, rules[a].subject) {
			out = append(out, candidate{deny: d, allow: a})
		}
	}
	for _, d := range denies {
		p := rules[d].prefix
		k := sort.Search(len(allows), func(k int) bool { return rules[allows[k]].prefix >= p })
		for ; k < len(allows) && strings.HasPrefix(rules[allows[k]].prefix, p); k++ {
			keep(d, allows[k])
		}
	}
	for _, a := range allows {
		p := rules[a].prefix
		// Strictly greater: equal prefixes were paired from the deny side.
		k := sort.Search(len(denies), func(k int) bool { return rules[denies[k]].prefix > p })
		for ; k < len(denies) && strings.HasPrefix(rules[denies[k]].prefix, p); k++ {
			keep(denies[k], a)
		}
	}
	return out
}

// distinctLiterals reports whether two subjects are two different
// literal executables, which no process can be at once.
func distinctLiterals(a, b *glob.Glob) bool {
	return a != nil && b != nil && a.Literal() && b.Literal() && a.String() != b.String()
}

// detectConflicts finds allow/deny pairs that target overlapping paths
// with overlapping operations within the rule set a single state
// activates. Deny always wins at runtime; the check surfaces the
// contradiction so administrators see it before deployment.
//
// Cost model: the pass follows the rule count, not rule pairs × states.
// conflictCandidates finds the pairs that may conflict once per policy
// with two sorts and one run per rule over the related prefixes. Each
// state then visits only the candidates whose two rules it grants, at
// every pair of positions the two take in its rule list (a permission
// listed twice puts its rules at two positions), decides each ordered
// pair once per Validate with glob intersection (a verdict and its
// witness depend on the argument order, not on the state), and reports
// the conflicts in position order (i < j), the order the plain
// all-pairs pass reports them in.
func detectConflicts(r *ValidationResult, f *File, rules preparedRules) {
	cands := conflictCandidates(rules.all)
	type verdict struct {
		known, overlap bool
		witness        string
	}
	// verdicts[c][0]: the deny precedes the allow in the state's list.
	verdicts := make([][2]verdict, len(cands))
	type hit struct {
		i, j    int32         // positions of the pair's rules in the state's list
		a, b    *conflictRule // the rules at i and j
		witness string
	}
	var hits []hit
	// first[rule] is the rule's first position in the current state's
	// list (-1: not granted), next[pos] its next position.
	first := make([]int32, len(rules.all))
	for k := range first {
		first[k] = -1
	}
	var all []int
	var next []int32
	var msg []byte
	x := intersections{splits: make(map[*glob.Glob]glob.Split), disjoint: make(map[[2]*glob.Glob]bool)}
	for _, sp := range f.StatePer {
		all = all[:0]
		for _, pm := range sp.Perms {
			all = append(all, rules.byPerm[pm]...)
		}
		next = slices.Grow(next[:0], len(all))[:len(all)]
		for p := len(all) - 1; p >= 0; p-- {
			next[p], first[all[p]] = first[all[p]], int32(p)
		}
		hits = hits[:0]
		for ci, c := range cands {
			for pd := first[c.deny]; pd >= 0; pd = next[pd] {
				for pa := first[c.allow]; pa >= 0; pa = next[pa] {
					h := hit{i: pd, j: pa, a: &rules.all[c.deny], b: &rules.all[c.allow]}
					v := &verdicts[ci][0]
					if pa < pd {
						h = hit{i: pa, j: pd, a: h.b, b: h.a}
						v = &verdicts[ci][1]
					}
					if !v.known {
						v.known = true
						v.witness, v.overlap = x.conflictBetween(h.a, h.b)
					}
					if v.overlap {
						h.witness = v.witness
						hits = append(hits, h)
					}
				}
			}
		}
		for _, ri := range all {
			first[ri] = -1
		}
		slices.SortFunc(hits, func(x, y hit) int {
			if x.i != y.i {
				return int(x.i - y.i)
			}
			return int(x.j - y.j)
		})
		for _, h := range hits {
			// One allocation per finding: fmt's %q is strconv.Quote.
			msg = append(msg[:0], "state "...)
			msg = append(msg, quoteIdent(sp.State)...)
			msg = append(msg, " both allows and denies overlapping paths "...)
			msg = strconv.AppendQuote(msg, h.a.Path)
			msg = append(msg, " and "...)
			msg = strconv.AppendQuote(msg, h.b.Path)
			msg = append(msg, " (deny wins at runtime)"...)
			if h.witness != "" {
				msg = append(msg, ", e.g. "...)
				msg = strconv.AppendQuote(msg, h.witness)
			}
			r.Issues = append(r.Issues, Issue{Severity: Warning, Pos: h.b.Pos, Message: string(msg)})
		}
	}
}

// intersections is the conflict pass's scratch for one Validate: each
// path pattern split into segments at most once, however many
// candidates it joins, and each pair of subject globs decided once.
// Rules share globs (preparedRules.globs), so pointers are the keys.
type intersections struct {
	splits   map[*glob.Glob]glob.Split
	disjoint map[[2]*glob.Glob]bool
}

func (x *intersections) split(g *glob.Glob) glob.Split {
	sp, ok := x.splits[g]
	if !ok {
		sp = g.Split()
		x.splits[g] = sp
	}
	return sp
}

// subjectsDisjoint is subjectsDisjoint, memoised on the glob pair.
func (x *intersections) subjectsDisjoint(a, b *glob.Glob) bool {
	if a == nil || b == nil {
		return false
	}
	key := [2]*glob.Glob{a, b}
	d, ok := x.disjoint[key]
	if !ok {
		d = subjectsDisjoint(a, b)
		x.disjoint[key], x.disjoint[[2]*glob.Glob{b, a}] = d, d
	}
	return d
}

// conflictBetween decides one allow/deny pair with overlapping
// operations and prefix-related paths: whether it is a conflict, and a
// witness path when one is known.
func (x *intersections) conflictBetween(a, b *conflictRule) (witness string, overlap bool) {
	if x.subjectsDisjoint(a.subject, b.subject) {
		return "", false
	}
	deny, allow := a, b
	if b.Deny {
		deny, allow = b, a
	}
	// A literal deny carved out of a broader allow glob is the standard
	// exception idiom (allow /dev/firmware/*, deny /dev/firmware/bootloader)
	// — intentional, not a conflict.
	if isCarveOut(allow, deny) {
		return "", false
	}
	return x.patternsOverlap(a, b)
}

// subjectsDisjoint reports whether two rules provably govern different
// subjects: both name one and the subject patterns cannot match the
// same executable. A rule without a subject governs every subject.
func subjectsDisjoint(a, b *glob.Glob) bool {
	if a == nil || b == nil {
		return false
	}
	_, res := glob.Intersect(a, b)
	return res == glob.IntersectNone
}

// isCarveOut reports whether deny is a strictly narrower exception
// inside allow: the deny is literal (or narrower) and falls within the
// allow glob, while the allow covers more than just the deny.
func isCarveOut(allow, deny *conflictRule) bool {
	if allow.Path == deny.Path || allow.path == nil || deny.path == nil {
		return false
	}
	if !deny.path.Literal() || allow.path.Literal() {
		return false
	}
	return allow.path.Match(deny.Path)
}

// patternsOverlap decides glob intersection exactly via the segment-wise
// construction in internal/glob, returning a concrete witness path when
// one exists so the warning shows the administrator a real conflicting
// object. Callers pass only prefix-related pairs, so for the rare
// pattern shapes the construction cannot segment-index, an inconclusive
// intersection conservatively warns without a witness.
func (x *intersections) patternsOverlap(a, b *conflictRule) (witness string, overlap bool) {
	if a.Path == b.Path {
		return a.Path, true
	}
	if a.path == nil || b.path == nil {
		return "", false
	}
	switch ws, res := glob.IntersectK(x.split(a.path), x.split(b.path), 1); res {
	case glob.IntersectFound:
		return ws[0], true
	case glob.IntersectNone:
		return "", false
	}
	return "", true
}
