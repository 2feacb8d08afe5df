package policy

// matcher_diff_test holds the trie-compiled decision engine against the
// legacy glob-walk engine over randomly generated rule sets, compiled
// policies, and access keys. The contract is exactness: same allowed
// verdict AND the same deciding-rule pointer for every (subject, path,
// mask) triple, plus coverage-trie == coverage-walk for every path.
// Failures replay deterministically from the seed. `make matcher-diff`
// runs this under the race detector as part of `make check`.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/glob"
	"repro/internal/sys"
)

var diffLiteralSegs = []string{
	"a", "b", "ab", "dev", "vehicle", "door0", "door1", "window0",
	"srv", "sack", "etc", "x", "file.dat", "", "door10",
}

var diffPatternSegs = []string{
	"*", "?", "a*", "*0", "do?r[01]", "[ab]", "[^a]b", "d*r*",
	"door?", "w[il]ndow*", "file.*", "**", "{a,b}", "{door,window}[01]",
}

// genPattern emits a random policy path pattern. Roughly one in eight is
// deliberately hostile to the trie: unrooted, "**" glued mid-segment, or
// ending in '/' — exercising the complex-rule fallback.
func genPattern(r *rand.Rand) string {
	n := 1 + r.Intn(4)
	segs := make([]string, n)
	for i := range segs {
		if r.Intn(2) == 0 {
			segs[i] = diffLiteralSegs[r.Intn(len(diffLiteralSegs))]
		} else {
			segs[i] = diffPatternSegs[r.Intn(len(diffPatternSegs))]
		}
	}
	p := "/" + strings.Join(segs, "/")
	switch r.Intn(16) {
	case 0:
		p = p[1:] // unrooted: cannot anchor in the trie
	case 1:
		p = "/" + segs[0] + "**" // "**" glued to a segment
	case 2:
		p += "/" // trailing slash: empty final segment
	}
	if p == "" || p == "/" && r.Intn(2) == 0 {
		p = "/**"
	}
	return p
}

func genPath(r *rand.Rand) string {
	n := r.Intn(5)
	segs := make([]string, n)
	for i := range segs {
		segs[i] = diffLiteralSegs[r.Intn(len(diffLiteralSegs))]
	}
	p := "/" + strings.Join(segs, "/")
	switch r.Intn(12) {
	case 0:
		p = p[1:] // unrooted path (e.g. "pipe:" style keys)
		if p == "" {
			p = "pipe:[42]"
		}
	case 1:
		p += "/"
	}
	return p
}

var diffSubjects = []string{"", "/usr/bin/ivi", "/usr/bin/rescued", "/sbin/sds"}

func genRules(t *testing.T, r *rand.Rand, n int) []CompiledRule {
	t.Helper()
	rules := make([]CompiledRule, 0, n)
	for len(rules) < n {
		pat, err := glob.Compile(genPattern(r))
		if err != nil {
			continue // generator emitted an invalid pattern; try again
		}
		cr := CompiledRule{
			Pattern: pat,
			Access:  sys.Access(1 + r.Intn(7)), // read/write/exec combinations
			Deny:    r.Intn(4) == 0,
			Perm:    "FUZZ",
		}
		if r.Intn(5) == 0 {
			subj := []string{"/usr/bin/*", "/usr/bin/ivi", "**", "/sbin/?ds"}[r.Intn(4)]
			if cr.Subject, err = glob.Compile(subj); err != nil {
				t.Fatalf("subject pattern: %v", err)
			}
		}
		rules = append(rules, cr)
	}
	return rules
}

// genCompiled compiles a random policy whose permissions carry genRules'
// rules. States grant random subsets of the permissions in random
// orders, now and then one permission twice (a warning; both copies of
// its rules stay), so every state's matcher is a view over the shared
// coverage trie with its own pattern-to-rank map.
func genCompiled(t *testing.T, r *rand.Rand) *Compiled {
	t.Helper()
	f := &File{}
	nPerms := 2 + r.Intn(4)
	for p := 0; p < nPerms; p++ {
		name := fmt.Sprintf("P%d", p)
		f.Permissions = append(f.Permissions, PermDecl{Name: name})
		decl := PerRulesDecl{Perm: name}
		for _, cr := range genRules(t, r, 1+r.Intn(12)) {
			rd := RuleDecl{Deny: cr.Deny, Path: cr.Pattern.String()}
			for _, op := range sys.AccessNames() {
				if cr.Access&sys.ParseAccess(op) != 0 {
					rd.Ops = append(rd.Ops, op)
				}
			}
			if cr.Subject != nil {
				rd.Subject = cr.Subject.String()
			}
			decl.Rules = append(decl.Rules, rd)
		}
		f.PerRules = append(f.PerRules, decl)
	}
	for s := 0; s < 1+r.Intn(4); s++ {
		name := fmt.Sprintf("s%d", s)
		f.States = append(f.States, StateDecl{Name: name})
		var perms []string
		for _, p := range r.Perm(nPerms) {
			if r.Intn(3) > 0 {
				perms = append(perms, fmt.Sprintf("P%d", p))
			}
		}
		if len(perms) > 0 && r.Intn(4) == 0 {
			perms = append(perms, perms[r.Intn(len(perms))])
		}
		f.StatePer = append(f.StatePer, StatePerDecl{State: name, Perms: perms})
	}
	c, _, err := Compile(f)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func TestMatcherDifferentialFuzz(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			rules := genRules(t, r, 1+r.Intn(40))
			rs := NewRuleSet("fuzz", rules)
			m := rs.Matcher()
			if m == nil {
				t.Fatalf("matcher not built for %d rules", len(rules))
			}

			patterns := make([]*glob.Glob, len(rules))
			for i := range rules {
				patterns[i] = rules[i].Pattern
			}
			cov := NewCoverage(patterns)

			for trial := 0; trial < 400; trial++ {
				path := genPath(r)
				subject := diffSubjects[r.Intn(len(diffSubjects))]
				mask := sys.Access(r.Intn(8))

				wantAllowed, wantRule := rs.Decide(subject, path, mask)
				gotAllowed, gotRule := m.Decide(subject, path, mask)
				if gotAllowed != wantAllowed || gotRule != wantRule {
					t.Fatalf("seed %d trial %d: divergence on subject=%q path=%q mask=%s:\n"+
						"  walk: allowed=%v rule=%v\n  trie: allowed=%v rule=%v",
						seed, trial, subject, path, mask,
						wantAllowed, ruleStr(wantRule), gotAllowed, ruleStr(gotRule))
				}

				walk := cov.CoversWalk(path)
				if trie := cov.Covers(path); walk != trie {
					t.Fatalf("seed %d trial %d: coverage divergence on path=%q: walk=%v trie=%v",
						seed, trial, path, walk, trie)
				}
				if covered, _, _ := m.Evaluate(subject, path, mask); covered != walk {
					t.Fatalf("seed %d trial %d: Evaluate covered=%v on path=%q, walk=%v",
						seed, trial, covered, path, walk)
				}
				if cov.Covers(path) && !cov.MayCover(path) {
					t.Fatalf("seed %d trial %d: MayCover rejects covered path %q", seed, trial, path)
				}
			}

			// The same contract for every state of a compiled policy,
			// whose matchers share one trie.
			c := genCompiled(t, r)
			for _, st := range c.StateNames() {
				rs := c.StateSets[st]
				m := rs.Matcher()
				for trial := 0; trial < 200; trial++ {
					path := genPath(r)
					subject := diffSubjects[r.Intn(len(diffSubjects))]
					mask := sys.Access(r.Intn(8))

					wantAllowed, wantRule := rs.Decide(subject, path, mask)
					covered, gotAllowed, gotRule := m.Evaluate(subject, path, mask)
					if gotAllowed != wantAllowed || gotRule != wantRule {
						t.Fatalf("seed %d state %s trial %d: divergence on subject=%q path=%q mask=%s:\n"+
							"  walk: allowed=%v rule=%v\n  trie: allowed=%v rule=%v",
							seed, st, trial, subject, path, mask,
							wantAllowed, ruleStr(wantRule), gotAllowed, ruleStr(gotRule))
					}
					if walk := c.Coverage.CoversWalk(path); covered != walk {
						t.Fatalf("seed %d state %s trial %d: Evaluate covered=%v on path=%q, walk=%v",
							seed, st, trial, covered, path, walk)
					}
					if covered && !c.Coverage.MayCover(path) {
						t.Fatalf("seed %d state %s trial %d: MayCover rejects covered path %q", seed, st, trial, path)
					}
				}
			}
		})
	}
}

func ruleStr(r *CompiledRule) string {
	if r == nil {
		return "<nil>"
	}
	return r.String()
}

// TestMatcherRootStepDifferential holds the enforcement path's split
// walk — Coverage.Root before the AVC probe, Matcher.EvaluateAt resuming
// past it — against the oracle for every state of random compiled
// policies, and checks the step is really taken (not silently retaken
// by the walk) whenever no root "**" or complex pattern moots it.
func TestMatcherRootStepDifferential(t *testing.T) {
	taken := 0
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := genCompiled(t, r)
		for trial := 0; trial < 200; trial++ {
			path := genPath(r)
			subject := diffSubjects[r.Intn(len(diffSubjects))]
			mask := sys.Access(r.Intn(8))
			step, may := c.Coverage.Root(path)
			if may != c.Coverage.MayCover(path) {
				t.Fatalf("seed %d: Root and MayCover disagree on %q", seed, path)
			}
			if wantTaken := !c.Coverage.trie.anyRoot && len(path) > 0 && path[0] == '/'; (step.t != nil) != wantTaken {
				t.Fatalf("seed %d: step over %q taken=%v, want %v", seed, path, step.t != nil, wantTaken)
			}
			if step.t != nil {
				taken++
			}
			if !may {
				continue
			}
			for _, st := range c.StateNames() {
				rs := c.StateSets[st]
				wantCovered := c.Coverage.CoversWalk(path)
				wantAllowed, wantRule := rs.Decide(subject, path, mask)
				covered, allowed, rank := rs.Matcher().EvaluateAt(step, subject, path, mask)
				if covered != wantCovered || covered && (allowed != wantAllowed || rs.Matcher().Rule(rank) != wantRule) {
					t.Fatalf("seed %d state %s: %q %q %s: EvaluateAt = %v %v %v, want %v %v %v",
						seed, st, subject, path, mask, covered, allowed, ruleStr(rs.Matcher().Rule(rank)),
						wantCovered, wantAllowed, ruleStr(wantRule))
				}
			}
		}
	}
	if taken == 0 {
		t.Fatal("no root step was taken")
	}
}

// TestMatcherDifferentialLinear cross-checks a third way: on rule sets
// with no deny rules and no subjects, trie and linear-scan engines must
// also agree (the deny short-circuit is the only order-sensitive part).
func TestMatcherDifferentialLinear(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var rules []CompiledRule
	for _, cr := range genRules(t, r, 30) {
		cr.Deny = false
		cr.Subject = nil
		rules = append(rules, cr)
	}
	rs := NewRuleSet("fuzz", rules)
	m := rs.Matcher()
	for trial := 0; trial < 500; trial++ {
		path := genPath(r)
		mask := sys.Access(r.Intn(8))
		wantAllowed, _ := rs.DecideLinear("", path, mask)
		gotAllowed, _ := m.Decide("", path, mask)
		if gotAllowed != wantAllowed {
			t.Fatalf("trial %d: path=%q mask=%s: linear=%v trie=%v",
				trial, path, mask, wantAllowed, gotAllowed)
		}
	}
}

// TestMatcherSpillDifferential exercises the segmented bitset's spill
// block: >1024 rules used to silently skip trie compilation; now they
// compile and must stay exact against the walk engine, including rules
// whose ranks land deep in the spill words.
func TestMatcherSpillDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	rules := genRules(t, r, inlineMatcherWords*64+300) // 1324 rules: inline + spill
	rs := NewRuleSet("spill", rules)
	m := rs.Matcher()
	if m == nil {
		t.Fatalf("matcher not built for %d rules", len(rules))
	}
	if m.words <= inlineMatcherWords {
		t.Fatalf("rule set does not reach the spill block: %d words", m.words)
	}
	for trial := 0; trial < 2000; trial++ {
		path := genPath(r)
		subject := diffSubjects[r.Intn(len(diffSubjects))]
		mask := sys.Access(r.Intn(8))
		wantAllowed, wantRule := rs.Decide(subject, path, mask)
		gotAllowed, gotRule := m.Decide(subject, path, mask)
		if gotAllowed != wantAllowed || gotRule != wantRule {
			t.Fatalf("trial %d: divergence on subject=%q path=%q mask=%s:\n"+
				"  walk: allowed=%v rule=%v\n  trie: allowed=%v rule=%v",
				trial, subject, path, mask,
				wantAllowed, ruleStr(wantRule), gotAllowed, ruleStr(gotRule))
		}
	}
}

// TestCoverageMayCoverRootStep pins the root step: a path is rejected
// exactly when no pattern can match its first segment, and never when a
// root "**" or an unindexable pattern may match anything.
func TestCoverageMayCoverRootStep(t *testing.T) {
	compile := func(pats ...string) *Coverage {
		t.Helper()
		gs := make([]*glob.Glob, len(pats))
		for i, p := range pats {
			g, err := glob.Compile(p)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			gs[i] = g
		}
		return NewCoverage(gs)
	}

	cov := compile("/srv/sack/**", "/dev/vehicle/door*", "/d?ta/x", "/etc")
	for path, want := range map[string]bool{
		"/srv/sack/a":  true,
		"/srv/other/x": true, // first segment covered, path not: the walk decides
		"/srv":         true,
		"/dev/null":    true,
		"/data/y":      true, // root pattern edge
		"/etc":         true,
		"/etc/passwd":  true,
		"/tmp/x":       false,
		"/":            false,
		"/sr":          false,
		"srv/sack/a":   false,
		"":             false,
		"pipe:[1]":     false,
	} {
		if got := cov.MayCover(path); got != want {
			t.Errorf("MayCover(%q) = %v, want %v", path, got, want)
		}
		if cov.Covers(path) && !cov.MayCover(path) {
			t.Errorf("MayCover rejects covered %q", path)
		}
	}

	// A root "**" or an unindexable pattern ("**" glued inside a
	// segment) may match any first segment.
	for _, pats := range [][]string{{"/srv/a", "/**"}, {"/srv/a", "/x**"}} {
		if c := compile(pats...); !c.MayCover("/anything/else") {
			t.Errorf("%v: MayCover rejected a path the catch-all may match", pats)
		}
	}
	// "/" has an empty first segment, which the root literals hold too.
	if c := compile("/srv/a", "/"); !c.MayCover("/") || !c.Covers("/") {
		t.Error(`pattern "/" does not cover "/"`)
	}
}
