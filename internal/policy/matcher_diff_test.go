package policy

// matcher_diff_test holds the trie-compiled decision engine against the
// legacy glob-walk engine over randomly generated rule sets and access
// keys. The contract is exactness: same allowed verdict AND the same
// deciding-rule pointer for every (subject, path, mask) triple, plus
// coverage-trie == coverage-walk for every path. Failures replay
// deterministically from the seed. `make matcher-diff` runs this under
// the race detector as part of `make check`.

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

				if walk, trie := cov.CoversWalk(path), cov.Covers(path); walk != trie {
					t.Fatalf("seed %d trial %d: coverage divergence on path=%q: walk=%v trie=%v",
						seed, trial, path, walk, trie)
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
