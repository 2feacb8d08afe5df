package policy_test

// Diff against its rendering reference: the structural comparison must
// report byte for byte what rendering every rule and comparing strings
// reports, alone and inside concurrent reload commits.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/policies"
)

func compile(t testing.TB, src string) *policy.Compiled {
	t.Helper()
	c, _, err := policy.Load(src)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return c
}

// revisionPairs are the generated revisions BenchmarkReload replaces:
// one rule of 500 changed, all 500 renamed, one rule of a 64-state
// policy widened.
func revisionPairs() map[string][2]string {
	rules, states := bench.GenRulesPolicy(500), bench.GenStatesPolicy(64)
	return map[string][2]string{
		"one-rule":          {rules, strings.Replace(rules, "/srv/sack/area7/file7*", "/srv/sack/area7/file7-rev*", 1)},
		"all-rules-renamed": {rules, strings.ReplaceAll(rules, "/file", "/renamed")},
		"states-64":         {states, strings.Replace(states, "allow ioctl /dev/vehicle/dev7*", "allow ioctl,read /dev/vehicle/dev7*", 1)},
	}
}

// mutateRules applies n random edits to the rule lines of src: swap,
// repeat, drop, narrow the access, turn into a deny, scope to a subject
// or switch it, rename the path.
func mutateRules(r *rand.Rand, src string, n int) string {
	lines := strings.Split(src, "\n")
	var idx []int
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "allow ") {
			idx = append(idx, i)
		}
	}
	rules := make([]string, len(idx))
	for k, i := range idx {
		rules[k] = lines[i]
	}
	for ; n > 0 && len(rules) > 1; n-- {
		k, m := r.Intn(len(rules)), r.Intn(len(rules))
		switch r.Intn(7) {
		case 0:
			rules[k], rules[m] = rules[m], rules[k]
		case 1:
			rules = append(rules[:m], append([]string{rules[k]}, rules[m:]...)...)
		case 2:
			rules = append(rules[:k], rules[k+1:]...)
		case 3:
			rules[k] = strings.Replace(rules[k], "read,write", "read", 1)
		case 4:
			rules[k] = strings.Replace(rules[k], "allow ", "deny ", 1)
		case 5:
			switch {
			case strings.HasSuffix(rules[k], "app0"):
				rules[k] = strings.TrimSuffix(rules[k], "0") + "1"
			case strings.HasSuffix(rules[k], "app1"):
				rules[k] = strings.TrimSuffix(rules[k], "1") + "0"
			default:
				rules[k] += " subject /usr/bin/app0"
			}
		case 6:
			rules[k] = strings.Replace(rules[k], "/file", "/moved", 1)
		}
	}
	out := append([]string(nil), lines[:idx[0]]...)
	out = append(out, rules...)
	return strings.Join(append(out, lines[idx[len(idx)-1]+1:]...), "\n")
}

func TestDiffMatchesReference(t *testing.T) {
	check := func(name string, a, b *policy.Compiled) {
		t.Helper()
		got, want := policy.FormatDiff(policy.Diff(a, b)), policy.FormatDiff(policy.ReferenceDiff(a, b))
		if got != want {
			t.Errorf("%s: Diff differs from the reference\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}

	// Every ordered pair of the pack, each side compiled on its own (a
	// policy against its recompilation is the unchanged reload), and
	// each policy against its own artifact.
	names := policies.Names()
	first := make([]*policy.Compiled, len(names))
	second := make([]*policy.Compiled, len(names))
	for i, name := range names {
		first[i] = compile(t, policies.MustLoad(name))
		second[i] = compile(t, policies.MustLoad(name))
	}
	for i, a := range first {
		check(names[i]+" -> itself", a, a)
		for j, b := range second {
			check(names[i]+" -> "+names[j], a, b)
		}
	}

	for name, pair := range revisionPairs() {
		a, b := compile(t, pair[0]), compile(t, pair[1])
		check(name, a, b)
		check(name+" reversed", b, a)
	}

	// Two random revisions of one random ancestor: repeated, reordered
	// and subject-scoped rules exercise the set semantics.
	r := rand.New(rand.NewSource(1))
	base := bench.GenRulesPolicy(12)
	for trial := 0; trial < 500; trial++ {
		ancestor := mutateRules(r, base, r.Intn(8))
		a, b := mutateRules(r, ancestor, r.Intn(4)), mutateRules(r, ancestor, 1+r.Intn(4))
		check(fmt.Sprintf("random edit %d", trial), compile(t, a), compile(t, b))
	}
}

// TestReloadConcurrentDiffMatchesReference races two reloaders over
// distinct revisions. A reload computes its diff before it takes the
// writer lock and recomputes it if the other committed in between, so
// each returned report must be the reference diff from the policy its
// commit actually replaced, which the audit log's commit order names.
func TestReloadConcurrentDiffMatchesReference(t *testing.T) {
	const perWriter = 30
	base := bench.GenRulesPolicy(64)
	srcs := make([]string, 2*perWriter)
	revs := make([]*policy.Compiled, len(srcs))
	byHash := make(map[string]int, len(srcs))
	for i := range srcs {
		srcs[i] = strings.Replace(base, fmt.Sprintf("/file%d*", i), fmt.Sprintf("/file%d-rev*", i), 1)
		revs[i] = compile(t, srcs[i])
		byHash[policy.ChecksumSource(srcs[i])[:16]] = i // the policy_reload record's subject
	}
	boot := compile(t, base)
	audit := lsm.NewAuditLog(0)
	s, err := core.New(core.Config{Policy: boot, Source: base, Audit: audit})
	if err != nil {
		t.Fatal(err)
	}

	reports := make([]policy.DiffReport, len(srcs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(srcs); i += 2 {
				rep, err := s.ReplacePolicy(revs[i], srcs[i])
				if err != nil {
					t.Error(err)
					return
				}
				reports[i] = rep
			}
		}(w)
	}
	wg.Wait()

	prev, commits := boot, 0
	for _, rec := range audit.Records() {
		if rec.Op != "policy_reload" {
			continue
		}
		i, ok := byHash[rec.Subject]
		if !ok {
			t.Fatalf("policy_reload record for an unknown source %s", rec.Subject)
		}
		got := policy.FormatDiff(reports[i].Changes)
		if want := policy.FormatDiff(policy.ReferenceDiff(prev, revs[i])); got != want {
			t.Fatalf("revision %d: report is not the diff from the policy it replaced\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		prev = revs[i]
		commits++
	}
	if commits != len(srcs) {
		t.Fatalf("%d policy_reload records, want %d", commits, len(srcs))
	}
	if s.Policy() != prev {
		t.Fatal("installed policy is not the last committed one")
	}
}
