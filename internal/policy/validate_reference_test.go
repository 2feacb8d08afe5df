package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/glob"
	"repro/internal/sys"
)

// referenceConflicts is the allow/deny conflict pass in its plain
// quadratic form: every pair of every state's rules, patterns compiled
// and operations parsed afresh, no pre-filter and no memo. The only
// thing it shares with detectConflicts is the subject predicate. It is
// the oracle the prepared pass must match finding for finding.
func referenceConflicts(r *ValidationResult, f *File) {
	rulesByPerm := make(map[string][]RuleDecl)
	for _, pr := range f.PerRules {
		rulesByPerm[pr.Perm] = append(rulesByPerm[pr.Perm], pr.Rules...)
	}
	for _, sp := range f.StatePer {
		var all []RuleDecl
		for _, pm := range sp.Perms {
			all = append(all, rulesByPerm[pm]...)
		}
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				a, b := all[i], all[j]
				if a.Deny == b.Deny {
					continue
				}
				if !refOpsOverlap(a.Ops, b.Ops) {
					continue
				}
				if subjectsDisjoint(refSubject(a), refSubject(b)) {
					continue
				}
				deny, allow := a, b
				if b.Deny {
					deny, allow = b, a
				}
				if refIsCarveOut(allow.Path, deny.Path) {
					continue
				}
				if w, overlap := refPatternsOverlap(a.Path, b.Path); overlap {
					msg := fmt.Sprintf("state %s both allows and denies overlapping paths %q and %q (deny wins at runtime)",
						quoteIdent(sp.State), a.Path, b.Path)
					if w != "" {
						msg += fmt.Sprintf(", e.g. %q", w)
					}
					r.warnf(b.Pos, "%s", msg)
				}
			}
		}
	}
}

func refSubject(rule RuleDecl) *glob.Glob {
	if rule.Subject == "" {
		return nil
	}
	g, err := glob.Compile(rule.Subject)
	if err != nil {
		return nil
	}
	return g
}

func refOpsOverlap(a, b []string) bool {
	var ma, mb sys.Access
	for _, op := range a {
		ma |= sys.ParseAccess(op)
	}
	for _, op := range b {
		mb |= sys.ParseAccess(op)
	}
	return ma&mb != 0
}

func refIsCarveOut(allowPath, denyPath string) bool {
	if allowPath == denyPath {
		return false
	}
	ga, errA := glob.Compile(allowPath)
	gd, errD := glob.Compile(denyPath)
	if errA != nil || errD != nil {
		return false
	}
	if !gd.Literal() || ga.Literal() {
		return false
	}
	return ga.Match(denyPath)
}

func refPatternsOverlap(a, b string) (witness string, overlap bool) {
	if a == b {
		return a, true
	}
	ga, errA := glob.Compile(a)
	gb, errB := glob.Compile(b)
	if errA != nil || errB != nil {
		return "", false
	}
	switch w, res := glob.Intersect(ga, gb); res {
	case glob.IntersectFound:
		return w, true
	case glob.IntersectNone:
		return "", false
	}
	pa, pb := ga.LiteralPrefix(), gb.LiteralPrefix()
	if strings.HasPrefix(pa, pb) || strings.HasPrefix(pb, pa) {
		return "", true
	}
	return "", false
}

// referenceValidate is Validate with the reference conflict pass.
func referenceValidate(f *File) []Issue {
	r, _ := validateDecls(f)
	referenceConflicts(r, f)
	return r.Issues
}

// genSubjectPolicy reproduces the shapes of the benchmark's generated
// decision policy at a seeded size: per-application data trees under a
// few top-level directories, "**" grants scoped to the owning
// executable, f<N>* write carve-outs, cross-subject denies on secrets,
// and cross-subject read grants. It mixes in what the benchmark never
// writes but the conflict pass must still get right: subject-less
// rules, subject globs that overlap, literal carve-outs, brace
// alternations, unsegmentable "**"-glued patterns, identical paths, a
// deny and an allow with one literal prefix, literal subjects beside
// globs disjoint from them, a few rules whose literal prefix is "/"
// (a glob first segment), and permissions granted to states in
// different orders, one of them twice in one state (its rules at two
// positions), so a memoised verdict is reused with both argument
// orders.
func genSubjectPolicy(rng *rand.Rand, apps int) string {
	tops := []string{"opt", "srv", "data", "home", "mnt", "var/lib"}
	root := func(j int) string { return fmt.Sprintf("/%s/app%02d", tops[j%len(tops)], j) }
	subj := func(j int) string {
		switch rng.Intn(12) {
		case 0:
			return "" // applies to every subject
		case 1:
			return " subject /usr/bin/app*"
		case 2:
			return fmt.Sprintf(" subject /usr/bin/app%d?", j/10)
		case 3:
			return " subject /usr/sbin/app*" // disjoint from every literal
		}
		return fmt.Sprintf(" subject /usr/bin/app%02d", j)
	}
	other := func(j int) int {
		m := rng.Intn(apps - 1)
		if m >= j {
			m++
		}
		return m
	}
	files := 2 + rng.Intn(20)
	var base, gatedA, gatedB []string
	for j := 0; j < apps; j++ {
		r := root(j)
		carved := rng.Intn(files)
		base = append(base,
			fmt.Sprintf("allow read %s/**%s", r, subj(j)),
			fmt.Sprintf("allow write %s/rw/**%s", r, subj(j)),
			fmt.Sprintf("deny write %s/rw/f%d*%s", r, carved, subj(j)),
			// The deny's literal prefix exactly.
			fmt.Sprintf("allow write %s/rw/f%d?%s", r, carved, subj(other(j))),
		)
		for k := 0; k < 3; k++ {
			base = append(base, fmt.Sprintf("deny read,write %s/secret/**%s", r, subj(other(j))))
		}
		for k := 0; k < 2; k++ {
			base = append(base, fmt.Sprintf("deny write %s/shared/f%d*%s", r, rng.Intn(files), subj(j)))
		}
		// Against the PARKED rule below, the witness depends on argument
		// order ("ab" vs "ba").
		base = append(base, fmt.Sprintf("deny write %s/shared/*%c*%s", r, 'a'+rng.Intn(3), subj(j)))
		for k := 0; k < 4; k++ {
			base = append(base, fmt.Sprintf("allow read %s/shared/**%s", r, subj(other(j))))
		}
		for k := 0; k < 10; k++ {
			base = append(base, fmt.Sprintf("allow read %s/conf/f%d%s", r, rng.Intn(files), subj(other(j))))
		}
		switch rng.Intn(5) {
		case 0:
			base = append(base, fmt.Sprintf("deny write %s/rw/f%d%s", r, rng.Intn(files), subj(j)))
		case 1:
			base = append(base, fmt.Sprintf("deny read %s/{conf,shared}/f%d*%s", r, rng.Intn(files), subj(j)))
		case 2:
			// Unsegmentable: against rw/** an exemplar proves the overlap;
			// against *.log the intersection is Unknown and the prefix
			// fallback warns without a witness.
			base = append(base,
				fmt.Sprintf("deny write %s/rw/f**.tmp%s", r, subj(j)),
				fmt.Sprintf("allow write %s/rw/*.log%s", r, subj(j)))
		case 3:
			base = append(base, fmt.Sprintf("deny read %s/**%s", r, subj(other(j))))
		}
		gatedA = append(gatedA,
			fmt.Sprintf("allow read,write %s/park/**%s", r, subj(j)),
			fmt.Sprintf("allow write %s/conf/**%s", r, subj(j)),
			fmt.Sprintf("deny write %s/park/f%d%s", r, rng.Intn(files), subj(j)),
			fmt.Sprintf("deny write %s/park/f%d%s", r, rng.Intn(files), subj(j)),
			fmt.Sprintf("allow write %s/shared/*%c*%s", r, 'a'+rng.Intn(3), subj(j)),
		)
		gatedB = append(gatedB,
			fmt.Sprintf("allow write %s/drive/**%s", r, subj(j)),
			fmt.Sprintf("deny read %s/park/**%s", r, subj(j)),
			fmt.Sprintf("allow read %s/drive/**%s", r, subj(other(j))),
			fmt.Sprintf("allow read %s/drive/**%s", r, subj(other(j))),
		)
	}
	rng.Shuffle(len(base), func(i, k int) { base[i], base[k] = base[k], base[i] })
	// A fixed number of rules, whatever the application count, so the
	// candidate pairs stay linear in it.
	wild := []string{
		fmt.Sprintf("deny write /*/app%02d/rw/f%d%s", rng.Intn(apps), rng.Intn(files), subj(0)),
		fmt.Sprintf("allow read /{opt,srv}/app%02d/secret/**%s", rng.Intn(apps), subj(0)),
		fmt.Sprintf("deny read /*/*/conf/f%d", rng.Intn(files)),
	}

	var b strings.Builder
	b.WriteString("states { parked driving workshop emergency }\ninitial parked\n")
	b.WriteString("permissions { BASE PARKED DRIVING WILD }\n")
	b.WriteString("state_per {\n  parked: BASE, PARKED\n  driving: DRIVING, BASE\n  workshop: PARKED, DRIVING, BASE, PARKED, WILD\n  emergency: WILD, BASE\n}\n")
	b.WriteString("per_rules {\n")
	for _, blk := range []struct {
		name  string
		rules []string
	}{{"BASE", base}, {"PARKED", gatedA}, {"DRIVING", gatedB}, {"WILD", wild}} {
		fmt.Fprintf(&b, "  %s {\n", blk.name)
		for _, r := range blk.rules {
			fmt.Fprintf(&b, "    %s\n", r)
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
	b.WriteString("transitions {\n  parked -> driving on go\n  driving -> parked on stop\n  parked -> workshop on service\n  workshop -> parked on done\n  driving -> emergency on crash\n  emergency -> parked on clear\n}\n")
	return b.String()
}

// unrootSome rewrites a few of f's rule paths into shapes the parser
// never yields, whose literal prefix is empty or unrooted: "**"
// prepended, the leading '/' dropped, a bare "**", and a pattern that
// does not compile.
func unrootSome(rng *rand.Rand, f *File) {
	for i := range f.PerRules {
		for k := range f.PerRules[i].Rules {
			rd := &f.PerRules[i].Rules[k]
			switch rng.Intn(40) {
			case 0:
				rd.Path = "**" + rd.Path
			case 1:
				rd.Path = rd.Path[1:]
			case 2:
				rd.Path = "**"
			case 3:
				rd.Path += "/[x"
			}
		}
	}
}

// TestValidateMatchesReference: the prepared, prefix-filtered, memoised
// conflict pass reports exactly the reference pass's findings — same
// order, same text, same witnesses — on random policies, on
// benchmark-shaped subject-scoped ones, and on those with empty and
// unrooted literal prefixes.
func TestValidateMatchesReference(t *testing.T) {
	check := func(t *testing.T, f *File, src string) {
		t.Helper()
		got, want := Validate(f).Issues, referenceValidate(f)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Validate differs from the reference:\ngot  %d: %v\nwant %d: %v\n%s", len(got), got, len(want), want, src)
		}
	}
	parse := func(t *testing.T, src string) *File {
		t.Helper()
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		return f
	}
	for seed := int64(0); seed < 200; seed++ {
		src := genPolicy(rand.New(rand.NewSource(seed)))
		check(t, parse(t, src), src)
	}
	conflicts, twice := 0, 0
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		apps := 2 + rng.Intn(7)
		if seed == 0 {
			apps = 16
		}
		src := genSubjectPolicy(rng, apps)
		f := parse(t, src)
		check(t, f, src)
		// workshop lists PARKED twice, so a pair of a PARKED rule and
		// another is reported in both orders.
		seen := make(map[[2]string]bool)
		for _, w := range Validate(f).Warnings() {
			if strings.Contains(w.Message, "allows and denies") {
				conflicts++
				var a, b string
				if _, err := fmt.Sscanf(w.Message, "state 'workshop' both allows and denies overlapping paths %q and %q", &a, &b); err == nil {
					seen[[2]string{a, b}] = true
					if seen[[2]string{b, a}] {
						twice++
					}
				}
			}
		}
		unrootSome(rng, f)
		check(t, f, src+"(with unrooted paths)")
	}
	if twice == 0 {
		t.Fatal("no conflict was reported in both orders in the state granting a permission twice")
	}
	// The generator must actually produce conflicts, or the comparison
	// above proves nothing about the emitting path.
	if conflicts == 0 {
		t.Fatal("subject-scoped policies produced no conflict findings")
	}
}

// TestConflictCandidatesLinear: the candidate pairs of the conflict
// pass grow with the rule count, not with its square. Doubling the
// applications of a generated policy doubles its rules; all-pairs
// would quadruple the pairs. A pair count, unlike a time, does not
// depend on the host.
func TestConflictCandidatesLinear(t *testing.T) {
	pairs := func(apps int) int {
		f, err := Parse(genSubjectPolicy(rand.New(rand.NewSource(1)), apps))
		if err != nil {
			t.Fatal(err)
		}
		_, rules := validateDecls(f)
		return len(conflictCandidates(rules.all))
	}
	small, large := pairs(16), pairs(32)
	t.Logf("candidate pairs: %d at 16 applications, %d at 32", small, large)
	if small == 0 || float64(large) > 2.5*float64(small) {
		t.Fatalf("candidate pairs grow from %d to %d when the applications double, want at most 2.5x", small, large)
	}
}

// TestValidateAllocGuard fences the conflict pass's cost on a
// benchmark-sized policy (16 applications, about 550 subject-scoped
// rules over four states) in allocations, which unlike time do not
// depend on the host. The quadratic pass compiled both patterns of
// every pair and re-split them for every enumeration salt: about 3M
// allocations for a policy of this size. The per-state pair scan with
// fmt-rendered findings made about 21,300; one candidate sweep per
// policy with findings rendered in one allocation each made about
// 13,300, re-splitting both patterns of every candidate. Splitting each
// pattern once per Validate, deciding each subject pair once, and
// building witnesses on one stack makes about 6,100.
func TestValidateAllocGuard(t *testing.T) {
	f, err := Parse(genSubjectPolicy(rand.New(rand.NewSource(1)), 16))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 6800
	n := testing.AllocsPerRun(3, func() { Validate(f) })
	t.Logf("%.0f allocations per Validate", n)
	if n > budget {
		t.Fatalf("Validate makes %.0f allocations on the generated policy, budget %d", n, budget)
	}
}

// BenchmarkPolicyLoad times Load on a benchmark-shaped subject-scoped
// policy (16 applications, about 500 rules over four states), the
// shape whose conflict pass dominates a load.
func BenchmarkPolicyLoad(b *testing.B) {
	src := genSubjectPolicy(rand.New(rand.NewSource(1)), 16)
	b.Run("subject-apps-16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Load(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}
