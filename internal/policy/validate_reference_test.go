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
// alternations, unsegmentable "**"-glued patterns, identical paths, and
// permissions granted to states in different orders, so a memoised
// verdict is reused with both argument orders.
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
		base = append(base,
			fmt.Sprintf("allow read %s/**%s", r, subj(j)),
			fmt.Sprintf("allow write %s/rw/**%s", r, subj(j)),
			fmt.Sprintf("deny write %s/rw/f%d*%s", r, rng.Intn(files), subj(j)),
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

	var b strings.Builder
	b.WriteString("states { parked driving workshop emergency }\ninitial parked\n")
	b.WriteString("permissions { BASE PARKED DRIVING }\n")
	b.WriteString("state_per {\n  parked: BASE, PARKED\n  driving: DRIVING, BASE\n  workshop: PARKED, DRIVING, BASE\n  emergency: BASE\n}\n")
	b.WriteString("per_rules {\n")
	for _, blk := range []struct {
		name  string
		rules []string
	}{{"BASE", base}, {"PARKED", gatedA}, {"DRIVING", gatedB}} {
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

// TestValidateMatchesReference: the prepared, prefix-filtered, memoised
// conflict pass reports exactly the reference pass's findings — same
// order, same text, same witnesses — on random policies and on
// benchmark-shaped subject-scoped ones.
func TestValidateMatchesReference(t *testing.T) {
	check := func(t *testing.T, src string) {
		t.Helper()
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		got, want := Validate(f).Issues, referenceValidate(f)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Validate differs from the reference:\ngot  %d: %v\nwant %d: %v\n%s", len(got), got, len(want), want, src)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		check(t, genPolicy(rand.New(rand.NewSource(seed))))
	}
	conflicts := 0
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		apps := 2 + rng.Intn(7)
		if seed == 0 {
			apps = 16
		}
		src := genSubjectPolicy(rng, apps)
		check(t, src)
		f, _ := Parse(src)
		for _, w := range Validate(f).Warnings() {
			if strings.Contains(w.Message, "allows and denies") {
				conflicts++
			}
		}
	}
	// The generator must actually produce conflicts, or the comparison
	// above proves nothing about the emitting path.
	if conflicts == 0 {
		t.Fatal("subject-scoped policies produced no conflict findings")
	}
}

// TestValidateAllocGuard fences the conflict pass's cost on a
// benchmark-sized policy (16 applications, about 490 subject-scoped
// rules over four states) in allocations, which unlike time do not
// depend on the host. The quadratic pass compiled both patterns of
// every pair and re-split them for every enumeration salt: about 3M
// allocations for a policy of this size.
func TestValidateAllocGuard(t *testing.T) {
	f, err := Parse(genSubjectPolicy(rand.New(rand.NewSource(1)), 16))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20000
	if n := testing.AllocsPerRun(3, func() { Validate(f) }); n > budget {
		t.Fatalf("Validate makes %.0f allocations on the generated policy, budget %d", n, budget)
	}
}
