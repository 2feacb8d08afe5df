package policy

import (
	"strings"
	"testing"

	"repro/internal/glob"
)

// The issue's motivating shadowing pair: a deny glob covering an allow
// glob with no shared literal path. The conflict pass must flag it and
// name a concrete witness object.
func TestConflictGlobGlobShadowing(t *testing.T) {
	src := `
states { workshop }
initial workshop
permissions { CAN }
state_per { workshop: CAN }
per_rules {
  CAN {
    allow write /dev/can/actuator*
    deny write /dev/can/** subject /usr/bin/ivi
  }
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var conflict string
	for _, w := range Validate(f).Warnings() {
		if strings.Contains(w.Message, "allows and denies") {
			conflict = w.Message
		}
	}
	if conflict == "" {
		t.Fatal("glob/glob shadowing not flagged as a conflict")
	}
	if !strings.Contains(conflict, "e.g.") {
		t.Fatalf("conflict warning carries no witness: %s", conflict)
	}
	// The quoted witness must really match both patterns.
	start := strings.Index(conflict, `e.g. "`) + len(`e.g. "`)
	witness := conflict[start : start+strings.IndexByte(conflict[start:], '"')]
	for _, pat := range []string{"/dev/can/actuator*", "/dev/can/**"} {
		if !glob.MustCompile(pat).Match(witness) {
			t.Fatalf("witness %q does not match %q", witness, pat)
		}
	}
}

// Disjoint patterns sharing a literal prefix were the old heuristic's
// false positive; the exact intersection must stay silent.
func TestConflictDisjointPrefixSharingPatterns(t *testing.T) {
	src := `
states { a }
initial a
permissions { P }
state_per { a: P }
per_rules {
  P {
    allow write /dev/can/a*/x
    deny write /dev/can/*/y
  }
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Validate(f).Warnings() {
		if strings.Contains(w.Message, "allows and denies") {
			t.Fatalf("disjoint patterns flagged as conflict: %s", w)
		}
	}
}

// A conflict needs one subject both rules govern. Rules scoped to
// provably different executables never meet at runtime; a rule with no
// subject, or subject globs that overlap, still can.
func TestConflictSubjects(t *testing.T) {
	cases := []struct {
		name, allowSubj, denySubj string
		flagged                   bool
	}{
		{"disjoint subjects", " subject /usr/bin/app00", " subject /usr/bin/app05", false},
		{"same subject", " subject /usr/bin/app00", " subject /usr/bin/app00", true},
		{"overlapping subject globs", " subject /usr/bin/app*", " subject /usr/bin/app05", true},
		{"subject-less allow", "", " subject /usr/bin/app05", true},
		{"subject-less deny", " subject /usr/bin/app00", "", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := `
states { a }
initial a
permissions { P }
state_per { a: P }
per_rules {
  P {
    allow read /opt/app00/**` + c.allowSubj + `
    deny read,write /opt/app00/secret/**` + c.denySubj + `
  }
}
`
			f, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			flagged := false
			for _, w := range Validate(f).Warnings() {
				flagged = flagged || strings.Contains(w.Message, "allows and denies")
			}
			if flagged != c.flagged {
				t.Fatalf("conflict flagged = %v, want %v", flagged, c.flagged)
			}
		})
	}
}

// Failsafe-only and break-glass-only states get distinct warning
// classes, matching the verifier's reachability classification.
func TestValidateReachabilityClasses(t *testing.T) {
	src := `
states { run limp depot vault }
initial run
failsafe limp
permissions { P }
state_per { run: P }
per_rules { P { allow read /etc/** } }
transitions {
  run -> run on tick
  limp -> depot on towed
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	vr := Validate(f)
	if !vr.OK() {
		t.Fatalf("unexpected errors: %v", vr.Errors())
	}
	byState := make(map[string]string)
	for _, w := range vr.Warnings() {
		for _, s := range []string{"limp", "depot", "vault"} {
			if strings.Contains(w.Message, "state "+s+" ") || strings.Contains(w.Message, "state "+s+"'") ||
				strings.Contains(w.Message, quoteIdent(s)+" is") {
				byState[s] += w.Message + "\n"
			}
		}
	}
	// limp is the failsafe root itself: entered by the watchdog, by design,
	// so no reachability warning.
	if strings.Contains(byState["limp"], "reachable") || strings.Contains(byState["limp"], "unreachable") {
		t.Errorf("failsafe root should not draw a reachability warning: %s", byState["limp"])
	}
	// depot is reachable only after degradation pins limp.
	if !strings.Contains(byState["depot"], "failsafe degradation") {
		t.Errorf("depot should be flagged failsafe-only, got: %s", byState["depot"])
	}
	// vault has no event path at all: unreachable, break-glass territory.
	if !strings.Contains(byState["vault"], "unreachable") || !strings.Contains(byState["vault"], "break-glass") {
		t.Errorf("vault should be flagged unreachable/break-glass-only, got: %s", byState["vault"])
	}

	// The compiled classification — the verifier's ground truth — agrees.
	c, _, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]EntryKind{
		"run": EntryNormal, "limp": EntryFailsafe,
		"depot": EntryFailsafe, "vault": EntryBreakGlass,
	}
	got := c.Reachability()
	for s, k := range want {
		if got[s] != k {
			t.Errorf("Reachability[%s] = %v, want %v", s, got[s], k)
		}
	}
}
