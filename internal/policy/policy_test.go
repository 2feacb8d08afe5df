package policy

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sys"
)

const examplePolicy = `
# SACK example policy (paper Fig. 1)
states {
  normal = 0
  emergency = 1
}

initial normal

permissions {
  NORMAL
  CONTROL_CAR_DOORS
}

state_per {
  normal:    NORMAL
  emergency: NORMAL, CONTROL_CAR_DOORS
}

per_rules {
  NORMAL {
    allow read /etc/**
  }
  CONTROL_CAR_DOORS {
    allow ioctl,write /dev/vehicle/door*
    allow ioctl,write /dev/vehicle/window* subject /usr/bin/rescued
  }
}

transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`

func TestParseExample(t *testing.T) {
	f, err := Parse(examplePolicy)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := f.StateNames(); len(got) != 2 || got[0] != "normal" || got[1] != "emergency" {
		t.Fatalf("states = %v", got)
	}
	if f.Initial != "normal" {
		t.Fatalf("initial = %q", f.Initial)
	}
	if got := f.PermissionNames(); len(got) != 2 {
		t.Fatalf("permissions = %v", got)
	}
	if len(f.StatePer) != 2 || len(f.StatePer[1].Perms) != 2 {
		t.Fatalf("state_per = %+v", f.StatePer)
	}
	if len(f.PerRules) != 2 {
		t.Fatalf("per_rules = %+v", f.PerRules)
	}
	doors := f.PerRules[1]
	if doors.Perm != "CONTROL_CAR_DOORS" || len(doors.Rules) != 2 {
		t.Fatalf("doors block = %+v", doors)
	}
	if doors.Rules[1].Subject != "/usr/bin/rescued" {
		t.Fatalf("subject = %q", doors.Rules[1].Subject)
	}
	if len(f.Transitions) != 2 {
		t.Fatalf("transitions = %+v", f.Transitions)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string // expected substring of the error
	}{
		{"unknown section", "bogus { }", "unknown section"},
		{"missing brace", "states normal", "'{'"},
		{"bad rule verb", "per_rules { P { permit read /x } }", "allow"},
		{"bad arrow", "transitions { a > b on e }", ""},
		{"missing on", "transitions { a -> b at e }", "'on'"},
		{"duplicate initial", "states { a }\ninitial a\ninitial a", "duplicate"},
		{"number as state", "states { 42 }", "identifier"},
		{"unterminated", "states {", ""},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if c.frag != "" && !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := LexAll("states {\n  a = 1\n}")
	if err != nil {
		t.Fatal(err)
	}
	// tokens: states { a = 1 } EOF
	if len(toks) != 7 {
		t.Fatalf("got %d tokens", len(toks))
	}
	if toks[2].Pos.Line != 2 || toks[2].Pos.Col != 3 {
		t.Fatalf("token %q at %v, want 2:3", toks[2].Text, toks[2].Pos)
	}
}

func TestLexerPathsWithBraces(t *testing.T) {
	toks, err := LexAll("/dev/{door,window}* }")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokPath || toks[0].Text != "/dev/{door,window}*" {
		t.Fatalf("path token = %+v", toks[0])
	}
	if toks[1].Kind != TokRBrace {
		t.Fatalf("expected closing brace to survive, got %+v", toks[1])
	}
}

func TestValidateCatchesSemanticErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"no states", "permissions { P }", "no situation states"},
		{"dup state", "states { a a }", "duplicate state"},
		{"dup encoding", "states { a = 1 b = 1 }", "encoding"},
		{"bad initial", "states { a }\ninitial zz", "not declared"},
		{"dup permission", "states { a }\npermissions { P P }", "duplicate permission"},
		{"unknown perm in state_per", "states { a }\nstate_per { a: NOPE }", "undeclared permission"},
		{"unknown state in state_per", "states { a }\npermissions { P }\nstate_per { zz: P }", "undeclared state"},
		{"dup state_per", "states { a }\npermissions { P }\nstate_per { a: P\n a: P }", "twice"},
		{"unknown perm in per_rules", "states { a }\nper_rules { NOPE { allow read /x } }", "undeclared permission"},
		{"dup per_rules", "states { a }\npermissions { P }\nper_rules { P { allow read /x } P { allow read /y } }", "two per_rules"},
		{"bad op", "states { a }\npermissions { P }\nper_rules { P { allow fly /x } }", "unknown operation"},
		{"bad glob", "states { a }\npermissions { P }\nper_rules { P { allow read /x[ } }", "bad path pattern"},
		{"unknown transition state", "states { a }\ntransitions { a -> zz on e }", "not declared"},
		{"nondeterministic", "states { a b }\ntransitions { a -> a on e\n a -> b on e }", "nondeterministic"},
		{"undeclared event", "states { a b }\nevents { e1 }\ntransitions { a -> b on e2 }", "undeclared event"},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse failed: %v", c.name, err)
		}
		vr := Validate(f)
		if vr.OK() {
			t.Errorf("%s: expected validation error", c.name)
			continue
		}
		if !strings.Contains(vr.Err().Error(), c.frag) {
			t.Errorf("%s: errors %v do not mention %q", c.name, vr.Errors(), c.frag)
		}
	}
}

func TestValidateWarnings(t *testing.T) {
	src := `
states { a b c }
initial a
permissions { USED UNUSED }
state_per { a: USED }
per_rules {
  USED {
    allow read /data/**
    deny read /data/*.txt
  }
}
transitions { a -> b on e1 }
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	vr := Validate(f)
	if !vr.OK() {
		t.Fatalf("unexpected errors: %v", vr.Errors())
	}
	warnings := vr.Warnings()
	var frags = []string{
		"never granted",     // UNUSED has no state
		"no per_rules",      // UNUSED grants nothing
		"unreachable",       // state c
		"allows and denies", // conflict in USED
	}
	joined := ""
	for _, w := range warnings {
		joined += w.String() + "\n"
	}
	for _, frag := range frags {
		if !strings.Contains(joined, frag) {
			t.Errorf("warnings missing %q in:\n%s", frag, joined)
		}
	}
}

func TestCompileExample(t *testing.T) {
	c, vr, err := Load(examplePolicy)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !vr.OK() {
		t.Fatalf("validation: %v", vr.Errors())
	}
	if c.Initial != "normal" {
		t.Fatalf("initial = %q", c.Initial)
	}
	enc, ok := c.Encoding("emergency")
	if !ok || enc != 1 {
		t.Fatalf("encoding(emergency) = %d,%v", enc, ok)
	}

	normal := c.StateSets["normal"]
	emergency := c.StateSets["emergency"]
	if normal.Len() != 1 || emergency.Len() != 3 {
		t.Fatalf("rule set sizes = %d, %d", normal.Len(), emergency.Len())
	}

	// normal: /etc readable, doors untouchable.
	if ok, _ := normal.Decide("", "/etc/fstab", sys.MayRead); !ok {
		t.Error("normal should allow /etc read")
	}
	if ok, _ := normal.Decide("", "/dev/vehicle/door0", sys.MayIoctl); ok {
		t.Error("normal should not allow door ioctl")
	}

	// emergency: doors controllable, windows only for the rescue daemon.
	if ok, _ := emergency.Decide("/usr/lib/ivi/radio", "/dev/vehicle/door1", sys.MayIoctl); !ok {
		t.Error("emergency should allow door ioctl for any subject")
	}
	if ok, _ := emergency.Decide("/usr/lib/ivi/radio", "/dev/vehicle/window0", sys.MayIoctl); ok {
		t.Error("window rule is subject-scoped; radio app must be denied")
	}
	if ok, _ := emergency.Decide("/usr/bin/rescued", "/dev/vehicle/window0", sys.MayIoctl); !ok {
		t.Error("rescued should control windows in emergency")
	}

	// Coverage: all rule paths covered, others not.
	for path, want := range map[string]bool{
		"/etc/fstab":           true,
		"/dev/vehicle/door0":   true,
		"/dev/vehicle/window2": true,
		"/tmp/scratch":         false,
		"/dev/vehicle/audio0":  false,
	} {
		if got := c.Coverage.Covers(path); got != want {
			t.Errorf("Covers(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestStateMatchersShareCoverageTrie pins the one-trie layout: every
// state's matcher walks the coverage trie itself.
func TestStateMatchersShareCoverageTrie(t *testing.T) {
	c, _, err := Load(examplePolicy)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range c.StateNames() {
		if c.StateSets[st].Matcher().trie != &c.Coverage.trie {
			t.Errorf("state %s has a trie of its own", st)
		}
	}
}

// TestTransitionIndex pins the compiled transition relation: Next
// answers per (state, event) exactly as the transition rules say, and
// the known-event set holds every event some rule reacts to.
func TestTransitionIndex(t *testing.T) {
	c, _, err := Load(examplePolicy)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range c.Transitions {
		to, ok := c.Next(tr.From, Event(tr.Event))
		if !ok || to.Name != tr.To {
			t.Errorf("Next(%s, %s) = %v %v, want %s", tr.From, tr.Event, to, ok, tr.To)
		}
		if enc, _ := c.Encoding(tr.To); to.Encoding != enc {
			t.Errorf("Next(%s, %s) encoding %d, want %d", tr.From, tr.Event, to.Encoding, enc)
		}
		if !c.KnowsEvent(Event(tr.Event)) {
			t.Errorf("event %s unknown", tr.Event)
		}
	}
	if _, ok := c.Next(c.Initial, "no_such_event"); ok || c.KnowsEvent("no_such_event") {
		t.Error("an event no rule names matched")
	}
	evs := c.Events()
	if len(evs) != 2 || evs[0] != "all_clear" || evs[1] != "crash_detected" {
		t.Fatalf("Events() = %v", evs)
	}
	if _, ok := c.Next("normal", "all_clear"); ok {
		t.Error("all_clear matched in normal, which no rule leaves on it")
	}
}

// TestStateRuleSetsViewOneRuleTable pins the one-rule-table layout:
// every rank of every state's matcher is a pointer into the policy's
// PermRules storage, not a copy, reached once per time the state lists
// the rule's permission (twice for a permission listed twice). A rule
// granted in several states is the same object in each.
func TestStateRuleSetsViewOneRuleTable(t *testing.T) {
	for _, src := range []string{examplePolicy, genSubjectPolicy(rand.New(rand.NewSource(3)), 4)} {
		c, _, err := Load(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range c.StateNames() {
			rs := c.StateSets[st]
			seen := make(map[*CompiledRule]int)
			for rank := 0; rank < rs.Len(); rank++ {
				seen[rs.Matcher().Rule(rank)]++
			}
			want := make(map[*CompiledRule]int)
			for _, perm := range c.StatePerms[st] {
				for i := range c.PermRules[perm] {
					want[&c.PermRules[perm][i]]++
				}
			}
			if !reflect.DeepEqual(seen, want) {
				t.Fatalf("state %s: matcher ranks reach %d rules, want the %d PermRules entries its permissions grant, each once per grant",
					st, len(seen), len(want))
			}
		}
	}
}

func TestCompileAutoEncodings(t *testing.T) {
	src := "states { a b = 0 c }\ninitial a"
	c, _, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint32{}
	for _, s := range c.States {
		got[s.Name] = s.Encoding
	}
	if got["b"] != 0 {
		t.Fatalf("explicit encoding lost: %v", got)
	}
	if got["a"] == got["b"] || got["a"] == got["c"] || got["b"] == got["c"] {
		t.Fatalf("encodings not unique: %v", got)
	}
}

func TestDenyWinsInRuleSet(t *testing.T) {
	src := `
states { s }
initial s
permissions { P }
state_per { s: P }
per_rules {
  P {
    allow read,write /data/**
    deny write /data/readonly/**
  }
}
`
	c, _, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	rs := c.StateSets["s"]
	if ok, _ := rs.Decide("", "/data/file", sys.MayWrite); !ok {
		t.Error("general write should be allowed")
	}
	if ok, _ := rs.Decide("", "/data/readonly/file", sys.MayWrite); ok {
		t.Error("deny rule must win")
	}
	if ok, _ := rs.Decide("", "/data/readonly/file", sys.MayRead); !ok {
		t.Error("read of readonly area should still be allowed")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	f1, err := Parse(examplePolicy)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(f1)
	f2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse of formatted output: %v\n%s", err, text)
	}
	c1, _, err1 := Compile(f1)
	c2, _, err2 := Compile(f2)
	if err1 != nil || err2 != nil {
		t.Fatalf("compile: %v, %v", err1, err2)
	}
	if len(c1.States) != len(c2.States) || c1.Initial != c2.Initial {
		t.Fatal("round trip changed states")
	}
	for name, rs1 := range c1.StateSets {
		rs2 := c2.StateSets[name]
		if rs2 == nil || rs1.Len() != rs2.Len() {
			t.Fatalf("round trip changed rule set %q", name)
		}
	}
	if len(c1.Transitions) != len(c2.Transitions) {
		t.Fatal("round trip changed transitions")
	}
}

func TestRuleSetBucketingMatchesLinearScan(t *testing.T) {
	// The first-segment index must never change decisions: compare the
	// indexed Decide against a brute-force evaluation.
	src := `
states { s }
initial s
permissions { P }
state_per { s: P }
per_rules {
  P {
    allow read /etc/**
    allow write /var/log/*.log
    deny write /var/log/secure.log
    allow ioctl /dev/vehicle/door*
    allow read,write /**/shared.dat
  }
}
`
	c, _, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	rs := c.StateSets["s"]
	rules := rs.Rules()
	brute := func(subject, path string, mask sys.Access) bool {
		var granted sys.Access
		for i := range rules {
			r := &rules[i]
			if !r.Matches(subject, path) {
				continue
			}
			if r.Deny && mask&r.Access != 0 {
				return false
			}
			if !r.Deny {
				granted |= r.Access
			}
		}
		return granted.Has(mask)
	}
	paths := []string{
		"/etc/a", "/etc/x/y", "/var/log/app.log", "/var/log/secure.log",
		"/dev/vehicle/door9", "/any/where/shared.dat", "/other", "/var/log/sub/app.log",
	}
	masks := []sys.Access{sys.MayRead, sys.MayWrite, sys.MayIoctl, sys.MayRead | sys.MayWrite}
	for _, p := range paths {
		for _, m := range masks {
			want := brute("", p, m)
			got, _ := rs.Decide("", p, m)
			if got != want {
				t.Errorf("Decide(%q, %s) = %v, brute = %v", p, m, got, want)
			}
		}
	}
}

func TestCarveOutIsNotAConflict(t *testing.T) {
	src := `
states { s }
initial s
permissions { P }
state_per { s: P }
per_rules {
  P {
    allow write /dev/firmware/*
    deny write /dev/firmware/bootloader
  }
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	vr := Validate(f)
	for _, w := range vr.Warnings() {
		if strings.Contains(w.Message, "allows and denies") {
			t.Fatalf("carve-out flagged as conflict: %s", w)
		}
	}
	// The inverse (literal allow under a deny glob) stays a conflict.
	src2 := strings.Replace(src,
		"allow write /dev/firmware/*\n    deny write /dev/firmware/bootloader",
		"allow write /dev/firmware/bootloader\n    deny write /dev/firmware/*", 1)
	f2, err := Parse(src2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range Validate(f2).Warnings() {
		if strings.Contains(w.Message, "allows and denies") {
			found = true
		}
	}
	if !found {
		t.Fatal("shadowed allow not flagged")
	}
}
