// Package verify is SACK's symbolic policy verifier: an exhaustive
// explorer of the situation state machine's product space — states ×
// event transitions × break-glass entries × failsafe degradation —
// checked against a small invariant grammar. State spaces are tiny
// (policies declare a handful of situation states), so exploration is
// plain bitset/BFS iteration over the compiled policy; no external
// solver. Every violation carries a concrete witness: the event trace
// that reaches the offending state and, for access invariants, the
// object path and deciding rule, replayable against the live decision
// engine. See DESIGN.md §12.
package verify

import (
	"fmt"
	"strings"

	"repro/internal/glob"
	"repro/internal/sys"
)

// Kind discriminates invariant forms.
type Kind int

// Invariant kinds.
const (
	// KindReachable: `reachable <state>` — normal or failsafe operation
	// must be able to occupy the state.
	KindReachable Kind = iota
	// KindAlwaysIn: `always in <state-list>` — operation never leaves the
	// listed states.
	KindAlwaysIn
	// KindAlwaysNot: `always not <state>` — operation never occupies the
	// state.
	KindAlwaysNot
	// KindNever: `never <subject> <ops> <glob> [in <states>]` — no state
	// in scope (default: every declared state, break-glass included)
	// grants subject any listed operation on any object matching glob.
	KindNever
	// KindImpliesAllow: `in <state> => allow <subject> <ops> <path>` —
	// the state's rule set must grant subject all listed operations on
	// the literal path.
	KindImpliesAllow
)

func (k Kind) String() string {
	switch k {
	case KindReachable:
		return "reachable"
	case KindAlwaysIn:
		return "always-in"
	case KindAlwaysNot:
		return "always-not"
	case KindNever:
		return "never"
	default:
		return "implies-allow"
	}
}

// Invariant is one parsed safety property.
type Invariant struct {
	Kind   Kind
	Source string // the source line, verbatim (for reports)
	Line   int

	States  []string // reachable/always/implies target states, never scope
	Subject string   // "" = unconfined ("-" in the source)
	Access  sys.Access
	Ops     []string   // operation names as written
	Glob    *glob.Glob // never: object pattern
	Path    string     // implies-allow: literal object path
}

// Set is a parsed invariant file.
type Set struct {
	Invariants []Invariant
}

// Len reports the number of invariants in the set.
func (s *Set) Len() int { return len(s.Invariants) }

// ParseSet parses an invariant file: one invariant per line, '#'
// comments, blank lines ignored.
//
//	reachable <state>
//	always in <state>[, <state>...]
//	always not <state>
//	never <subject> <ops> <glob> [in <state>[, <state>...]]
//	in <state> => allow <subject> <ops> <path>
//
// <subject> is an executable path or '-' for unconfined; <ops> is a
// comma-separated operation list (read,write,...).
func ParseSet(src string) (*Set, error) {
	set := &Set{}
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		inv, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("invariants:%d: %w", ln+1, err)
		}
		inv.Source = line
		inv.Line = ln + 1
		set.Invariants = append(set.Invariants, inv)
	}
	return set, nil
}

func parseLine(line string) (Invariant, error) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "reachable":
		if len(fields) != 2 {
			return Invariant{}, fmt.Errorf("usage: reachable <state>")
		}
		return Invariant{Kind: KindReachable, States: []string{fields[1]}}, nil

	case "always":
		if len(fields) < 3 {
			return Invariant{}, fmt.Errorf("usage: always in <states> | always not <state>")
		}
		switch fields[1] {
		case "in":
			return Invariant{Kind: KindAlwaysIn, States: stateList(fields[2:])}, nil
		case "not":
			if len(fields) != 3 {
				return Invariant{}, fmt.Errorf("usage: always not <state>")
			}
			return Invariant{Kind: KindAlwaysNot, States: []string{fields[2]}}, nil
		}
		return Invariant{}, fmt.Errorf("always must be followed by 'in' or 'not'")

	case "never":
		if len(fields) < 4 {
			return Invariant{}, fmt.Errorf("usage: never <subject> <ops> <glob> [in <states>]")
		}
		inv := Invariant{Kind: KindNever, Subject: subjectOf(fields[1])}
		var err error
		if inv.Ops, inv.Access, err = parseOps(fields[2]); err != nil {
			return Invariant{}, err
		}
		if inv.Glob, err = glob.Compile(fields[3]); err != nil {
			return Invariant{}, fmt.Errorf("bad object pattern %q: %v", fields[3], err)
		}
		if len(fields) > 4 {
			if fields[4] != "in" {
				return Invariant{}, fmt.Errorf("expected 'in <states>' after pattern, got %q", fields[4])
			}
			if len(fields) == 5 {
				return Invariant{}, fmt.Errorf("'in' needs at least one state")
			}
			inv.States = stateList(fields[5:])
		}
		return inv, nil

	case "in":
		// in <state> => allow <subject> <ops> <path>
		if len(fields) != 7 || fields[2] != "=>" || fields[3] != "allow" {
			return Invariant{}, fmt.Errorf("usage: in <state> => allow <subject> <ops> <path>")
		}
		inv := Invariant{Kind: KindImpliesAllow, States: []string{fields[1]},
			Subject: subjectOf(fields[4]), Path: fields[6]}
		var err error
		if inv.Ops, inv.Access, err = parseOps(fields[5]); err != nil {
			return Invariant{}, err
		}
		return inv, nil
	}
	return Invariant{}, fmt.Errorf("unknown invariant form %q", fields[0])
}

// subjectOf maps the '-' unconfined marker to the empty subject the
// decision engine uses.
func subjectOf(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

// subjectWord renders a subject for reports, inverse of subjectOf.
func subjectWord(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func parseOps(s string) ([]string, sys.Access, error) {
	var ops []string
	var mask sys.Access
	for _, op := range strings.Split(s, ",") {
		op = strings.TrimSpace(op)
		if op == "" {
			continue
		}
		bit := sys.ParseAccess(op)
		if bit == 0 {
			return nil, 0, fmt.Errorf("unknown operation %q (valid: %s)", op, strings.Join(sys.AccessNames(), ", "))
		}
		ops = append(ops, op)
		mask |= bit
	}
	if mask == 0 {
		return nil, 0, fmt.Errorf("empty operation list")
	}
	return ops, mask, nil
}

// stateList splits trailing fields on commas: "a, b" / "a,b" / "a b".
func stateList(fields []string) []string {
	var out []string
	for _, f := range fields {
		for _, s := range strings.Split(f, ",") {
			if s = strings.TrimSpace(s); s != "" {
				out = append(out, s)
			}
		}
	}
	return out
}
