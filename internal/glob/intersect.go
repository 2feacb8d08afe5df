package glob

import "strings"

// Glob intersection. The policy verifier and the allow/deny conflict
// pass both need to answer "can any concrete path match both of these
// patterns?" — and, when the answer is yes, want one such path as a
// concrete witness to show the administrator. Patterns here are the
// same tiny language the matcher trie indexes (brace branches split at
// Compile, segments split by SplitSegments), so intersection runs
// segment-wise: "**" edges consume whole segments, and within one
// segment the *, ?, [...] atoms are intersected character by character.
// The construction is exact for every segmentable pattern pair; the
// rare unsegmentable shapes (unrooted, "**" glued mid-segment) fall
// back to exemplar probing and report Unknown when that is inconclusive.

// IntersectResult classifies an intersection query.
type IntersectResult int

// Intersection outcomes.
const (
	// IntersectNone: the pattern languages are provably disjoint.
	IntersectNone IntersectResult = iota
	// IntersectFound: at least one common path exists; a witness is
	// returned.
	IntersectFound
	// IntersectUnknown: the patterns could not be segment-indexed and
	// exemplar probing was inconclusive. Callers choose a conservative
	// interpretation.
	IntersectUnknown
)

// Intersect reports whether any path matches both patterns. On
// IntersectFound the returned witness is one such path, verified
// against both patterns before being returned.
func Intersect(a, b *Glob) (witness string, res IntersectResult) {
	ws, res := IntersectK(a, b, 1)
	if res == IntersectFound {
		return ws[0], res
	}
	return "", res
}

// IntersectK enumerates up to k distinct paths matching both patterns.
// Enumeration is salted: each salt steers every free choice in the
// construction (the filler segment under "**"-vs-"**", the byte picked
// for an unconstrained '?', '*', or class position) toward a different
// region of the path space, so the witnesses differ wherever the
// pattern pair leaves room. Callers that must dodge a carve-out (the
// verifier probing an allow rule whose first witness a deny rule
// swallows) walk the list instead of giving up after one. Fewer than k
// results means the construction ran out of distinguishable choices,
// not that only that many common paths exist.
func IntersectK(a, b *Glob, k int) ([]string, IntersectResult) {
	if k < 1 {
		k = 1
	}
	unknown := false
	seen := make(map[string]bool, k)
	var out []string
	// A handful of salts per requested witness is plenty: each salt
	// varies every free position at once, so collisions only happen
	// when the patterns pin the path down.
	for salt := 0; salt < 8*k && len(out) < k; salt++ {
		for _, pa := range a.branches {
			for _, pb := range b.branches {
				w, r := branchIntersect(pa, pb, salt)
				switch r {
				case IntersectFound:
					// Defense in depth: a constructed witness that does not
					// actually match both branches signals a construction gap,
					// not a proof — degrade to Unknown rather than mislead.
					if matchGlob(pa, w) && matchGlob(pb, w) {
						if !seen[w] {
							seen[w] = true
							out = append(out, w)
						}
					} else {
						unknown = true
					}
				case IntersectUnknown:
					unknown = true
				}
				if len(out) >= k {
					return out, IntersectFound
				}
			}
		}
		// Salts only steer free choices; whether a segmentable pair
		// intersects does not depend on them. A first pass that found no
		// witness and hit no Unknown has proved the patterns disjoint, so
		// the remaining salts would only repeat the proof.
		if salt == 0 && len(out) == 0 && !unknown {
			return nil, IntersectNone
		}
	}
	if len(out) > 0 {
		return out, IntersectFound
	}
	if unknown {
		return nil, IntersectUnknown
	}
	return nil, IntersectNone
}

// branchIntersect intersects two brace-free branches. The salt steers
// free construction choices; salt 0 reproduces the historical minimal
// witness.
func branchIntersect(pa, pb string, salt int) (string, IntersectResult) {
	segsA, okA := SplitSegments(pa)
	segsB, okB := SplitSegments(pb)
	if !okA || !okB {
		// Unsegmentable shape: probe each pattern's exemplar against the
		// other. Finding a match is a proof; not finding one is not.
		if wa := Exemplar(pa); matchGlob(pa, wa) && matchGlob(pb, wa) {
			return wa, IntersectFound
		}
		if wb := Exemplar(pb); matchGlob(pb, wb) && matchGlob(pa, wb) {
			return wb, IntersectFound
		}
		return "", IntersectUnknown
	}
	segs, ok := intersectSegLists(segsA, segsB, salt)
	if !ok {
		return "", IntersectNone
	}
	return "/" + strings.Join(segs, "/"), IntersectFound
}

// intersectSegLists builds witness segments matched by both segment
// lists, handling "**" edges (consume one or more whole segments, empty
// segments included). Failure memoisation keeps the branch-heavy "**"
// cases polynomial.
func intersectSegLists(a, b []Seg, salt int) ([]string, bool) {
	type key struct{ i, j int }
	dead := make(map[key]bool)
	var rec func(i, j int) ([]string, bool)
	rec = func(i, j int) ([]string, bool) {
		if dead[key{i, j}] {
			return nil, false
		}
		fail := func() ([]string, bool) {
			dead[key{i, j}] = true
			return nil, false
		}
		switch {
		case i == len(a) && j == len(b):
			return nil, true
		case i == len(a) || j == len(b):
			// Every remaining edge consumes at least one segment.
			return fail()
		}
		sa, sb := a[i], b[j]
		switch {
		case sa.Kind == SegDoubleStar && sb.Kind == SegDoubleStar:
			// Both stars eat one filler segment; then either (or both) may
			// be done with it.
			for _, next := range [][2]int{{i + 1, j + 1}, {i + 1, j}, {i, j + 1}} {
				if rest, ok := rec(next[0], next[1]); ok {
					return append([]string{starFiller(salt)}, rest...), true
				}
			}
			return fail()
		case sa.Kind == SegDoubleStar:
			// a's "**" eats one segment shaped by b's head; it may then
			// keep eating or stop.
			w, ok := segExemplarSalted(sb, salt)
			if !ok {
				return fail()
			}
			for _, next := range [][2]int{{i + 1, j + 1}, {i, j + 1}} {
				if rest, ok := rec(next[0], next[1]); ok {
					return append([]string{w}, rest...), true
				}
			}
			return fail()
		case sb.Kind == SegDoubleStar:
			w, ok := segExemplarSalted(sa, salt)
			if !ok {
				return fail()
			}
			for _, next := range [][2]int{{i + 1, j + 1}, {i + 1, j}} {
				if rest, ok := rec(next[0], next[1]); ok {
					return append([]string{w}, rest...), true
				}
			}
			return fail()
		default:
			w, ok := intersectOneSeg(sa, sb, salt)
			if !ok {
				return fail()
			}
			rest, ok := rec(i+1, j+1)
			if !ok {
				return fail()
			}
			return append([]string{w}, rest...), true
		}
	}
	return rec(0, 0)
}

// starFiller is the segment emitted where both patterns leave the
// content free ("**" against "**"): the historical "x" at salt 0,
// rotated through the exemplar alphabet otherwise.
func starFiller(salt int) string {
	if salt == 0 {
		return "x"
	}
	return string(exemplarBytes[(salt-1)%len(exemplarBytes)]) + "x"
}

// intersectOneSeg intersects two single-segment matchers.
func intersectOneSeg(a, b Seg, salt int) (string, bool) {
	if a.Kind == SegLiteral && b.Kind == SegLiteral {
		if a.Text == b.Text {
			return a.Text, true
		}
		return "", false
	}
	if a.Kind == SegLiteral {
		if MatchSegment(b.Text, a.Text) {
			return a.Text, true
		}
		return "", false
	}
	if b.Kind == SegLiteral {
		if MatchSegment(a.Text, b.Text) {
			return b.Text, true
		}
		return "", false
	}
	return intersectSegPatterns(a.Text, b.Text, salt)
}

// segAtom is one element of an in-segment pattern: a star, or a
// single-character matcher (literal byte, '?', or a character class).
type segAtom struct {
	kind  uint8 // atomStar, atomLit, atomAny, atomClass
	lit   byte
	class string
}

const (
	atomStar uint8 = iota
	atomLit
	atomAny
	atomClass
)

// parseSegAtoms lowers one "**"-free segment pattern into atoms.
func parseSegAtoms(p string) []segAtom {
	var atoms []segAtom
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '*':
			atoms = append(atoms, segAtom{kind: atomStar})
		case '?':
			atoms = append(atoms, segAtom{kind: atomAny})
		case '[':
			end := strings.IndexByte(p[i+1:], ']')
			if end < 0 {
				// Malformed class cannot reach here post-Compile; treat the
				// '[' literally as the matcher would fail anyway.
				atoms = append(atoms, segAtom{kind: atomLit, lit: p[i]})
				continue
			}
			atoms = append(atoms, segAtom{kind: atomClass, class: p[i+1 : i+1+end]})
			i += end + 1
		default:
			atoms = append(atoms, segAtom{kind: atomLit, lit: p[i]})
		}
	}
	return atoms
}

// charFor picks one byte satisfying both single-character atoms.
func charFor(a, b segAtom) (byte, bool) {
	return charForSalted(a, b, 0)
}

// charForSalted is charFor with the free-choice scan rotated by salt,
// so different salts land on different satisfying bytes when the atoms
// leave the choice open. Constrained picks (a literal on either side)
// ignore the salt.
func charForSalted(a, b segAtom, salt int) (byte, bool) {
	if a.kind == atomLit {
		if atomAccepts(b, a.lit) {
			return a.lit, true
		}
		return 0, false
	}
	if b.kind == atomLit {
		if atomAccepts(a, b.lit) {
			return b.lit, true
		}
		return 0, false
	}
	n := len(exemplarBytes)
	for i := 0; i < n; i++ {
		c := exemplarBytes[(i+salt)%n]
		if atomAccepts(a, c) && atomAccepts(b, c) {
			return c, true
		}
	}
	return 0, false
}

func atomAccepts(a segAtom, c byte) bool {
	switch a.kind {
	case atomLit:
		return a.lit == c
	case atomAny:
		return c != '/'
	case atomClass:
		return matchClass(a.class, c)
	}
	return false
}

// exemplarBytes is the candidate alphabet scanned when a character may
// be chosen freely: the printable ASCII range, friendliest bytes first
// so witnesses stay readable.
var exemplarBytes = func() []byte {
	var out []byte
	for c := byte('a'); c <= 'z'; c++ {
		out = append(out, c)
	}
	for c := byte('0'); c <= '9'; c++ {
		out = append(out, c)
	}
	for c := byte('!'); c <= '~'; c++ {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '/':
		default:
			out = append(out, c)
		}
	}
	return out
}()

// intersectSegPatterns intersects two in-segment patterns atom by atom,
// building a witness segment. Memoised on the atom-index pair, so the
// star branching stays quadratic.
func intersectSegPatterns(pa, pb string, salt int) (string, bool) {
	a, b := parseSegAtoms(pa), parseSegAtoms(pb)
	type key struct{ i, j int }
	dead := make(map[key]bool)
	var rec func(i, j int) (string, bool)
	rec = func(i, j int) (string, bool) {
		if dead[key{i, j}] {
			return "", false
		}
		fail := func() (string, bool) {
			dead[key{i, j}] = true
			return "", false
		}
		switch {
		case i == len(a) && j == len(b):
			return "", true
		case i == len(a):
			// Remaining b atoms must all be stars (match empty).
			for _, at := range b[j:] {
				if at.kind != atomStar {
					return fail()
				}
			}
			return "", true
		case j == len(b):
			for _, at := range a[i:] {
				if at.kind != atomStar {
					return fail()
				}
			}
			return "", true
		}
		aa, ab := a[i], b[j]
		switch {
		case aa.kind == atomStar && ab.kind == atomStar:
			if w, ok := rec(i+1, j); ok {
				return w, true
			}
			if w, ok := rec(i, j+1); ok {
				return w, true
			}
			return fail()
		case aa.kind == atomStar:
			// Star matches empty, or swallows one character shaped by b's
			// next atom.
			if w, ok := rec(i+1, j); ok {
				return w, true
			}
			if c, ok := charForSalted(ab, ab, salt); ok {
				if w, ok := rec(i, j+1); ok {
					return string(c) + w, true
				}
			}
			return fail()
		case ab.kind == atomStar:
			if w, ok := rec(i, j+1); ok {
				return w, true
			}
			if c, ok := charForSalted(aa, aa, salt); ok {
				if w, ok := rec(i+1, j); ok {
					return string(c) + w, true
				}
			}
			return fail()
		default:
			c, ok := charForSalted(aa, ab, salt)
			if !ok {
				return fail()
			}
			w, ok := rec(i+1, j+1)
			if !ok {
				return fail()
			}
			return string(c) + w, true
		}
	}
	return rec(0, 0)
}

// segExemplar produces one concrete segment matched by seg.
func segExemplar(seg Seg) (string, bool) {
	return segExemplarSalted(seg, 0)
}

// segExemplarSalted is segExemplar with salted free choices.
func segExemplarSalted(seg Seg, salt int) (string, bool) {
	if seg.Kind == SegLiteral {
		return seg.Text, true
	}
	var sb strings.Builder
	for _, at := range parseSegAtoms(seg.Text) {
		switch at.kind {
		case atomStar:
			// Stars collapse to empty at salt 0 (the minimal witness);
			// other salts expand them over rotated filler bytes so the
			// enumeration visits new segments. The MatchSegment check
			// below rejects expansions an adjacent atom cannot absorb.
			for r := 0; r < salt%3; r++ {
				sb.WriteByte(exemplarBytes[(salt+r)%len(exemplarBytes)])
			}
		default:
			c, ok := charForSalted(at, at, salt)
			if !ok {
				return "", false
			}
			sb.WriteByte(c)
		}
	}
	w := sb.String()
	if !MatchSegment(seg.Text, w) {
		return "", false
	}
	return w, true
}

// Exemplar instantiates one brace-free branch into a concrete path
// attempt: '*' and "**" collapse to minimal fillers, '?' and classes
// to one satisfying byte. The result is best-effort — callers must
// verify it against the pattern (glued "**" shapes may not admit the
// naive filler).
func Exemplar(branch string) string {
	var sb strings.Builder
	for i := 0; i < len(branch); i++ {
		switch branch[i] {
		case '*':
			if i+1 < len(branch) && branch[i+1] == '*' {
				sb.WriteByte('x')
				i++
			}
		case '?':
			sb.WriteByte('x')
		case '[':
			end := strings.IndexByte(branch[i+1:], ']')
			if end < 0 {
				sb.WriteByte('[')
				continue
			}
			if c, ok := charFor(segAtom{kind: atomClass, class: branch[i+1 : i+1+end]},
				segAtom{kind: atomClass, class: branch[i+1 : i+1+end]}); ok {
				sb.WriteByte(c)
			}
			i += end + 1
		default:
			sb.WriteByte(branch[i])
		}
	}
	return sb.String()
}
