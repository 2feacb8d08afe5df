package glob

import (
	"slices"
	"strings"
)

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

// Split is a pattern prepared for intersection: each brace branch with
// its path segments, split once. A caller that intersects one pattern
// against many (the conflict pass, the verifier) splits it once and
// hands the result to every IntersectK call.
type Split struct {
	branches []splitBranch
}

type splitBranch struct {
	src  string
	segs []Seg
	ok   bool // false: not segmentable, probed by exemplars instead
}

// Split splits every branch of the pattern into segments.
func (g *Glob) Split() Split {
	sp := Split{branches: make([]splitBranch, len(g.branches))}
	for i, br := range g.branches {
		segs, ok := SplitSegments(br)
		sp.branches[i] = splitBranch{src: br, segs: segs, ok: ok}
	}
	return sp
}

// Intersect reports whether any path matches both patterns. On
// IntersectFound the returned witness is one such path, verified
// against both patterns before being returned.
func Intersect(a, b *Glob) (witness string, res IntersectResult) {
	ws, res := IntersectK(a.Split(), b.Split(), 1)
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
func IntersectK(a, b Split, k int) ([]string, IntersectResult) {
	if k < 1 {
		k = 1
	}
	unknown := false
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
					if matchGlob(pa.src, w) && matchGlob(pb.src, w) {
						if !slices.Contains(out, w) {
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
func branchIntersect(pa, pb splitBranch, salt int) (string, IntersectResult) {
	if !pa.ok || !pb.ok {
		// Unsegmentable shape: probe each pattern's exemplar against the
		// other. Finding a match is a proof; not finding one is not.
		if wa := Exemplar(pa.src); matchGlob(pa.src, wa) && matchGlob(pb.src, wa) {
			return wa, IntersectFound
		}
		if wb := Exemplar(pb.src); matchGlob(pb.src, wb) && matchGlob(pa.src, wb) {
			return wb, IntersectFound
		}
		return "", IntersectUnknown
	}
	w, ok := intersectSegLists(pa.segs, pb.segs, salt)
	if !ok {
		return "", IntersectNone
	}
	return w, IntersectFound
}

// intersectSegLists builds a witness path matched by both segment
// lists, handling "**" edges (consume one or more whole segments, empty
// segments included).
func intersectSegLists(a, b []Seg, salt int) (string, bool) {
	x := segSearch{a: a, b: b, salt: salt, dead: make([]bool, (len(a)+1)*(len(b)+1))}
	// The empty first segment joins into the leading '/'.
	x.path = append(make([]string, 0, len(a)+len(b)+1), "")
	if !x.rec(0, 0) {
		return "", false
	}
	return strings.Join(x.path, "/"), true
}

// segSearch is the depth-first witness construction over two segment
// lists. The witness grows on path as the search descends and shrinks
// as it backs out; failure memoisation on the (i, j) position keeps the
// branch-heavy "**" cases polynomial.
type segSearch struct {
	a, b []Seg
	salt int
	dead []bool // dead[i*(len(b)+1)+j]: no witness from a[i:], b[j:]
	path []string
}

// rec extends path with a witness for a[i:] and b[j:], reporting
// whether one exists; on failure path is as it was.
func (x *segSearch) rec(i, j int) bool {
	k := i*(len(x.b)+1) + j
	if x.dead[k] {
		return false
	}
	if x.step(i, j) {
		return true
	}
	x.dead[k] = true
	return false
}

func (x *segSearch) step(i, j int) bool {
	switch {
	case i == len(x.a) && j == len(x.b):
		return true
	case i == len(x.a) || j == len(x.b):
		// Every remaining edge consumes at least one segment.
		return false
	}
	sa, sb := x.a[i], x.b[j]
	aStar, bStar := sa.Kind == SegDoubleStar, sb.Kind == SegDoubleStar
	var w string
	ok := true
	switch {
	case aStar && bStar:
		w = starFiller(x.salt)
	case aStar:
		// a's "**" eats one segment shaped by b's head.
		w, ok = segExemplarSalted(sb, x.salt)
	case bStar:
		w, ok = segExemplarSalted(sa, x.salt)
	default:
		w, ok = intersectOneSeg(sa, sb, x.salt)
	}
	if !ok {
		return false
	}
	// Past the segment both lists move on, or a "**" stays to eat more.
	x.path = append(x.path, w)
	if x.rec(i+1, j+1) || bStar && x.rec(i+1, j) || aStar && x.rec(i, j+1) {
		return true
	}
	x.path = x.path[:len(x.path)-1]
	return false
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
// building a witness segment.
func intersectSegPatterns(pa, pb string, salt int) (string, bool) {
	x := atomSearch{a: parseSegAtoms(pa), b: parseSegAtoms(pb), salt: salt}
	x.dead = make([]bool, (len(x.a)+1)*(len(x.b)+1))
	if !x.rec(0, 0) {
		return "", false
	}
	return string(x.w), true
}

// atomSearch is the depth-first witness construction over two atom
// lists, the in-segment twin of segSearch: the witness grows on w, and
// memoising failures on the atom-index pair keeps the star branching
// quadratic.
type atomSearch struct {
	a, b []segAtom
	salt int
	dead []bool // dead[i*(len(b)+1)+j]: no witness from a[i:], b[j:]
	w    []byte
}

// rec extends w with a witness for a[i:] and b[j:], reporting whether
// one exists; on failure w is as it was.
func (x *atomSearch) rec(i, j int) bool {
	k := i*(len(x.b)+1) + j
	if x.dead[k] {
		return false
	}
	if x.step(i, j) {
		return true
	}
	x.dead[k] = true
	return false
}

func (x *atomSearch) step(i, j int) bool {
	switch {
	case i == len(x.a) && j == len(x.b):
		return true
	case i == len(x.a):
		// Remaining b atoms must all be stars (match empty).
		return allStars(x.b[j:])
	case j == len(x.b):
		return allStars(x.a[i:])
	}
	aa, ab := x.a[i], x.b[j]
	switch {
	case aa.kind == atomStar && ab.kind == atomStar:
		return x.rec(i+1, j) || x.rec(i, j+1)
	case aa.kind == atomStar:
		// Star matches empty, or swallows one character shaped by b's
		// next atom.
		if x.rec(i+1, j) {
			return true
		}
		c, ok := charForSalted(ab, ab, x.salt)
		return ok && x.push(c, i, j+1)
	case ab.kind == atomStar:
		if x.rec(i, j+1) {
			return true
		}
		c, ok := charForSalted(aa, aa, x.salt)
		return ok && x.push(c, i+1, j)
	default:
		c, ok := charForSalted(aa, ab, x.salt)
		return ok && x.push(c, i+1, j+1)
	}
}

// push appends c to the witness and continues from (i, j), taking c
// back if no witness follows.
func (x *atomSearch) push(c byte, i, j int) bool {
	x.w = append(x.w, c)
	if x.rec(i, j) {
		return true
	}
	x.w = x.w[:len(x.w)-1]
	return false
}

func allStars(atoms []segAtom) bool {
	for _, at := range atoms {
		if at.kind != atomStar {
			return false
		}
	}
	return true
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
