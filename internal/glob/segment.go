package glob

import "strings"

// Segment classification for trie compilation. The policy compiler's
// path-segment matcher (internal/policy) indexes rule patterns by path
// segment at compile time; this file is the glob-side contract it builds
// on: brace expansion happens at Compile, and each expanded branch is
// split here into per-segment matchers that never cross a '/'.

// SegKind classifies one pattern segment.
type SegKind uint8

// Segment kinds.
const (
	// SegLiteral is a metacharacter-free segment, matched by string
	// equality (a trie map edge).
	SegLiteral SegKind = iota
	// SegPattern is a segment with in-segment metacharacters (*, ?,
	// [...]) but no "**"; matched with MatchSegment.
	SegPattern
	// SegDoubleStar is exactly "**": it consumes one or more whole path
	// segments (the segments it consumes may be empty — "/a/**" matches
	// "/a/" but not "/a", exactly as the backtracking matcher decides).
	SegDoubleStar
)

// Seg is one classified pattern segment.
type Seg struct {
	Text string
	Kind SegKind
}

// Branches returns the brace-expanded alternatives of the pattern. Each
// branch is a plain glob over *, ?, [...], and "**" with no alternation
// left. The returned slice is a copy.
func (g *Glob) Branches() []string {
	out := make([]string, len(g.branches))
	copy(out, g.branches)
	return out
}

// SplitSegments splits one brace-free branch into classified path
// segments for trie compilation. ok is false when the branch cannot be
// segment-indexed and must fall back to full backtracking matching:
// it does not start with '/' (a rooted trie cannot anchor it), or it
// contains "**" glued to other characters inside one segment (e.g.
// "a**" crosses segment boundaries mid-segment).
func SplitSegments(branch string) (segs []Seg, ok bool) {
	if len(branch) == 0 || branch[0] != '/' {
		return nil, false
	}
	// "/a/b" -> ["a" "b"], "/a/" -> ["a" ""], "/" -> [""]: a trailing '/'
	// carries one final empty segment, mirroring how paths split.
	rest := branch[1:]
	segs = make([]Seg, 0, strings.Count(rest, "/")+1)
	for more := true; more; {
		var piece string
		piece, rest, more = strings.Cut(rest, "/")
		switch {
		case piece == "**":
			segs = append(segs, Seg{Text: piece, Kind: SegDoubleStar})
		case strings.Contains(piece, "**"):
			return nil, false
		case strings.ContainsAny(piece, "*?["):
			segs = append(segs, Seg{Text: piece, Kind: SegPattern})
		default:
			segs = append(segs, Seg{Text: piece, Kind: SegLiteral})
		}
	}
	return segs, true
}

// MatchSegment reports whether a brace-free, "**"-free pattern segment
// matches one path segment. It is the single-segment core of the glob
// engine — *, ?, and [...] confined between two slashes — and performs
// no allocation.
func MatchSegment(pattern, seg string) bool {
	return matchGlob(pattern, seg)
}
