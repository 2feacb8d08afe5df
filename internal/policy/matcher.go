package policy

import (
	"math/bits"
	"strings"

	"repro/internal/glob"
	"repro/internal/sys"
)

// This file is the compiled-policy fast path: at Compile time every
// state's rule set is lowered into a path-segment trie so an *uncached*
// covered/uncovered verdict is a handful of map probes and array walks
// instead of a glob-engine pass over every rule. The trie is built once,
// is immutable afterwards, and travels inside the decision snapshot the
// enforcement core publishes — see DESIGN.md §10.
//
// Exactness contract: Matcher.Decide returns bit-identical results to
// RuleSet.Decide — the same allowed verdict and the same deciding-rule
// pointer — for every (subject, path, mask) triple. The trie walk only
// collects *which* rules match the path; the verdict is then replayed
// over the matched rules in the precise order the walk engine evaluates
// them (first-segment bucket rules by declaration order, then wildcard
// rules), so deny-veto short-circuits and last-allow attribution cannot
// diverge. The differential fuzz suite (matcher_diff_test.go) holds the
// two engines against each other over random policies and access keys.

// inlineMatcherWords sizes the match bitset's inline segment: rule sets
// up to inlineMatcherWords*64 rules (the overwhelming case — every
// policy in the corpus fits many times over) track matches entirely on
// the caller's stack, so a decision allocates nothing. Larger sets
// spill the remaining words into one per-decision slice — a single
// allocation, still orders of magnitude cheaper than falling back to
// the glob walk the old hard 1024-rule cutoff forced.
const inlineMatcherWords = 16

// matchBits is the per-decision scratch state: one bit per rule rank,
// segmented into the inline stack-resident words plus an optional
// spill block for states beyond the inline capacity. The walk never
// retains a pointer to it.
type matchBits struct {
	inline [inlineMatcherWords]uint64
	spill  []uint64 // words inlineMatcherWords.. for >1024-rule states
}

func (b *matchBits) set(rank int32) {
	if w := int(rank >> 6); w < inlineMatcherWords {
		b.inline[w] |= 1 << uint(rank&63)
	} else {
		b.spill[w-inlineMatcherWords] |= 1 << uint(rank&63)
	}
}

func (b *matchBits) setAll(ranks []int32) {
	for _, r := range ranks {
		b.set(r)
	}
}

func (b *matchBits) word(w int) uint64 {
	if w < inlineMatcherWords {
		return b.inline[w]
	}
	return b.spill[w-inlineMatcherWords]
}

// mnode is one trie node; edges consume exactly one path segment.
type mnode struct {
	literals map[string]*mnode // literal segment -> child
	patterns []patternEdge     // in-segment glob edges (*, ?, [...])
	dstar    *mnode            // "**" edge: consumes >= 1 whole segments
	ranks    []int32           // rules whose pattern ends at this node
}

type patternEdge struct {
	pattern string
	node    *mnode
}

func (n *mnode) child(seg glob.Seg) *mnode {
	switch seg.Kind {
	case glob.SegDoubleStar:
		if n.dstar == nil {
			n.dstar = &mnode{}
		}
		return n.dstar
	case glob.SegPattern:
		for i := range n.patterns {
			if n.patterns[i].pattern == seg.Text {
				return n.patterns[i].node
			}
		}
		c := &mnode{}
		n.patterns = append(n.patterns, patternEdge{pattern: seg.Text, node: c})
		return c
	default:
		if n.literals == nil {
			n.literals = make(map[string]*mnode)
		}
		c := n.literals[seg.Text]
		if c == nil {
			c = &mnode{}
			n.literals[seg.Text] = c
		}
		return c
	}
}

func (n *mnode) addRank(r int32) {
	// Multiple branches of one rule may terminate at the same node;
	// ranks are appended per rule in ascending order, so a duplicate is
	// always the last element.
	if k := len(n.ranks); k > 0 && n.ranks[k-1] == r {
		return
	}
	n.ranks = append(n.ranks, r)
}

// Matcher is the compiled decision engine for one state's rule set.
// It is immutable after construction and safe for concurrent use.
type Matcher struct {
	root *mnode
	// byRank holds the rules in evaluation-replay order: every rule
	// whose pattern has a literal first segment (the walk engine's
	// bucket population) in declaration order, then the wildcard-bucket
	// rules in declaration order. Rules from different literal buckets
	// can never match the same path, so this single total order
	// reproduces the walk engine's bucket-then-wildcard visit order for
	// any path.
	byRank []*CompiledRule
	// complex rules carry a pattern branch the trie cannot index (not
	// rooted at '/', or "**" glued mid-segment); they are matched with
	// the full glob engine on every decision. Rare by construction.
	complex      []*CompiledRule
	complexRanks []int32
	words        int // bitset words in use: ceil(len(byRank)/64)
}

// newMatcher compiles a rule set into a Matcher.
func newMatcher(rs *RuleSet) *Matcher {
	m := &Matcher{root: &mnode{}}

	// Rank assignment replicates NewRuleSet's split: literal-first-
	// segment rules (in declaration order) rank before wildcard rules.
	var order []int
	for i := range rs.rules {
		if _, literal := firstSegment(rs.rules[i].Pattern.String()); literal {
			order = append(order, i)
		}
	}
	for i := range rs.rules {
		if _, literal := firstSegment(rs.rules[i].Pattern.String()); !literal {
			order = append(order, i)
		}
	}

	for rank, idx := range order {
		r := &rs.rules[idx]
		m.byRank = append(m.byRank, r)
		branches := r.Pattern.Branches()
		indexable := make([][]glob.Seg, 0, len(branches))
		allOK := true
		for _, br := range branches {
			segs, ok := glob.SplitSegments(br)
			if !ok {
				allOK = false
				break
			}
			indexable = append(indexable, segs)
		}
		if !allOK {
			// Any unindexable branch demotes the whole rule to the
			// complex list: the full glob already evaluates every branch,
			// so splitting the rule across both engines would only run
			// the backtracking matcher twice.
			m.complex = append(m.complex, r)
			m.complexRanks = append(m.complexRanks, int32(rank))
			continue
		}
		for _, segs := range indexable {
			n := m.root
			for _, seg := range segs {
				n = n.child(seg)
			}
			n.addRank(int32(rank))
		}
	}
	m.words = (len(m.byRank) + 63) / 64
	return m
}

// Len reports the number of rules the matcher indexes.
func (m *Matcher) Len() int { return len(m.byRank) }

// ComplexRules reports how many rules fell back to full glob matching
// (introspection for tests and the compile report).
func (m *Matcher) ComplexRules() int { return len(m.complex) }

// Decide evaluates an access request against the compiled trie. It is
// exact: the verdict and the deciding rule are identical to the walk
// engine's RuleSet.Decide (same *CompiledRule pointer). The hot path
// performs no allocation and never invokes the multi-branch glob engine
// for trie-indexed rules; only segment-confined matchers and — for the
// rare complex rules — the original backtracking matcher run.
func (m *Matcher) Decide(subject, path string, mask sys.Access) (allowed bool, matched *CompiledRule) {
	var st matchBits
	if m.words > inlineMatcherWords {
		st.spill = make([]uint64, m.words-inlineMatcherWords)
	}
	if len(path) > 0 && path[0] == '/' {
		m.walk(m.root, path, 1, &st)
	}
	// Non-rooted paths skip the trie entirely: every indexed branch
	// starts with a literal '/', so only complex rules can match them.
	for i, r := range m.complex {
		if r.Pattern.Match(path) {
			st.set(m.complexRanks[i])
		}
	}

	// Replay the verdict over the matched rules in rank order — the walk
	// engine's exact evaluation order.
	var granted sys.Access
	var lastAllow *CompiledRule
	for w := 0; w < m.words; w++ {
		word := st.word(w)
		for word != 0 {
			rank := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			r := m.byRank[rank]
			if r.Subject != nil && !r.Subject.Match(subject) {
				continue
			}
			if r.Deny {
				if mask&r.Access != 0 {
					return false, r
				}
				continue
			}
			if r.Access&mask != 0 {
				granted |= r.Access
				lastAllow = r
			}
		}
	}
	if granted.Has(mask) {
		return true, lastAllow
	}
	return false, nil
}

// walk collects the ranks of every trie-indexed rule whose pattern
// matches path[i:] starting from node n, where i sits at the beginning
// of a path segment (just past a '/').
func (m *Matcher) walk(n *mnode, path string, i int, st *matchBits) {
	if d := n.dstar; d != nil {
		// "**" consumes one or more whole segments. Option one: it eats
		// everything left (>= 1 segment always remains here), ending the
		// pattern at d. Option two..n: it eats through each interior
		// boundary and the rest of the pattern resumes at d.
		st.setAll(d.ranks)
		j := i
		for {
			e := strings.IndexByte(path[j:], '/')
			if e < 0 {
				break
			}
			j += e + 1
			m.walk(d, path, j, st)
		}
	}
	e := strings.IndexByte(path[i:], '/')
	if e < 0 {
		seg := path[i:]
		if c := n.literals[seg]; c != nil {
			st.setAll(c.ranks)
		}
		for k := range n.patterns {
			if glob.MatchSegment(n.patterns[k].pattern, seg) {
				st.setAll(n.patterns[k].node.ranks)
			}
		}
		return
	}
	seg := path[i : i+e]
	next := i + e + 1
	if c := n.literals[seg]; c != nil {
		m.walk(c, path, next, st)
	}
	for k := range n.patterns {
		if glob.MatchSegment(n.patterns[k].pattern, seg) {
			m.walk(n.patterns[k].node, path, next, st)
		}
	}
}

// --- coverage trie ---

// coverNode is the coverage trie's node: the same segment-edge shape as
// mnode but with a boolean terminal and early-exit matching, since the
// only question is "does any pattern cover this path".
type coverNode struct {
	literals map[string]*coverNode
	patterns []coverEdge
	dstar    *coverNode
	terminal bool
}

type coverEdge struct {
	pattern string
	node    *coverNode
}

func (n *coverNode) child(seg glob.Seg) *coverNode {
	switch seg.Kind {
	case glob.SegDoubleStar:
		if n.dstar == nil {
			n.dstar = &coverNode{}
		}
		return n.dstar
	case glob.SegPattern:
		for i := range n.patterns {
			if n.patterns[i].pattern == seg.Text {
				return n.patterns[i].node
			}
		}
		c := &coverNode{}
		n.patterns = append(n.patterns, coverEdge{pattern: seg.Text, node: c})
		return c
	default:
		if n.literals == nil {
			n.literals = make(map[string]*coverNode)
		}
		c := n.literals[seg.Text]
		if c == nil {
			c = &coverNode{}
			n.literals[seg.Text] = c
		}
		return c
	}
}

// coverTrie indexes the union of every rule pattern for the O(segments)
// covered/uncovered verdict — the first gate of every hook decision.
type coverTrie struct {
	root    *coverNode
	complex []*glob.Glob // patterns the trie cannot index
}

func newCoverTrie(patterns []*glob.Glob) *coverTrie {
	t := &coverTrie{root: &coverNode{}}
	for _, g := range patterns {
		branches := g.Branches()
		indexable := make([][]glob.Seg, 0, len(branches))
		allOK := true
		for _, br := range branches {
			segs, ok := glob.SplitSegments(br)
			if !ok {
				allOK = false
				break
			}
			indexable = append(indexable, segs)
		}
		if !allOK {
			t.complex = append(t.complex, g)
			continue
		}
		for _, segs := range indexable {
			n := t.root
			for _, seg := range segs {
				n = n.child(seg)
			}
			n.terminal = true
		}
	}
	return t
}

func (t *coverTrie) covers(path string) bool {
	if len(path) > 0 && path[0] == '/' && coverWalk(t.root, path, 1) {
		return true
	}
	for _, g := range t.complex {
		if g.Match(path) {
			return true
		}
	}
	return false
}

func coverWalk(n *coverNode, path string, i int) bool {
	if d := n.dstar; d != nil {
		if d.terminal {
			return true // "**" eats the >= 1 remaining segments
		}
		j := i
		for {
			e := strings.IndexByte(path[j:], '/')
			if e < 0 {
				break
			}
			j += e + 1
			if coverWalk(d, path, j) {
				return true
			}
		}
	}
	e := strings.IndexByte(path[i:], '/')
	if e < 0 {
		seg := path[i:]
		if c := n.literals[seg]; c != nil && c.terminal {
			return true
		}
		for k := range n.patterns {
			if n.patterns[k].node.terminal && glob.MatchSegment(n.patterns[k].pattern, seg) {
				return true
			}
		}
		return false
	}
	seg := path[i : i+e]
	next := i + e + 1
	if c := n.literals[seg]; c != nil && coverWalk(c, path, next) {
		return true
	}
	for k := range n.patterns {
		if glob.MatchSegment(n.patterns[k].pattern, seg) && coverWalk(n.patterns[k].node, path, next) {
			return true
		}
	}
	return false
}
