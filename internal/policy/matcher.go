package policy

import (
	"math/bits"
	"strings"

	"repro/internal/glob"
	"repro/internal/sys"
)

// This file is the compiled-policy fast path: at Compile time the union
// of every rule pattern is lowered into one path-segment trie, so an
// *uncached* covered/uncovered verdict and the current state's decision
// come from one walk — a handful of map probes and array walks instead
// of a glob-engine pass over every rule. Each state's Matcher is a view
// over that shared trie. The trie is built once, is immutable afterwards,
// and travels inside the decision snapshot the enforcement core
// publishes — see DESIGN.md §10.
//
// Exactness contract: Matcher.Decide returns bit-identical results to
// RuleSet.Decide — the same allowed verdict and the same deciding-rule
// pointer — for every (subject, path, mask) triple. The trie walk only
// collects *which* patterns match the path; the verdict is then replayed
// over the state's rules carrying them in the precise order the walk
// engine evaluates them (first-segment bucket rules by declaration order,
// then wildcard rules), so deny-veto short-circuits and last-allow
// attribution cannot diverge. The differential fuzz suite
// (matcher_diff_test.go) holds the two engines against each other over
// random policies and access keys.

// inlineMatcherWords sizes the match bitset's inline segment: rule sets
// up to inlineMatcherWords*64 rules (the overwhelming case — every
// policy in the corpus fits many times over) track matches entirely on
// the caller's stack, so a decision allocates nothing. Larger sets
// spill the remaining words into one per-decision slice — a single
// allocation, still orders of magnitude cheaper than falling back to
// the glob walk the old hard 1024-rule cutoff forced.
const inlineMatcherWords = 16

// matchState is one walk's scratch state: whether any pattern matched,
// plus one bit per rule rank of the view being decided, segmented into
// the inline stack-resident words and an optional spill block for
// states beyond the inline capacity. The walk never retains a pointer
// to it.
type matchState struct {
	m       *Matcher // view whose ranks the walk sets; nil: coverage only
	covered bool
	inline  [inlineMatcherWords]uint64
	spill   []uint64 // words inlineMatcherWords.. for >1024-rule states
}

// accept records the patterns ending at a node the walk reached.
func (st *matchState) accept(ids []int32) {
	if len(ids) == 0 {
		return
	}
	st.covered = true
	if st.m == nil {
		return
	}
	for _, id := range ids {
		for _, r := range st.m.ranks[st.m.off[id]:st.m.off[id+1]] {
			if w := int(r >> 6); w < inlineMatcherWords {
				st.inline[w] |= 1 << uint(r&63)
			} else {
				st.spill[w-inlineMatcherWords] |= 1 << uint(r&63)
			}
		}
	}
}

func (st *matchState) word(w int) uint64 {
	if w < inlineMatcherWords {
		return st.inline[w]
	}
	return st.spill[w-inlineMatcherWords]
}

// mnode is one trie node; edges consume exactly one path segment.
type mnode struct {
	literals map[string]*mnode // literal segment -> child
	patterns []patternEdge     // in-segment glob edges (*, ?, [...])
	dstar    *mnode            // "**" edge: consumes >= 1 whole segments
	ids      []int32           // patterns ending at this node
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

// trie indexes a pattern list by path segment; a pattern's id is its
// index in the list.
type trie struct {
	root    *mnode
	size    int          // pattern ids: 0..size-1
	complex []complexPat // patterns the trie cannot index

	// anyRoot is set when a "**" root edge or an unindexable pattern
	// may match any first segment: the root step is then moot.
	anyRoot bool
}

// complexPat is a pattern with a branch the trie cannot index (not
// rooted at '/', or "**" glued mid-segment); it is matched with the full
// glob engine on every walk. Rare by construction.
type complexPat struct {
	g  *glob.Glob
	id int32
}

func newTrie(patterns []*glob.Glob) trie {
	t := trie{root: &mnode{}, size: len(patterns)}
	for id, g := range patterns {
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
			// Any unindexable branch demotes the whole pattern: the full
			// glob already evaluates every branch, so splitting it across
			// both engines would only run the backtracking matcher twice.
			t.complex = append(t.complex, complexPat{g: g, id: int32(id)})
			continue
		}
		for _, segs := range indexable {
			n := t.root
			for _, seg := range segs {
				n = n.child(seg)
			}
			// Several branches of one pattern may end at the same node;
			// ids are appended in ascending order, so a duplicate is
			// always the last element.
			if k := len(n.ids); k == 0 || n.ids[k-1] != int32(id) {
				n.ids = append(n.ids, int32(id))
			}
		}
	}
	t.anyRoot = t.root.dstar != nil || len(t.complex) > 0
	return t
}

// RootStep is the trie's root step over one path, taken once: where the
// path's first segment ends and the root's literal child for it. The
// enforcement fast path takes it before its AVC probe (Coverage.Root)
// and hands it to Matcher.EvaluateAt, whose walk resumes past it. The
// zero RootStep, or one taken over another trie, makes the walk take
// the step itself.
type RootStep struct {
	t   *trie  // trie the step was taken over; nil: not taken
	lit *mnode // root literal child for the first segment; nil: none
	end int    // index where the first segment ends
}

// match walks path through the trie and hands every matching pattern to
// st, resuming past r when r was taken over t.
func (t *trie) match(r RootStep, path string, st *matchState) {
	if r.t == t {
		// A taken step means a rooted path, no "**" root edge and no
		// complex pattern (anyRoot is false): the root's edges are all.
		st.edges(t.root, path, 1, r.end, r.lit)
		return
	}
	// Non-rooted paths skip the trie entirely: every indexed branch
	// starts with a literal '/', so only complex patterns can match them.
	if len(path) > 0 && path[0] == '/' {
		st.walk(t.root, path, 1)
	}
	for i := range t.complex {
		if t.complex[i].g.Match(path) {
			st.accept([]int32{t.complex[i].id})
		}
	}
}

// rootStep takes the walk's root step alone. may is false only when no
// pattern can match the path's first segment, so nothing matches. The
// step is left untaken when a "**" root edge or a complex pattern may
// match any path.
func (t *trie) rootStep(path string) (step RootStep, may bool) {
	if t.anyRoot {
		return RootStep{}, true
	}
	if len(path) == 0 || path[0] != '/' {
		return RootStep{}, false
	}
	end := len(path)
	if e := strings.IndexByte(path[1:], '/'); e >= 0 {
		end = 1 + e
	}
	seg := path[1:end]
	step = RootStep{t: t, lit: t.root.literals[seg], end: end}
	if step.lit != nil {
		return step, true
	}
	for k := range t.root.patterns {
		if glob.MatchSegment(t.root.patterns[k].pattern, seg) {
			return step, true
		}
	}
	return step, false
}

// walk accepts every pattern that matches path[i:] starting from node
// n, where i sits at the beginning of a path segment (just past a '/').
func (st *matchState) walk(n *mnode, path string, i int) {
	if d := n.dstar; d != nil {
		// "**" consumes one or more whole segments. Option one: it eats
		// everything left (>= 1 segment always remains here), ending the
		// pattern at d. Option two..n: it eats through each interior
		// boundary and the rest of the pattern resumes at d.
		st.accept(d.ids)
		j := i
		for {
			e := strings.IndexByte(path[j:], '/')
			if e < 0 {
				break
			}
			j += e + 1
			st.walk(d, path, j)
		}
	}
	end := len(path)
	if e := strings.IndexByte(path[i:], '/'); e >= 0 {
		end = i + e
	}
	st.edges(n, path, i, end, n.literals[path[i:end]])
}

// edges follows n's segment edges over path[i:end], where lit is n's
// literal child for that segment: the last segment ends patterns, any
// other continues the walk past its '/'.
func (st *matchState) edges(n *mnode, path string, i, end int, lit *mnode) {
	seg := path[i:end]
	if end == len(path) {
		if lit != nil {
			st.accept(lit.ids)
		}
		for k := range n.patterns {
			if glob.MatchSegment(n.patterns[k].pattern, seg) {
				st.accept(n.patterns[k].node.ids)
			}
		}
		return
	}
	if lit != nil {
		st.walk(lit, path, end+1)
	}
	for k := range n.patterns {
		if glob.MatchSegment(n.patterns[k].pattern, seg) {
			st.walk(n.patterns[k].node, path, end+1)
		}
	}
}

// Matcher is the compiled decision engine for one state's rule set: a
// view over a trie it may share with every other state of the policy.
// It is immutable after construction and safe for concurrent use.
type Matcher struct {
	trie *trie
	// byRank holds the rules in evaluation-replay order: every rule
	// whose pattern has a literal first segment (the walk engine's
	// bucket population) in declaration order, then the wildcard-bucket
	// rules in declaration order. Rules from different literal buckets
	// can never match the same path, so this single total order
	// reproduces the walk engine's bucket-then-wildcard visit order for
	// any path.
	byRank []*CompiledRule
	// ranks[off[id]:off[id+1]] are the ranks of the rules carrying
	// pattern id: none for a pattern of another state, two for a rule
	// the state lists twice (a permission granted twice).
	off   []int32
	ranks []int32
	words int // bitset words in use: ceil(len(byRank)/64)
}

// newMatcher builds a view over t for rules, where ids[i] is the trie
// pattern id of rules[i].Pattern and order lists the rule indices in
// rank order: NewRuleSet's split, literal-first-segment rules (in
// declaration order) before wildcard rules.
func newMatcher(t *trie, rules []*CompiledRule, ids []int32, order []int) *Matcher {
	m := &Matcher{trie: t, off: make([]int32, t.size+1), ranks: make([]int32, len(rules)),
		byRank: make([]*CompiledRule, 0, len(rules))}

	// Bucket the ranks by pattern id: count, prefix-sum into start
	// offsets, fill (each start advances to its end), shift back.
	for _, idx := range order {
		m.off[ids[idx]+1]++
	}
	for id := 1; id <= t.size; id++ {
		m.off[id] += m.off[id-1]
	}
	for rank, idx := range order {
		m.byRank = append(m.byRank, rules[idx])
		id := ids[idx]
		m.ranks[m.off[id]] = int32(rank)
		m.off[id]++
	}
	copy(m.off[1:], m.off[:t.size])
	m.off[0] = 0
	m.words = (len(m.byRank) + 63) / 64
	return m
}

// NoRule is the rank EvaluateAt reports when no rule decided: an
// uncovered path, or a covered one no allow rule grants the mask to.
const NoRule = -1

// Rule returns the rule of a rank EvaluateAt reported; nil for NoRule.
func (m *Matcher) Rule(rank int) *CompiledRule {
	if rank == NoRule {
		return nil
	}
	return m.byRank[rank]
}

// Decide evaluates an access request against the compiled trie. It is
// exact: the verdict and the deciding rule are identical to the walk
// engine's RuleSet.Decide (same *CompiledRule pointer).
func (m *Matcher) Decide(subject, path string, mask sys.Access) (allowed bool, matched *CompiledRule) {
	_, allowed, matched = m.Evaluate(subject, path, mask)
	return allowed, matched
}

// Evaluate is one walk over the trie answering both of the enforcement
// path's questions: covered reports whether any pattern of the trie —
// for a policy's state, any pattern of any state — matches path, and
// (allowed, matched) is Decide's result.
func (m *Matcher) Evaluate(subject, path string, mask sys.Access) (covered, allowed bool, matched *CompiledRule) {
	covered, allowed, rank := m.EvaluateAt(RootStep{}, subject, path, mask)
	return covered, allowed, m.Rule(rank)
}

// EvaluateAt is Evaluate resuming past a root step taken over this
// matcher's trie, and reporting the deciding rule by its rank (Rule
// maps it back; RuleSet.Detail memoises by it). The hot path performs
// no allocation and never invokes the multi-branch glob engine for
// trie-indexed patterns; only segment-confined matchers and — for the
// rare complex patterns — the original backtracking matcher run.
func (m *Matcher) EvaluateAt(root RootStep, subject, path string, mask sys.Access) (covered, allowed bool, rank int) {
	st := matchState{m: m}
	if m.words > inlineMatcherWords {
		st.spill = make([]uint64, m.words-inlineMatcherWords)
	}
	m.trie.match(root, path, &st)
	if !st.covered {
		// Nothing matched, so nothing is granted: only an empty request
		// is allowed, as the replay below would find.
		return false, mask == 0, NoRule
	}

	// Replay the verdict over the matched rules in rank order — the walk
	// engine's exact evaluation order.
	var granted sys.Access
	lastAllow := NoRule
	for w := 0; w < m.words; w++ {
		word := st.word(w)
		for word != 0 {
			k := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			r := m.byRank[k]
			if r.Subject != nil && !r.Subject.Match(subject) {
				continue
			}
			if r.Deny {
				if mask&r.Access != 0 {
					return true, false, k
				}
				continue
			}
			if r.Access&mask != 0 {
				granted |= r.Access
				lastAllow = k
			}
		}
	}
	if granted.Has(mask) {
		return true, true, lastAllow
	}
	return true, false, NoRule
}
