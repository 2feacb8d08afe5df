package policy

// Reachability classification shared by the validator and the symbolic
// verifier (internal/verify). Both must agree on which states normal
// operation can ever occupy — the validator warns about the dead ones,
// the verifier scopes `always`/`reachable` invariants to the live ones —
// so the classification lives here, once, and the verifier's set is the
// validator's ground truth by construction.

// EntryKind classifies the strongest mechanism able to enter a state.
type EntryKind int

// Entry kinds, ordered from normal operation to most exceptional.
const (
	// EntryNormal: reachable from the initial state via declared event
	// transitions alone.
	EntryNormal EntryKind = iota
	// EntryFailsafe: only enterable after the pipeline watchdog degrades
	// the machine to the failsafe state (directly, or via transitions
	// leaving it).
	EntryFailsafe
	// EntryBreakGlass: no event path reaches it even through failsafe
	// degradation; only a CAP_MAC_ADMIN break-glass force can enter it.
	EntryBreakGlass
)

func (k EntryKind) String() string {
	switch k {
	case EntryNormal:
		return "normal"
	case EntryFailsafe:
		return "failsafe-only"
	default:
		return "break-glass-only"
	}
}

// classifyReachability runs the shared BFS: states reachable from the
// initial state are EntryNormal; states additionally reachable once the
// failsafe root is granted are EntryFailsafe; everything else declared
// is EntryBreakGlass (break-glass and SACKfs state writes accept any
// declared state).
func classifyReachability(states []string, initial, failsafe string, adjacency map[string][]string) map[string]EntryKind {
	bfs := func(roots ...string) map[string]bool {
		seen := make(map[string]bool)
		var queue []string
		for _, root := range roots {
			if root != "" && !seen[root] {
				seen[root] = true
				queue = append(queue, root)
			}
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range adjacency[cur] {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		return seen
	}

	normal := bfs(initial)
	withFailsafe := normal
	if failsafe != "" {
		withFailsafe = bfs(initial, failsafe)
	}

	out := make(map[string]EntryKind, len(states))
	for _, s := range states {
		switch {
		case normal[s]:
			out[s] = EntryNormal
		case withFailsafe[s]:
			out[s] = EntryFailsafe
		default:
			out[s] = EntryBreakGlass
		}
	}
	return out
}

// Reachability classifies every declared state of the compiled policy.
// The verifier uses this as its reachability ground truth; Validate
// derives its dead-state warnings from the same classification.
func (c *Compiled) Reachability() map[string]EntryKind {
	adjacency := make(map[string][]string)
	for _, t := range c.Transitions {
		adjacency[t.From] = append(adjacency[t.From], t.To)
	}
	return classifyReachability(c.StateNames(), c.Initial, c.Failsafe, adjacency)
}
