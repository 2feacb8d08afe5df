package sack_test

// matcher_system_test proves the PR 6 engine-equivalence and performance
// contracts at the system level, through the public API only:
//
//   - a booted system's decisions (trie-compiled matcher) equal the
//     glob-walk reference oracle (Coverage.CoversWalk + RuleSet.Decide)
//     for every query, across situation transitions and policy reloads;
//   - the AVC changes latency, never verdicts: a cached system and an
//     uncached system emit byte-identical allow/deny traces;
//   - an uncached covered check on the trie engine allocates nothing;
//   - the trie engine beats the glob-walk oracle by a wide margin on the
//     deep-bucket workload the matcher was built for (the `make
//     bench-smoke` regression guard).

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	sack "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sys"
)

const matcherDiffPolicy = `
states {
  normal = 0
  emergency = 1
}
initial normal
permissions {
  BASE
  EMERGENCY
}
state_per {
  normal:    BASE
  emergency: BASE, EMERGENCY
}
per_rules {
  BASE {
    allow read /etc/vehicle/**
    allow read,write /var/sack/area*/data?
    deny write /etc/vehicle/immutable.conf
    allow read,write /srv/{cfg,log}/**
    allow read /usr/lib/sack/*.so subject /usr/bin/*
    allow read /srv/cache**
  }
  EMERGENCY {
    allow read,write,ioctl /dev/vehicle/door*
    allow ioctl /dev/vehicle/window* subject /usr/bin/rescued
    deny ioctl /dev/vehicle/door13
  }
}
transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`

var matcherDiffPaths = []string{
	"/etc/vehicle/speed.conf", "/etc/vehicle/immutable.conf", "/etc/vehicle/",
	"/etc/vehicle", "/etc/other", "/var/sack/area0/data1", "/var/sack/area0/data10",
	"/srv/cfg/a/b", "/srv/log/x", "/srv/tmp/x", "/usr/lib/sack/ivi.so",
	"/usr/lib/sack/nested/x.so", "/dev/vehicle/door0", "/dev/vehicle/door13",
	"/dev/vehicle/window2", "/tmp/unrelated", "pipe:[42]", "/",
	"/srv/cache", "/srv/cachex/y", "/srv/cache/x",
}

var matcherDiffSubjects = []string{"", "/usr/bin/ivi", "/usr/bin/rescued", "/sbin/sds"}

var matcherDiffMasks = []sack.Access{
	sack.MayRead, sack.MayWrite, sack.MayIoctl,
	sack.MayRead | sack.MayWrite, sack.MayCreate,
}

// TestMatcherSystemDifferential holds a booted system to the glob-walk
// reference oracle — coverage by Coverage.CoversWalk, verdict and
// deciding rule by RuleSet.Decide on the live rule set — over every
// (subject, path, mask) combination, in every situation state, before
// and after a policy reload. The policy's glued-"**" rule puts the
// matcher's complex list on the path too.
func TestMatcherSystemDifferential(t *testing.T) {
	s, err := sack.New(matcherDiffPolicy, sack.WithoutVehicle())
	if err != nil {
		t.Fatal(err)
	}

	check := func(phase, subject, path string, mask sack.Access) {
		t.Helper()
		got, err := s.Check(subject, path, mask)
		if err != nil {
			t.Fatal(err)
		}
		want := sack.Decision{Allowed: true}
		if want.Covered = s.SACK.Policy().Coverage.CoversWalk(path); want.Covered {
			want.Allowed, want.Rule = s.SACK.ActiveRules().Decide(subject, path, mask)
		}
		if got.Allowed != want.Allowed || got.Covered != want.Covered || got.Rule != want.Rule {
			t.Fatalf("%s: divergence on subject=%q path=%q mask=%s:\n  trie: %+v\n  walk: allowed=%v covered=%v rule=%q",
				phase, subject, path, mask, got, want.Allowed, want.Covered, ruleText(want))
		}
	}
	compare := func(phase string) {
		t.Helper()
		for _, subject := range matcherDiffSubjects {
			for _, path := range matcherDiffPaths {
				for _, mask := range matcherDiffMasks {
					check(phase, subject, path, mask)
				}
			}
		}
	}

	compare("normal")
	if err := s.Events().DeliverEvent("crash_detected"); err != nil {
		t.Fatal(err)
	}
	compare("emergency")

	// Reload with a generated 300-rule policy: the published snapshot
	// swaps the matcher's input and the equivalence must survive.
	if _, err := s.Reload(bench.GenRulesPolicy(300)); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		path := fmt.Sprintf("/srv/sack/area%d/file%d.dat", r.Intn(20), r.Intn(400))
		check("post-reload", "", path, matcherDiffMasks[r.Intn(len(matcherDiffMasks))])
	}
}

func ruleText(d sack.Decision) string {
	if d.Rule == nil {
		return ""
	}
	return d.Rule.String()
}

// TestCachedEqualsUncachedTrace drives the same access trace through a
// cached and an uncached system and demands byte-identical allow/deny
// sequences — the AVC (like the matcher) may only change latency, never
// verdicts.
func TestCachedEqualsUncachedTrace(t *testing.T) {
	cached, err := bench.BootIndependentSACK(matcherDiffPolicy)
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := bench.BootIndependentSACKNoAVC(matcherDiffPolicy)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	masks := []sys.Access{sys.MayRead, sys.MayWrite, sys.MayIoctl}
	cred := sys.NewCred(1000, 1000)
	core.SetSubject(cred, "/usr/bin/ivi")
	for trial := 0; trial < 4000; trial++ {
		path := matcherDiffPaths[r.Intn(len(matcherDiffPaths))]
		mask := masks[r.Intn(len(masks))]
		errC := cached.SACK.InodePermission(cred, path, nil, mask)
		errU := uncached.SACK.InodePermission(cred, path, nil, mask)
		if (errC == nil) != (errU == nil) {
			t.Fatalf("trial %d: cached=%v uncached=%v on path=%q mask=%s",
				trial, errC, errU, path, mask)
		}
		// Transition both mid-trace so cached entries are invalidated and
		// the property holds across epochs, not just within one.
		if trial%500 == 499 {
			ev := []string{"crash_detected", "all_clear"}[(trial/500)%2]
			cached.SACK.Deliver(sack.Event(ev))
			uncached.SACK.Deliver(sack.Event(ev))
		}
	}
	if st := cached.SACK.AVCStats(); st.Hits == 0 {
		t.Fatalf("trace never hit the cache: %+v", st)
	}
}

// TestMatcherZeroAllocUncached: an uncached covered decision on the trie
// engine performs zero heap allocations — the property that makes the
// sub-microsecond uncached verdict sustainable under load.
func TestMatcherZeroAllocUncached(t *testing.T) {
	tb, err := bench.BootIndependentSACKNoAVC(bench.GenRulesPolicy(500))
	if err != nil {
		t.Fatal(err)
	}
	cred := sys.NewCred(1000, 1000)
	core.SetSubject(cred, "/usr/bin/bench-task")
	const covered = "/srv/sack/area0/file0.dat"
	if err := tb.SACK.InodePermission(cred, covered, nil, sys.MayRead); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := tb.SACK.InodePermission(cred, covered, nil, sys.MayRead); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("uncached covered check allocates %.1f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := tb.SACK.InodePermission(cred, "/tmp/unrelated.dat", nil, sys.MayRead); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("uncovered passthrough allocates %.1f objects/op, want 0", avg)
	}
}

// TestPolicyLoadAllocGuard is the bench-smoke fence on the compiled
// footprint: a policy compiles into one coverage trie and one rule
// table that every state's rule set and matcher view, so allocations
// per Load grow with the pattern count, not with states × patterns. A
// layout that copies the union into every state, or builds a trie per
// state again, breaks these budgets (4,963 and 12,054 allocations with
// a trie per state; 3,628 and 6,303 with rule copies per state and
// every rule compiled twice; 3,187 and 5,320 with neither).
func TestPolicyLoadAllocGuard(t *testing.T) {
	for _, c := range []struct {
		name   string
		src    string
		budget float64
	}{
		{"GenStatesPolicy(64)", bench.GenStatesPolicy(64), 3500},
		{"GenRulesPolicy(500)", bench.GenRulesPolicy(500), 5800},
	} {
		n := testing.AllocsPerRun(5, func() {
			if _, _, err := policy.Load(c.src); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per Load", c.name, n)
		if n > c.budget {
			t.Errorf("policy.Load(%s) makes %.0f allocations, budget %.0f", c.name, n, c.budget)
		}
	}
}

// TestUncachedLatencyGuard is the bench-smoke regression fence: on the
// 500-rule deep-bucket workload, an uncached trie verdict through the
// hook path must be at least 4x faster than the glob-walk oracle
// (CoversWalk + RuleSet.Decide on the same compiled policy) and stay
// under a generous absolute ceiling. (The measured gap is far larger —
// see EXPERIMENTS.md — the slack only absorbs CI noise.)
func TestUncachedLatencyGuard(t *testing.T) {
	const path = "/srv/sack/area0/file0.dat"
	tb, err := bench.BootIndependentSACKNoAVC(bench.GenRulesPolicy(500))
	if err != nil {
		t.Fatal(err)
	}
	cred := sys.NewCred(1000, 1000)
	core.SetSubject(cred, "/usr/bin/bench-task")
	coverage, rules := tb.SACK.Policy().Coverage, tb.SACK.ActiveRules()

	measure := func(verdict func() bool) time.Duration {
		if !verdict() {
			t.Fatal("covered path denied")
		}
		best := time.Duration(1 << 62)
		const rounds, iters = 5, 2000
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if !verdict() {
					t.Fatal("covered path denied")
				}
			}
			if d := time.Since(start) / iters; d < best {
				best = d
			}
		}
		return best
	}

	trie := measure(func() bool { return tb.SACK.InodePermission(cred, path, nil, sys.MayRead) == nil })
	walk := measure(func() bool {
		if !coverage.CoversWalk(path) {
			return false
		}
		allowed, _ := rules.Decide("/usr/bin/bench-task", path, sys.MayRead)
		return allowed
	})
	t.Logf("uncached verdict: trie=%v walk=%v (%.1fx)", trie, walk, float64(walk)/float64(trie))

	if trie > 10*time.Microsecond {
		t.Errorf("uncached trie verdict took %v, budget 10µs", trie)
	}
	if walk < 4*trie {
		t.Errorf("trie (%v) not ≥4x faster than walk (%v)", trie, walk)
	}
}
