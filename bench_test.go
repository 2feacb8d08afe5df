package sack_test

// bench_test.go regenerates the paper's evaluation (§IV) as Go
// benchmarks, one family per table/figure. The LMBench rows are
// internal/lmbench's operation lists; each family runs them op-major,
// so the configurations compared on one row run next to each other:
//
//	BenchmarkTable2/<op>/<config>    Table II  — 17 ops × {AppArmor,
//	                                             SACK-enhanced, independent SACK}
//	BenchmarkTable3/<op>/rules-N     Table III — 14 ops × N SACK rules on AppArmor
//	BenchmarkFig3a/<op>/<config>     Fig. 3(a) — 5 file ops × {capability-only,
//	                                             N situation states}
//	BenchmarkFig3b/<period>          Fig. 3(b) — file workload under transition storms
//	BenchmarkEventLatency            §IV-B     — SACKfs event delivery latency, p99
//	BenchmarkNoLSM/<op>/<config>     §IV-B     — 4 KiB read/write, no LSM framework
//	                                             vs independent SACK (the board row)
//
// Run: go test -run '^$' -bench 'BenchmarkTable2' -benchmem .
// `make bench-smoke` runs every paper row once.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	sack "repro"
	"repro/internal/bench"
	"repro/internal/lmbench"
	"repro/internal/policy"
	"repro/internal/sys"
	"repro/internal/vfs"
	"repro/policies"
)

// bootSuites boots every configuration once and prepares its lmbench
// fixtures.
func bootSuites(b *testing.B, cols []bench.Config) []*lmbench.Suite {
	b.Helper()
	suites := make([]*lmbench.Suite, len(cols))
	for i, c := range cols {
		tb, err := c.Boot()
		if err != nil {
			b.Fatalf("boot %s: %v", c.Name, err)
		}
		if suites[i], err = lmbench.NewSuite(tb.Kernel); err != nil {
			b.Fatalf("suite %s: %v", c.Name, err)
		}
	}
	return suites
}

// runCells runs op on every configuration as sibling sub-benchmarks.
func runCells(b *testing.B, op lmbench.Op, cols []bench.Config, suites []*lmbench.Suite) {
	for i, c := range cols {
		b.Run(c.Name, func(b *testing.B) {
			b.SetBytes(op.Bytes)
			if err := op.Run(suites[i], b.N, b); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// runOps boots every configuration once and runs ops op-major:
// <op>/<config>.
func runOps(b *testing.B, ops []lmbench.Op, cols []bench.Config) {
	suites := bootSuites(b, cols)
	for _, op := range ops {
		b.Run(op.Name, func(b *testing.B) { runCells(b, op, cols, suites) })
	}
}

// BenchmarkTable2 runs Table II: every LMBench row on the AppArmor
// baseline, SACK-enhanced AppArmor and independent SACK.
func BenchmarkTable2(b *testing.B) {
	runOps(b, lmbench.Table2, bench.Table2)
}

// BenchmarkTable3 runs Table III: every row with growing numbers of
// SACK rules stacked on AppArmor. Flat results reproduce the paper's
// finding.
func BenchmarkTable3(b *testing.B) {
	runOps(b, lmbench.Table3, bench.Table3)
}

// BenchmarkTable3Independent is the harder variant: the rules live in
// independent SACK, so every open consults the coverage index.
func BenchmarkTable3Independent(b *testing.B) {
	cols := bench.Table3Independent
	runCells(b, lmbench.Op{Run: (*lmbench.Suite).OpenClose}, cols, bootSuites(b, cols))
}

// BenchmarkFig3a runs Fig. 3(a)'s file ops under independent SACK with
// growing numbers of situation states, against the capability-only
// kernel as baseline.
func BenchmarkFig3a(b *testing.B) {
	runOps(b, lmbench.Fig3a, bench.Fig3a)
}

// BenchmarkNoLSM is §IV-B's board comparison: 4 KiB read/write on a
// kernel with no LSM framework at all against independent SACK.
func BenchmarkNoLSM(b *testing.B) {
	runOps(b, lmbench.NoLSM, bench.NoLSM)
}

// BenchmarkFig3b runs Fig. 3(b)'s workload while a background driver
// alternates speed_high/speed_low every period. The policy gates a
// critical file on the low-speed state; an iteration is three
// open/pread/close cycles of an ordinary work file, so the delta
// against no-transitions is transition interference, plus a probe of
// the gated file every 64th iteration, where EACCES (high speed) is the
// expected outcome. Each cell reports the transitions delivered inside
// its timed loop: a long period under a short -benchtime sees none.
func BenchmarkFig3b(b *testing.B) {
	const critical = "/etc/vehicle/critical.conf"
	for _, period := range []time.Duration{0, time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
		name := "no-transitions"
		if period > 0 {
			name = fmt.Sprintf("period-%s", period)
		}
		b.Run(name, func(b *testing.B) {
			tb, err := bench.BootIndependentSACK(bench.SpeedGatePolicy)
			if err != nil {
				b.Fatal(err)
			}
			k := tb.Kernel
			if err := k.WriteFile(critical, 0o644, []byte("params")); err != nil {
				b.Fatal(err)
			}
			if err := k.WriteFile("/tmp/work.dat", 0o644, make([]byte, 4096)); err != nil {
				b.Fatal(err)
			}
			task := k.Init()
			buf := make([]byte, 4096)
			readFile := func(path string) error {
				fd, err := task.Open(path, vfs.ORdonly, 0)
				if err != nil {
					return err
				}
				_, err = task.Pread(fd, buf, 0)
				task.Close(fd)
				return err
			}

			if period > 0 {
				stop, done := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(done)
					evs := []policy.Event{"speed_high", "speed_low"}
					ticker := time.NewTicker(period)
					defer ticker.Stop()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						case <-ticker.C:
							// Both events are declared and nothing pins the
							// pipeline here, so Deliver cannot fail.
							_ = tb.SACK.Deliver(evs[i%2])
						}
					}
				}()
				b.Cleanup(func() { close(stop); <-done })
			}

			_, _, _, before := tb.SACK.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 3; j++ {
					if err := readFile("/tmp/work.dat"); err != nil {
						b.Fatal(err)
					}
				}
				if i%64 == 0 {
					if err := readFile(critical); err != nil && !sys.IsErrno(err, sys.EACCES) {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			_, _, _, after := tb.SACK.Stats()
			b.ReportMetric(float64(after-before), "transitions")
		})
	}
}

// BenchmarkEventLatency measures one SACKfs event write causing an SSM
// transition over a 4-state ring — the paper's ~5.4 µs securityfs path
// — and fails unless every write moves the SSM to the next state. It
// reports the p99 write latency beside the mean ns/op.
func BenchmarkEventLatency(b *testing.B) {
	tb, err := bench.BootIndependentSACK(bench.GenStatesPolicy(4))
	if err != nil {
		b.Fatal(err)
	}
	task := tb.Kernel.Init()
	fd, err := task.Open("/sys/kernel/security/SACK/events", vfs.OWronly, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer task.Close(fd)
	events := [][]byte{
		[]byte("advance0\n"), []byte("advance1\n"),
		[]byte("advance2\n"), []byte("advance3\n"),
	}
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		cur := tb.SACK.CurrentState().Encoding
		start := time.Now()
		if _, err := task.Write(fd, events[cur]); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(start)
		if got, want := tb.SACK.CurrentState().Encoding, (cur+1)%4; got != want {
			b.Fatalf("event %d: state %d -> %d, want %d", i, cur, got, want)
		}
	}
	b.StopTimer()
	slices.Sort(lat)
	b.ReportMetric(float64(lat[(len(lat)*99+99)/100-1].Nanoseconds()), "p99-ns")
}

// BenchmarkSSMTransitionDirect isolates the in-kernel SSM + APE cost
// without the SACKfs write path.
func BenchmarkSSMTransitionDirect(b *testing.B) {
	tb, err := bench.BootIndependentSACK(bench.GenStatesPolicy(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := tb.SACK.CurrentState().Encoding
		tb.SACK.Deliver(policy.Event(fmt.Sprintf("advance%d", cur)))
	}
}

// BenchmarkAblationCheckVsPassthrough contrasts a SACK-mediated path
// (covered object) with an uncovered path (coverage-index miss) — the
// design decision that keeps uncovered workloads near-zero-cost.
func BenchmarkAblationCheckVsPassthrough(b *testing.B) {
	tb, err := bench.BootIndependentSACK(bench.DefaultSACKPolicy)
	if err != nil {
		b.Fatal(err)
	}
	k := tb.Kernel
	if _, err := k.RegisterDevice("/dev/vehicle/door0", 0o666, benchNullDevice{}); err != nil {
		b.Fatal(err)
	}
	if err := k.WriteFile("/tmp/plain.dat", 0o644, []byte("x")); err != nil {
		b.Fatal(err)
	}
	task := k.Init()
	b.Run("covered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fd, err := task.Open("/dev/vehicle/door0", vfs.ORdonly, 0)
			if err != nil {
				b.Fatal(err)
			}
			task.Close(fd)
		}
	})
	b.Run("uncovered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fd, err := task.Open("/tmp/plain.dat", vfs.ORdonly, 0)
			if err != nil {
				b.Fatal(err)
			}
			task.Close(fd)
		}
	})
}

// BenchmarkAblationIndexVsLinear quantifies the first-segment rule index
// against a naive linear scan at 10/100/1000 rules — the design decision
// behind Table III's flatness. The probed path misses every rule bucket,
// the common case for system workloads under a vehicle-device policy.
func BenchmarkAblationIndexVsLinear(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		n := n
		compiled, _, err := policy.Load(bench.GenRulesPolicy(n))
		if err != nil {
			b.Fatal(err)
		}
		rs := compiled.StateSets["normal"]
		b.Run(fmt.Sprintf("indexed-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs.Decide("", "/tmp/lmbench.dat", sys.MayRead)
			}
		})
		b.Run(fmt.Sprintf("linear-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs.DecideLinear("", "/tmp/lmbench.dat", sys.MayRead)
			}
		})
	}
}

// BenchmarkPolicyLoad times policy.Load — parse, validate with its
// allow/deny conflict pass, compile the shared trie and every state's
// rule-set view — on the pack's Fig. 2 policy, 500 rules over two
// states and 64 states over a few rules each. The conflict pass and the
// state views grow with the rule count, not with rule pairs × states.
func BenchmarkPolicyLoad(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"fig2-four-states", policies.MustLoad("fig2-four-states")},
		{"rules-500", bench.GenRulesPolicy(500)},
		{"states-64", bench.GenStatesPolicy(64)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := policy.Load(c.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReload times one policy replacement on a booted system.
// unchanged-source reloads the installed text through System.Reload,
// which reuses the installed artifact. The other cells hand
// ReloadCompiled two precompiled artifacts in turn, starting with the
// revision, so every commit replaces a different artifact and the cell
// times the diff and the commit alone: same-source-recompiled alternates
// two compiles of one text, one-rule and all-rules-renamed alternate the
// 500-rule Table III policy with a revision that changes one rule or
// renames them all, and states-64 alternates the 64-state policy with a
// revision that widens one state's rule.
func BenchmarkReload(b *testing.B) {
	rules, states := bench.GenRulesPolicy(500), bench.GenStatesPolicy(64)
	boot := func(b *testing.B, src string) *sack.System {
		sys, err := sack.New(src, sack.WithoutVehicle())
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	b.Run("unchanged-source", func(b *testing.B) {
		sys := boot(b, rules)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Reload(rules); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct{ name, a, b string }{
		{"same-source-recompiled", rules, rules},
		{"one-rule", rules, strings.Replace(rules, "/srv/sack/area7/file7*", "/srv/sack/area7/file7-rev*", 1)},
		{"all-rules-renamed", rules, strings.ReplaceAll(rules, "/file", "/renamed")},
		{"states-64", states, strings.Replace(states, "allow ioctl /dev/vehicle/dev7*", "allow ioctl,read /dev/vehicle/dev7*", 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			sys := boot(b, c.a)
			var revs [2]*sack.CompiledPolicy
			for i, src := range []string{c.a, c.b} {
				compiled, _, err := sack.Compile(src)
				if err != nil {
					b.Fatal(err)
				}
				revs[i] = compiled
			}
			srcs := [2]string{c.a, c.b}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.ReloadCompiled(revs[(i+1)%2], srcs[(i+1)%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAVC measures the independent-mode hook decision with the
// access vector cache warm, with the cache disabled, and against the raw
// rule-set evaluation the cache memoises, plus the two pass-through
// shapes. The policy carries 500 rules under /srv/sack, so a covered
// uncached decision collects the matching rules out of a trie shared by
// all 500 — the workload the AVC exists for. check-cached is one
// snapshot load, one label load, one hash and one probe; uncovered-root
// (/tmp, a first segment no rule names) is rejected by the coverage
// trie's root step before the AVC; uncovered-under-root (/srv/other)
// probes the AVC, misses, and is passed through by the full coverage
// walk without being cached. one-off-denials checks a distinct denied
// key per op, the shape of a denial storm or of situation churn: each
// misses, and the AVC admits a denial only on its second miss in an
// epoch, so none is stored and the cell allocates nothing.
func BenchmarkAVC(b *testing.B) {
	const nRules = 500
	polText := bench.GenRulesPolicy(nRules)
	const path = "/srv/sack/area0/file0.dat"

	checkLoop := func(b *testing.B, tb *bench.Testbed, path string) {
		cred := sys.NewCred(1000, 1000)
		// Warm: first call populates the cache (when present).
		if err := tb.SACK.InodePermission(cred, path, nil, sys.MayRead); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tb.SACK.InodePermission(cred, path, nil, sys.MayRead); err != nil {
				b.Fatal(err)
			}
		}
	}
	boot := func(b *testing.B) *bench.Testbed {
		tb, err := bench.BootIndependentSACK(polText)
		if err != nil {
			b.Fatal(err)
		}
		return tb
	}

	b.Run("check-cached", func(b *testing.B) {
		tb := boot(b)
		checkLoop(b, tb, path)
		if st := tb.SACK.AVCStats(); st.Hits == 0 {
			b.Fatalf("cache never hit: %+v", st)
		}
	})
	b.Run("check-uncached", func(b *testing.B) {
		tb, err := bench.BootIndependentSACKNoAVC(polText)
		if err != nil {
			b.Fatal(err)
		}
		checkLoop(b, tb, path)
	})
	for _, c := range []struct{ name, path string }{
		{"uncovered-root", "/tmp/lmbench.dat"},
		{"uncovered-under-root", "/srv/other/file0.dat"},
	} {
		b.Run(c.name, func(b *testing.B) {
			tb := boot(b)
			checkLoop(b, tb, c.path)
			if covered, _ := tb.SACK.CheckStats(); covered != 0 {
				b.Fatalf("%s counted %d covered checks", c.path, covered)
			}
			if st := tb.SACK.AVCStats(); st.Inserts != 0 {
				b.Fatalf("%s was cached: %+v", c.path, st)
			}
		})
	}
	b.Run("one-off-denials", func(b *testing.B) {
		tb := boot(b)
		// 64Ki keys covered by the file0* rule, which grants no ioctl. A
		// key recurs only after 65,535 others have missed, long after
		// both its AVC slot and its doorkeeper word were overwritten, so
		// every check is a first miss.
		paths := make([]string, 1<<16)
		for i := range paths {
			paths[i] = "/srv/sack/area0/file0." + strconv.Itoa(i)
		}
		cred := sys.NewCred(1000, 1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tb.SACK.InodePermission(cred, paths[i&(len(paths)-1)], nil, sys.MayIoctl); !sys.IsErrno(err, sys.EACCES) {
				b.Fatalf("one-off ioctl check: %v, want EACCES", err)
			}
		}
		b.StopTimer()
		if st := tb.SACK.AVCStats(); st.Hits != 0 {
			b.Fatalf("a one-off denial was served from the cache: %+v", st)
		}
	})
	b.Run("decide-raw", func(b *testing.B) {
		compiled, _, err := policy.Load(polText)
		if err != nil {
			b.Fatal(err)
		}
		rs := compiled.StateSets["normal"]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if allowed, _ := rs.Decide("", path, sys.MayRead); !allowed {
				b.Fatal("unexpected denial")
			}
		}
	})
}

// BenchmarkMatcherAblation times the glob-walk reference engine against
// the trie-compiled matcher, with the AVC off (the uncached verdict the
// compile stage targets) and on (steady state). 500 rules
// sharing a first segment — the worst case for the walk, the design
// case for the trie. The walk cell runs the oracle directly
// (Coverage.CoversWalk + RuleSet.Decide) since enforcement has one
// engine; decide-trie-raw is its like-for-like trie counterpart, the one
// walk (Matcher.Evaluate) that answers coverage and verdict together.
func BenchmarkMatcherAblation(b *testing.B) {
	polText := bench.GenRulesPolicy(500)
	const path = "/srv/sack/area0/file0.dat"

	compiled, _, err := policy.Load(polText)
	if err != nil {
		b.Fatal(err)
	}
	rs := compiled.StateSets["normal"]
	b.Run("walk-uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !compiled.Coverage.CoversWalk(path) {
				b.Fatal("path not covered")
			}
			if allowed, _ := rs.Decide("", path, sys.MayRead); !allowed {
				b.Fatal("unexpected denial")
			}
		}
	})

	for _, cell := range []struct {
		name string
		boot func(string) (*bench.Testbed, error)
	}{
		{"trie-uncached", bench.BootIndependentSACKNoAVC},
		{"trie-cached", bench.BootIndependentSACK},
	} {
		cell := cell
		b.Run(cell.name, func(b *testing.B) {
			tb, err := cell.boot(polText)
			if err != nil {
				b.Fatal(err)
			}
			cred := sys.NewCred(1000, 1000)
			if err := tb.SACK.InodePermission(cred, path, nil, sys.MayRead); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tb.SACK.InodePermission(cred, path, nil, sys.MayRead); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	b.Run("decide-trie-raw", func(b *testing.B) {
		m := rs.Matcher()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			covered, allowed, _ := m.Evaluate("", path, sys.MayRead)
			if !covered {
				b.Fatal("path not covered")
			}
			if !allowed {
				b.Fatal("unexpected denial")
			}
		}
	})
}

// BenchmarkStackingDepth sweeps LSM stack depth 0..4 on the open/close
// hot path: the marginal cost of one more module in the chain.
func BenchmarkStackingDepth(b *testing.B) {
	cols := bench.StackDepths
	runCells(b, lmbench.Op{Run: (*lmbench.Suite).OpenClose}, cols, bootSuites(b, cols))
}

// benchNullDevice is a no-op device for hook-path benchmarks.
type benchNullDevice struct{}

func (benchNullDevice) ReadAt(_ *sys.Cred, buf []byte, _ int64) (int, error) { return 0, nil }
func (benchNullDevice) WriteAt(_ *sys.Cred, d []byte, _ int64) (int, error)  { return len(d), nil }
func (benchNullDevice) Ioctl(*sys.Cred, uint64, uint64) (uint64, error)      { return 0, nil }

// BenchmarkEnhancedProfileRewrite measures the enhanced-mode transition
// cost: one SSM transition plus regeneration of every managed AppArmor
// profile (here the four default profiles, each rewritten and reloaded
// on every transition).
func BenchmarkEnhancedProfileRewrite(b *testing.B) {
	tb, err := bench.BootSACKEnhanced(bench.DefaultSACKPolicy)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range tb.AppArmor.ProfileNames() {
		if err := tb.SACK.ManageProfile(tb.AppArmor.Profile(name)); err != nil {
			b.Fatal(err)
		}
	}
	evs := []policy.Event{"crash_detected", "all_clear"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.SACK.Deliver(evs[i%2])
	}
}
