package sack_test

// bench_test.go regenerates the paper's evaluation (§IV) as Go
// benchmarks, one family per table/figure:
//
//	BenchmarkTable2/...        Table II  — op × {AppArmor, SACK-enhanced,
//	                                       independent SACK}
//	BenchmarkTable3/...        Table III — open/close with N SACK rules
//	BenchmarkFig3a/...         Fig. 3(a) — file op with N situation states
//	BenchmarkFig3b/...         Fig. 3(b) — workload under transition storms
//	BenchmarkEventLatency      §IV-B     — SACKfs event delivery latency
//
// Run: go test -bench=. -benchmem .
// The sackbench binary prints the same data formatted like the paper.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/kernel"
	"repro/internal/lmbench"
	"repro/internal/policy"
	"repro/internal/ssm"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// table2Configs boots the three Table II configurations.
func table2Configs(b *testing.B) map[string]*bench.Testbed {
	b.Helper()
	out := make(map[string]*bench.Testbed)
	for name, boot := range map[string]func() (*bench.Testbed, error){
		"AppArmor-baseline": bench.BootBaselineAppArmor,
		"SACK-enhanced":     func() (*bench.Testbed, error) { return bench.BootSACKEnhanced(bench.DefaultSACKPolicy) },
		"independent-SACK":  func() (*bench.Testbed, error) { return bench.BootIndependentSACK(bench.DefaultSACKPolicy) },
	} {
		tb, err := boot()
		if err != nil {
			b.Fatalf("boot %s: %v", name, err)
		}
		out[name] = tb
	}
	return out
}

func newSuite(b *testing.B, tb *bench.Testbed) *lmbench.Suite {
	b.Helper()
	suite, err := lmbench.NewSuite(tb.Kernel)
	if err != nil {
		b.Fatalf("suite: %v", err)
	}
	return suite
}

// BenchmarkTable2 measures the latency-class Table II operations per
// configuration. Bandwidth rows are exercised via -bench on the
// dedicated benchmarks below and by cmd/sackbench.
func BenchmarkTable2(b *testing.B) {
	for _, cfg := range []string{"AppArmor-baseline", "SACK-enhanced", "independent-SACK"} {
		cfg := cfg
		b.Run(cfg, func(b *testing.B) {
			tb := table2Configs(b)[cfg]
			suite := newSuite(b, tb)
			task := suite.Task

			b.Run("syscall", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					task.Getpid()
				}
			})
			b.Run("stat", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := task.Stat("/tmp/lmbench.dat"); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("open-close", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fd, err := task.Open("/tmp/lmbench.dat", vfs.ORdonly, 0)
					if err != nil {
						b.Fatal(err)
					}
					task.Close(fd)
				}
			})
			b.Run("fork", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					child, err := task.Fork()
					if err != nil {
						b.Fatal(err)
					}
					child.Exit()
				}
			})
			b.Run("exec", func(b *testing.B) {
				child, err := task.Fork()
				if err != nil {
					b.Fatal(err)
				}
				defer child.Exit()
				for i := 0; i < b.N; i++ {
					if err := child.Exec("/usr/bin/lmbench-exec"); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("file-create-delete-0K", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := task.WriteFileAll("/tmp/lmbench/bn", nil, 0o644); err != nil {
						b.Fatal(err)
					}
					if err := task.Unlink("/tmp/lmbench/bn"); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("file-create-delete-10K", func(b *testing.B) {
				payload := make([]byte, 10<<10)
				for i := 0; i < b.N; i++ {
					if err := task.WriteFileAll("/tmp/lmbench/bn", payload, 0o644); err != nil {
						b.Fatal(err)
					}
					if err := task.Unlink("/tmp/lmbench/bn"); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("mmap", func(b *testing.B) {
				fd, err := task.Open("/tmp/lmbench.dat", vfs.ORdonly, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer task.Close(fd)
				for i := 0; i < b.N; i++ {
					if _, err := task.Mmap(fd, 64<<10, sys.MayRead); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("pipe-64K", func(b *testing.B) {
				rfd, wfd, err := task.Pipe()
				if err != nil {
					b.Fatal(err)
				}
				defer task.Close(rfd)
				defer task.Close(wfd)
				block := make([]byte, 32<<10) // fits the pipe: no blocking
				rbuf := make([]byte, 32<<10)
				b.SetBytes(32 << 10)
				for i := 0; i < b.N; i++ {
					if _, err := task.Write(wfd, block); err != nil {
						b.Fatal(err)
					}
					for got := 0; got < len(block); {
						n, err := task.Read(rfd, rbuf[got:])
						if err != nil {
							b.Fatal(err)
						}
						got += n
					}
				}
			})
			b.Run("file-reread", func(b *testing.B) {
				fd, err := task.Open("/tmp/lmbench.dat", vfs.ORdonly, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer task.Close(fd)
				buf := make([]byte, 64<<10)
				b.SetBytes(64 << 10)
				for i := 0; i < b.N; i++ {
					if _, err := task.Pread(fd, buf, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkTable3 measures open/close and create/delete with growing
// numbers of loaded SACK rules — the Table III sweep. Flat results
// reproduce the paper's finding.
func BenchmarkTable3(b *testing.B) {
	for _, n := range []int{0, 10, 100, 500, 1000} {
		n := n
		b.Run(fmt.Sprintf("rules-%d", n), func(b *testing.B) {
			tb, err := bench.BootAppArmorWithSACKRules(n)
			if err != nil {
				b.Fatal(err)
			}
			suite := newSuite(b, tb)
			task := suite.Task
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fd, err := task.Open("/tmp/lmbench.dat", vfs.ORdonly, 0)
				if err != nil {
					b.Fatal(err)
				}
				task.Close(fd)
			}
		})
	}
}

// BenchmarkTable3Independent is the harder variant: the rules live in
// independent SACK, so every open consults the coverage index.
func BenchmarkTable3Independent(b *testing.B) {
	for _, n := range []int{0, 10, 100, 500, 1000} {
		n := n
		b.Run(fmt.Sprintf("rules-%d", n), func(b *testing.B) {
			var tb *bench.Testbed
			var err error
			if n == 0 {
				tb, err = bench.BootCapabilityOnly()
			} else {
				tb, err = bench.BootIndependentSACK(bench.GenRulesPolicy(n))
			}
			if err != nil {
				b.Fatal(err)
			}
			suite := newSuite(b, tb)
			task := suite.Task
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fd, err := task.Open("/tmp/lmbench.dat", vfs.ORdonly, 0)
				if err != nil {
					b.Fatal(err)
				}
				task.Close(fd)
			}
		})
	}
}

// BenchmarkFig3a measures an open/read/close cycle under independent
// SACK with growing numbers of situation states.
func BenchmarkFig3a(b *testing.B) {
	for _, n := range []int{1, 10, 25, 50, 100} {
		n := n
		b.Run(fmt.Sprintf("states-%d", n), func(b *testing.B) {
			tb, err := bench.BootIndependentSACK(bench.GenStatesPolicy(n))
			if err != nil {
				b.Fatal(err)
			}
			suite := newSuite(b, tb)
			task := suite.Task
			buf := make([]byte, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fd, err := task.Open("/tmp/lmbench.dat", vfs.ORdonly, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := task.Pread(fd, buf, 0); err != nil {
					b.Fatal(err)
				}
				task.Close(fd)
			}
		})
	}
}

// BenchmarkFig3b measures the same cycle while a background driver
// transitions the situation state at the given period.
func BenchmarkFig3b(b *testing.B) {
	for _, period := range []time.Duration{0, time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
		period := period
		name := "no-transitions"
		if period > 0 {
			name = fmt.Sprintf("period-%s", period)
		}
		b.Run(name, func(b *testing.B) {
			tb, err := bench.BootIndependentSACK(bench.SpeedGatePolicy)
			if err != nil {
				b.Fatal(err)
			}
			if err := tb.Kernel.WriteFile("/etc/vehicle/critical.conf", 0o644, []byte("x")); err != nil {
				b.Fatal(err)
			}
			suite := newSuite(b, tb)
			task := suite.Task

			stop := make(chan struct{})
			if period > 0 {
				go func() {
					evs := []ssm.Event{"speed_high", "speed_low"}
					ticker := time.NewTicker(period)
					defer ticker.Stop()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						case <-ticker.C:
							tb.SACK.Deliver(evs[i%2])
						}
					}
				}()
			}
			buf := make([]byte, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fd, err := task.Open("/tmp/lmbench.dat", vfs.ORdonly, 0)
				if err != nil {
					b.Fatal(err)
				}
				task.Pread(fd, buf, 0)
				task.Close(fd)
				if cfd, err := task.Open("/etc/vehicle/critical.conf", vfs.ORdonly, 0); err == nil {
					task.Close(cfd)
				}
			}
			b.StopTimer()
			close(stop)
		})
	}
}

// BenchmarkEventLatency measures one SACKfs event write causing an SSM
// transition — the paper's ~5.4 µs securityfs path.
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := task.Write(fd, events[int(tb.SACK.CurrentState().Encoding)]); err != nil {
			b.Fatal(err)
		}
	}
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
		tb.SACK.Deliver(ssm.Event(fmt.Sprintf("advance%d", cur)))
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

// BenchmarkAVC measures the covered-path decision fast path with the
// access vector cache warm, with the cache disabled, and against the raw
// rule-set evaluation the cache memoises. The policy carries 500 rules
// sharing a first path segment, so an uncached decision scans a deep
// index bucket — the workload the AVC exists for. The cached check must
// beat the raw Decide for the cache to pay its way.
func BenchmarkAVC(b *testing.B) {
	const nRules = 500
	polText := bench.GenRulesPolicy(nRules)
	const path = "/srv/sack/area0/file0.dat"

	checkLoop := func(b *testing.B, tb *bench.Testbed) {
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

	b.Run("check-cached", func(b *testing.B) {
		tb, err := bench.BootIndependentSACK(polText)
		if err != nil {
			b.Fatal(err)
		}
		checkLoop(b, tb)
		if st := tb.SACK.AVCStats(); st.Hits == 0 {
			b.Fatalf("cache never hit: %+v", st)
		}
	})
	b.Run("check-uncached", func(b *testing.B) {
		tb, err := bench.BootIndependentSACKNoAVC(polText)
		if err != nil {
			b.Fatal(err)
		}
		checkLoop(b, tb)
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
// engine; decide-trie-raw is its like-for-like trie counterpart.
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
			if !compiled.Coverage.Covers(path) {
				b.Fatal("path not covered")
			}
			if allowed, _ := m.Decide("", path, sys.MayRead); !allowed {
				b.Fatal("unexpected denial")
			}
		}
	})
}

// BenchmarkStackingDepth sweeps LSM stack depth 0..4 on the open/close
// hot path: the marginal cost of one more module in the chain.
func BenchmarkStackingDepth(b *testing.B) {
	for depth := 0; depth <= 4; depth++ {
		depth := depth
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			tb, err := bench.BootStackDepth(depth)
			if err != nil {
				b.Fatal(err)
			}
			if err := tb.Kernel.WriteFile("/tmp/lmbench.dat", 0o644, []byte("x")); err != nil {
				b.Fatal(err)
			}
			task := tb.Kernel.Init()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fd, err := task.Open("/tmp/lmbench.dat", vfs.ORdonly, 0)
				if err != nil {
					b.Fatal(err)
				}
				task.Close(fd)
			}
		})
	}
}

// benchNullDevice is a no-op device for hook-path benchmarks.
type benchNullDevice struct{}

func (benchNullDevice) ReadAt(_ *sys.Cred, buf []byte, _ int64) (int, error) { return 0, nil }
func (benchNullDevice) WriteAt(_ *sys.Cred, d []byte, _ int64) (int, error)  { return len(d), nil }
func (benchNullDevice) Ioctl(*sys.Cred, uint64, uint64) (uint64, error)      { return 0, nil }

// BenchmarkEnhancedProfileRewrite measures the enhanced-mode transition
// cost: one SSM transition plus full AppArmor profile regeneration.
func BenchmarkEnhancedProfileRewrite(b *testing.B) {
	tb, err := bench.BootSACKEnhanced(bench.DefaultSACKPolicy)
	if err != nil {
		b.Fatal(err)
	}
	base, err := func() (*kernel.Task, error) { return tb.Kernel.Init(), nil }()
	if err != nil {
		b.Fatal(err)
	}
	_ = base
	evs := []ssm.Event{"crash_detected", "all_clear"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.SACK.Deliver(evs[i%2])
	}
}
