package sack_test

// parallel_bench_test.go measures decision throughput as goroutine
// count grows — the multi-core scalability experiment behind the
// lock-free read side. Three configurations: the capability-only
// kernel (no SACK), SACK on a policy-covered path (steady-state AVC
// hits), and SACK on an uncovered path (coverage-map passthrough).
//
// Run: go test -bench=ParallelDecision -benchtime=1s .
// Scaling is bounded by GOMAXPROCS: on a single-CPU host every
// goroutine count time-slices one core, so the interesting number there
// is that throughput stays flat instead of collapsing under contention.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sys"
)

var parallelGoroutines = []int{1, 2, 4, 8, 16, 32}

// BenchmarkParallelDecision drives InodePermission through the full LSM
// stack from g concurrent goroutines, each with its own cred.
func BenchmarkParallelDecision(b *testing.B) {
	configs := []struct {
		name string
		boot func() (*bench.Testbed, error)
		path string
	}{
		{"nosack", bench.BootCapabilityOnly, "/dev/vehicle/door0"},
		{"sack-covered", func() (*bench.Testbed, error) { return bench.BootIndependentSACK(bench.DefaultSACKPolicy) }, "/dev/vehicle/door0"},
		{"sack-uncovered", func() (*bench.Testbed, error) { return bench.BootIndependentSACK(bench.DefaultSACKPolicy) }, "/etc/hostname"},
	}
	for _, cfg := range configs {
		tb, err := cfg.boot()
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range parallelGoroutines {
			b.Run(fmt.Sprintf("%s/goroutines=%d", cfg.name, g), func(b *testing.B) {
				creds := make([]*sys.Cred, g)
				for i := range creds {
					creds[i] = sys.NewCred(1000, 1000)
					core.SetSubject(creds[i], "/usr/bin/bench-task")
					// Warm the AVC: the sweep measures the steady-state hit path.
					if err := tb.Kernel.LSM.InodePermission(creds[i], cfg.path, nil, sys.MayRead); err != nil {
						b.Fatalf("warmup check: %v", err)
					}
				}
				perG := b.N / g
				if perG == 0 {
					perG = 1
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for i := 0; i < g; i++ {
					wg.Add(1)
					go func(cred *sys.Cred) {
						defer wg.Done()
						for n := 0; n < perG; n++ {
							_ = tb.Kernel.LSM.InodePermission(cred, cfg.path, nil, sys.MayRead)
						}
					}(creds[i])
				}
				wg.Wait()
				b.StopTimer()
				ops := float64(g * perG)
				b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/s")
			})
		}
	}
}
