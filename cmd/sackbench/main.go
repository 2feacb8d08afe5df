// sackbench regenerates every table and figure of the paper's
// evaluation (§IV) against the simulated kernel.
//
// Usage:
//
//	sackbench -table 2          Table II  (LMBench, 3 configurations)
//	sackbench -table 3          Table III (overhead vs. #SACK rules)
//	sackbench -fig 3a           Fig. 3(a) (overhead vs. #situation states)
//	sackbench -fig 3b           Fig. 3(b) (overhead vs. transition period)
//	sackbench -latency          §IV-B situation awareness latency
//	sackbench -all              everything
//	sackbench -quick            reduce iteration counts (CI-sized run)
//
// Decision throughput against goroutine count and the glob-walk vs
// trie-matcher ablation are Go benchmarks instead:
// `go test -bench BenchmarkParallelDecision .` and `make bench-ablation`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	table := flag.Int("table", 0, "regenerate a table (2 or 3)")
	fig := flag.String("fig", "", "regenerate a figure (3a or 3b)")
	latency := flag.Bool("latency", false, "measure situation awareness latency")
	riscv := flag.Bool("riscv", false, "no-LSM vs independent SACK file read/write comparison")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "smaller iteration counts")
	repeats := flag.Int("repeats", 1, "median-of-N repetitions for tables")
	flag.Parse()

	opts := bench.Options{Repeats: *repeats}
	if *quick {
		opts.Iterations = 200
		opts.MoveBytes = 2 << 20
	}

	ran := false
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "sackbench: %v\n", err)
		os.Exit(1)
	}

	if *all || *table == 2 {
		ran = true
		t, err := bench.RunTable2(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Format())
		fmt.Printf("mean |overhead| vs baseline: SACK-enhanced %.2f%%, independent %.2f%%\n\n",
			t.MeanAbsOverheadPct(1), t.MeanAbsOverheadPct(2))
	}
	if *all || *table == 3 {
		ran = true
		t, err := bench.RunTable3(nil, opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Format())
		fmt.Println()
	}
	if *all || *fig == "3a" {
		ran = true
		f, err := bench.RunFig3a(nil, opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Format())
		fmt.Println()
	}
	if *all || *fig == "3b" {
		ran = true
		periods := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second}
		if *quick {
			periods = []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}
		}
		f, err := bench.RunFig3b(periods, opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Format())
		fmt.Println()
	}
	if *all || *latency {
		ran = true
		events := 10000
		if *quick {
			events = 1000
		}
		res, err := bench.RunLatency(events)
		if err != nil {
			fail(err)
		}
		fmt.Println("Situation awareness latency (securityfs event path):")
		fmt.Printf("  %s\n", res)
	}
	if *all || *riscv {
		ran = true
		res, err := bench.RunRISCVComparison(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println("No-LSM baseline vs independent SACK (the paper's VisionFive2 experiment):")
		fmt.Printf("  file read:  %.6f ms -> %.6f ms (%+.2f%%)\n", res.BaseReadMs, res.SACKReadMs, res.ReadOverheadPct)
		fmt.Printf("  file write: %.6f ms -> %.6f ms (%+.2f%%)\n", res.BaseWriteMs, res.SACKWriteMs, res.WriteOverheadPct)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
