package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/lmbench"
	"repro/internal/ssm"
	"repro/internal/stats"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// Options tunes experiment cost. Zero values select defaults suitable
// for full runs; tests shrink them.
type Options struct {
	Iterations int // lmbench inner-loop scale (default 2000)
	MoveBytes  int // bandwidth volume per measurement (default 8 MiB)
	Repeats    int // measurement repetitions, median-of (default 1)
}

func (o Options) apply(s *lmbench.Suite) {
	if o.Iterations > 0 {
		s.Iterations = o.Iterations
	}
	if o.MoveBytes > 0 {
		s.MoveBytes = o.MoveBytes
	}
}

func (o Options) repeats() int {
	if o.Repeats > 0 {
		return o.Repeats
	}
	return 1
}

// bestOf folds repeated samples into the least-noisy representative:
// the minimum for latencies and the maximum for bandwidths, the standard
// micro-benchmark convention (scheduler and GC interference only ever
// make an operation look slower).
func bestOf(samples []float64, smallerIsBetter bool) float64 {
	best := samples[0]
	for _, v := range samples[1:] {
		if (smallerIsBetter && v < best) || (!smallerIsBetter && v > best) {
			best = v
		}
	}
	return best
}

// runConfig boots a testbed via boot and runs the Table II list on it,
// best-of-Repeats per operation.
func runConfig(boot func() (*Testbed, error), o Options, table3 bool) ([]lmbench.CategorizedResult, error) {
	var runs [][]lmbench.CategorizedResult
	for r := 0; r < o.repeats(); r++ {
		tb, err := boot()
		if err != nil {
			return nil, err
		}
		suite, err := lmbench.NewSuite(tb.Kernel)
		if err != nil {
			return nil, err
		}
		o.apply(suite)
		// Per-operation GC isolation happens inside the suite (lmbench's
		// measure wrapper); a pre-run collection levels the playing field.
		runtime.GC()
		var res []lmbench.CategorizedResult
		if table3 {
			res, err = suite.RunTable3()
		} else {
			res, err = suite.RunTable2()
		}
		if err != nil {
			return nil, err
		}
		runs = append(runs, res)
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	out := make([]lmbench.CategorizedResult, len(runs[0]))
	for i := range runs[0] {
		samples := make([]float64, len(runs))
		for r := range runs {
			samples[r] = runs[r][i].Value
		}
		out[i] = runs[0][i]
		out[i].Value = bestOf(samples, out[i].SmallerIsBetter)
	}
	return out, nil
}

// assembleTable folds per-config result lists into a Table, preserving
// the category sections.
func assembleTable(title string, names []string, results [][]lmbench.CategorizedResult) *Table {
	t := &Table{Title: title, ConfigNames: names}
	if len(results) == 0 || len(results[0]) == 0 {
		return t
	}
	var cur *Section
	for i, base := range results[0] {
		if cur == nil || cur.Name != string(base.Category) {
			t.Sections = append(t.Sections, Section{Name: string(base.Category)})
			cur = &t.Sections[len(t.Sections)-1]
		}
		row := Row{Op: base.Op, Unit: base.Unit, SmallerIsBetter: base.SmallerIsBetter}
		for _, cfg := range results {
			row.Values = append(row.Values, cfg[i].Value)
		}
		cur.Rows = append(cur.Rows, row)
	}
	return t
}

// RunTable2 regenerates Table II: LMBench over the AppArmor baseline,
// SACK-enhanced AppArmor, and independent SACK, all with default
// policies.
func RunTable2(o Options) (*Table, error) {
	boots := []struct {
		name string
		boot func() (*Testbed, error)
	}{
		{"AppArmor (baseline)", BootBaselineAppArmor},
		{"SACK-enhanced AppArmor", func() (*Testbed, error) { return BootSACKEnhanced(DefaultSACKPolicy) }},
		{"Independent SACK", func() (*Testbed, error) { return BootIndependentSACK(DefaultSACKPolicy) }},
	}
	var names []string
	var results [][]lmbench.CategorizedResult
	for _, b := range boots {
		res, err := runConfig(b.boot, o, false)
		if err != nil {
			return nil, fmt.Errorf("bench: table 2, %s: %w", b.name, err)
		}
		names = append(names, b.name)
		results = append(results, res)
	}
	return assembleTable("TABLE II: LMBench result of SACK", names, results), nil
}

// RunTable3 regenerates Table III: LMBench with growing numbers of SACK
// rules stacked on AppArmor. counts conventionally is
// [0, 10, 100, 500, 1000].
func RunTable3(counts []int, o Options) (*Table, error) {
	if len(counts) == 0 {
		counts = []int{0, 10, 100, 500, 1000}
	}
	var names []string
	var results [][]lmbench.CategorizedResult
	for _, n := range counts {
		n := n
		res, err := runConfig(func() (*Testbed, error) { return BootAppArmorWithSACKRules(n) }, o, true)
		if err != nil {
			return nil, fmt.Errorf("bench: table 3, %d rules: %w", n, err)
		}
		name := fmt.Sprintf("%d", n)
		if n == 0 {
			name = "0 (baseline)"
		}
		names = append(names, name)
		results = append(results, res)
	}
	return assembleTable("TABLE III: LMBench result of the different number of rules in AppArmor with SACK", names, results), nil
}

// fileOpsBest boots a fresh testbed per repeat, runs the file-op subset,
// and returns element-wise best-of values.
func fileOpsBest(boot func() (*Testbed, error), o Options) ([]lmbench.Result, error) {
	var runs [][]lmbench.Result
	for r := 0; r < o.repeats(); r++ {
		tb, err := boot()
		if err != nil {
			return nil, err
		}
		suite, err := lmbench.NewSuite(tb.Kernel)
		if err != nil {
			return nil, err
		}
		o.apply(suite)
		runtime.GC()
		res, err := suite.FileOps()
		if err != nil {
			return nil, err
		}
		runs = append(runs, res)
	}
	out := make([]lmbench.Result, len(runs[0]))
	for i := range runs[0] {
		samples := make([]float64, len(runs))
		for r := range runs {
			samples[r] = runs[r][i].Value
		}
		out[i] = runs[0][i]
		out[i].Value = bestOf(samples, out[i].SmallerIsBetter)
	}
	return out, nil
}

// RunFig3a regenerates Fig. 3(a): file-operation overhead of independent
// SACK as the number of situation states grows, relative to the
// capability-only baseline.
func RunFig3a(stateCounts []int, o Options) (*Figure, error) {
	if len(stateCounts) == 0 {
		stateCounts = []int{1, 10, 25, 50, 100}
	}
	baseRes, err := fileOpsBest(BootCapabilityOnly, o)
	if err != nil {
		return nil, err
	}

	series := Series{Name: "independent SACK file ops"}
	for _, n := range stateCounts {
		n := n
		res, err := fileOpsBest(func() (*Testbed, error) {
			return BootIndependentSACK(GenStatesPolicy(n))
		}, o)
		if err != nil {
			return nil, fmt.Errorf("bench: fig 3a, %d states: %w", n, err)
		}
		var pcts []float64
		for i := range res {
			if res[i].SmallerIsBetter {
				pcts = append(pcts, stats.OverheadPct(baseRes[i].Value, res[i].Value))
			} else {
				pcts = append(pcts, stats.InvertOverhead(baseRes[i].Value, res[i].Value))
			}
		}
		series.Points = append(series.Points, Point{X: float64(n), Y: stats.Mean(pcts)})
	}
	return &Figure{
		Title:  "Fig. 3(a): Runtime overhead with different number of situation states",
		XLabel: "situation states",
		YLabel: "overhead %",
		Series: []Series{series},
	}, nil
}

// RunFig3b regenerates Fig. 3(b): overhead of situation-state transitions
// at various periods while a file workload runs. The policy gates a
// critical file on the low-speed state; a background driver alternates
// speed_high/speed_low events every period while the timed loop performs
// ordinary (state-independent) file operations, so the measured delta is
// transition interference, not the gated file's own state-dependent cost.
// The gated file is still probed — at 1/64 weight — to keep the scenario
// faithful. Iteration counts are calibrated so each measurement spans
// many transition periods.
func RunFig3b(periods []time.Duration, o Options) (*Figure, error) {
	if len(periods) == 0 {
		periods = []time.Duration{
			1 * time.Millisecond, 10 * time.Millisecond,
			100 * time.Millisecond, 1000 * time.Millisecond,
		}
	}
	iters := o.Iterations
	if iters <= 0 {
		iters = 2000
	}
	calibrationIters := iters * 5

	run := func(period time.Duration, workIters int) (float64, error) {
		tb, err := BootIndependentSACK(SpeedGatePolicy)
		if err != nil {
			return 0, err
		}
		k := tb.Kernel
		if _, err := k.FS.MkdirAll("/etc/vehicle", 0o755, 0, 0); err != nil {
			return 0, err
		}
		if err := k.WriteFile("/etc/vehicle/critical.conf", 0o644, []byte("params")); err != nil {
			return 0, err
		}
		if err := k.WriteFile("/tmp/work.dat", 0o644, make([]byte, 4096)); err != nil {
			return 0, err
		}
		task := k.Init()

		var stop atomic.Bool
		toggleDone := make(chan struct{})
		if period > 0 {
			go func() {
				defer close(toggleDone)
				evs := []ssm.Event{"speed_high", "speed_low"}
				i := 0
				ticker := time.NewTicker(period)
				defer ticker.Stop()
				for !stop.Load() {
					<-ticker.C
					// Both events are declared and nothing degrades the
					// pipeline here, so Deliver cannot fail.
					_ = tb.SACK.Deliver(evs[i%2])
					i++
				}
			}()
		} else {
			close(toggleDone)
		}

		buf := make([]byte, 4096)
		start := time.Now()
		for i := 0; i < workIters; i++ {
			for j := 0; j < 3; j++ {
				fd, err := task.Open("/tmp/work.dat", vfs.ORdonly, 0)
				if err != nil {
					return 0, err
				}
				if _, err := task.Pread(fd, buf, 0); err != nil {
					return 0, err
				}
				task.Close(fd)
			}
			if i%64 == 0 {
				// Scenario probe: EACCES in the high-speed state is the
				// expected (and correct) outcome.
				if cfd, err := task.Open("/etc/vehicle/critical.conf", vfs.ORdonly, 0); err == nil {
					task.Pread(cfd, buf, 0)
					task.Close(cfd)
				} else if !sys.IsErrno(err, sys.EACCES) {
					return 0, err
				}
			}
		}
		elapsed := time.Since(start)
		stop.Store(true)
		<-toggleDone
		return elapsed.Seconds() * 1e3 / float64(workIters), nil
	}

	// Calibrate: how many iterations fill the target duration?
	perIterMs, err := run(0, calibrationIters)
	if err != nil {
		return nil, err
	}
	itersFor := func(period time.Duration) int {
		target := 1500 * time.Millisecond
		if min := 3 * period; min+500*time.Millisecond > target {
			target = min + 500*time.Millisecond
		}
		n := int(float64(target.Milliseconds()) / perIterMs)
		if n < calibrationIters {
			n = calibrationIters
		}
		return n
	}

	measure := func(period time.Duration, workIters int) (float64, error) {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return run(period, workIters)
	}

	// Machine-load drift over a long sweep would swamp the small deltas
	// this figure is about, so each period is measured back-to-back with
	// its own baseline (period 0) at identical iteration counts, and the
	// overhead comes from the best-of pairs.
	series := Series{Name: "transition overhead"}
	for _, p := range periods {
		workIters := itersFor(p)
		baseSamples := make([]float64, 0, o.repeats())
		periodSamples := make([]float64, 0, o.repeats())
		for r := 0; r < o.repeats(); r++ {
			b, err := measure(0, workIters)
			if err != nil {
				return nil, fmt.Errorf("bench: fig 3b baseline: %w", err)
			}
			v, err := measure(p, workIters)
			if err != nil {
				return nil, fmt.Errorf("bench: fig 3b, period %v: %w", p, err)
			}
			baseSamples = append(baseSamples, b)
			periodSamples = append(periodSamples, v)
		}
		series.Points = append(series.Points, Point{
			X: float64(p.Milliseconds()),
			Y: stats.OverheadPct(bestOf(baseSamples, true), bestOf(periodSamples, true)),
		})
	}
	return &Figure{
		Title:  "Fig. 3(b): Runtime overhead with different situation state transition frequency",
		XLabel: "period (ms)",
		YLabel: "overhead %",
		Series: []Series{series},
	}, nil
}

// LatencyResult is the §IV-B situation-awareness-latency measurement.
type LatencyResult struct {
	Events      int
	MeanMicros  float64
	P99Micros   float64
	AccuracyPct float64 // events that produced the expected transition
}

// String summarises like the paper's text ("average latency is around
// 5.4µs with 100% accuracy").
func (r LatencyResult) String() string {
	return fmt.Sprintf("events=%d mean=%.2fµs p99=%.2fµs accuracy=%.1f%%",
		r.Events, r.MeanMicros, r.P99Micros, r.AccuracyPct)
}

// RunLatency measures user->kernel situation-event delivery latency
// through SACKfs: the time from write(2) entry to the transition being
// visible, over a 4-state ring (four distinct situation events, as in the
// paper).
func RunLatency(events int) (LatencyResult, error) {
	if events <= 0 {
		events = 10000
	}
	tb, err := BootIndependentSACK(GenStatesPolicy(4))
	if err != nil {
		return LatencyResult{}, err
	}
	task := tb.Kernel.Init()
	fd, err := task.Open("/sys/kernel/security/SACK/events", vfs.OWronly, 0)
	if err != nil {
		return LatencyResult{}, err
	}
	defer task.Close(fd)

	samples := make([]float64, 0, events)
	correct := 0
	for i := 0; i < events; i++ {
		cur := tb.SACK.CurrentState()
		ev := []byte(fmt.Sprintf("advance%d\n", cur.Encoding))
		expect := (cur.Encoding + 1) % 4
		start := time.Now()
		if _, err := task.Write(fd, ev); err != nil {
			return LatencyResult{}, err
		}
		lat := time.Since(start)
		if tb.SACK.CurrentState().Encoding == expect {
			correct++
		}
		samples = append(samples, float64(lat.Nanoseconds())/1e3)
	}
	return LatencyResult{
		Events:      events,
		MeanMicros:  stats.Mean(samples),
		P99Micros:   stats.Percentile(samples, 99),
		AccuracyPct: float64(correct) / float64(events) * 100,
	}, nil
}
