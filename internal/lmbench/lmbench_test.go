package lmbench_test

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/lmbench"
)

// noTimer stands in for *testing.B when an operation runs untimed.
type noTimer struct{}

func (noTimer) ResetTimer() {}
func (noTimer) StartTimer() {}
func (noTimer) StopTimer()  {}

var lists = []struct {
	name string
	ops  []lmbench.Op
	want int
}{
	{"Table2", lmbench.Table2, 17},
	{"Table3", lmbench.Table3, 14},
	{"Fig3a", lmbench.Fig3a, 5},
	{"NoLSM", lmbench.NoLSM, 2},
}

func newSuite(t *testing.T, boot func() (*bench.Testbed, error)) *lmbench.Suite {
	t.Helper()
	tb, err := boot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := lmbench.NewSuite(tb.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkList checks that ops has want rows, each with a unique name, and
// returns the names in order.
func checkList(t *testing.T, list string, ops []lmbench.Op, want int) []string {
	t.Helper()
	if len(ops) != want {
		t.Errorf("%s has %d rows, want %d", list, len(ops), want)
	}
	var names []string
	seen := map[string]bool{}
	for _, op := range ops {
		if op.Name == "" || seen[op.Name] {
			t.Errorf("%s: empty or duplicate op name %q", list, op.Name)
		}
		seen[op.Name] = true
		names = append(names, op.Name)
	}
	return names
}

// TestRunTable2Shape checks Table II's 17 rows in the paper's order:
// five process rows, five file-access rows, five bandwidth rows and
// two context-switch rows.
func TestRunTable2Shape(t *testing.T) {
	got := checkList(t, "Table2", lmbench.Table2, 17)
	want := []string{
		"syscall", "fork", "stat", "open-close", "exec",
		"create-0K", "delete-0K", "create-10K", "delete-10K", "mmap",
		"pipe", "AF_UNIX", "TCP", "file-reread", "mmap-reread",
		"ctxsw-2p-0K", "ctxsw-2p-16K",
	}
	if !slices.Equal(got, want) {
		t.Errorf("Table2 rows = %v, want %v", got, want)
	}
}

// TestRunTable3Shape checks Table III's 14 rows: Table II without the
// fork, stat, open/close and exec rows, with the I/O row second.
func TestRunTable3Shape(t *testing.T) {
	got := checkList(t, "Table3", lmbench.Table3, 14)
	var want []string
	for _, op := range lmbench.Table2 {
		switch op.Name {
		case "fork", "stat", "open-close", "exec":
		default:
			want = append(want, op.Name)
		}
	}
	want = slices.Insert(want, 1, "io")
	if !slices.Equal(got, want) {
		t.Errorf("Table3 rows = %v, want %v", got, want)
	}
}

// TestEveryOperationProducesPositiveResult runs every operation of
// every list a few iterations on a capability-only kernel and on
// independent SACK, twice on the same suite as a benchmark's growing
// b.N does, so a plain `go test` executes every paper row.
func TestEveryOperationProducesPositiveResult(t *testing.T) {
	for _, l := range lists {
		checkList(t, l.name, l.ops, l.want)
	}
	for _, c := range []struct {
		name string
		boot func() (*bench.Testbed, error)
	}{
		{"capability-only", bench.BootCapabilityOnly},
		{"independent-SACK", func() (*bench.Testbed, error) { return bench.BootIndependentSACK(bench.DefaultSACKPolicy) }},
	} {
		s := newSuite(t, c.boot)
		for _, l := range lists {
			for _, op := range l.ops {
				for _, n := range []int{1, 3} {
					if err := op.Run(s, n, noTimer{}); err != nil {
						t.Fatalf("%s: %s/%s n=%d: %v", c.name, l.name, op.Name, n, err)
					}
				}
			}
		}
	}
}

// dirTimer records how many files the create/delete directory held at
// each StartTimer.
type dirTimer struct {
	s      *lmbench.Suite
	starts []int
}

func (d *dirTimer) ResetTimer() {}
func (d *dirTimer) StopTimer()  {}
func (d *dirTimer) StartTimer() {
	names, err := d.s.K.FS.ReadDir("/tmp/lmbench")
	if err != nil {
		panic(err)
	}
	d.starts = append(d.starts, len(names))
}

// TestFileOps checks that the create and delete rows time only their
// own half: a create batch starts timing on an empty directory, a
// delete batch on one its untimed set-up filled; batches cap at 1024
// files; both rows leave the directory empty.
func TestFileOps(t *testing.T) {
	s := newSuite(t, bench.BootCapabilityOnly)
	const n = 2*1024 + 5
	for _, c := range []struct {
		name string
		run  func(int, lmbench.Timer) error
		want []int
	}{
		{"create", func(n int, tm lmbench.Timer) error { return s.FileCreate(10<<10, n, tm) }, []int{0, 0, 0}},
		{"delete", func(n int, tm lmbench.Timer) error { return s.FileDelete(10<<10, n, tm) }, []int{1024, 1024, 5}},
	} {
		d := &dirTimer{s: s}
		if err := c.run(n, d); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(d.starts) != len(c.want) {
			t.Fatalf("%s: timer started at %v files, want %v", c.name, d.starts, c.want)
		}
		for i := range c.want {
			if d.starts[i] != c.want[i] {
				t.Fatalf("%s: timer started at %v files, want %v", c.name, d.starts, c.want)
			}
		}
		if left, _ := s.K.FS.ReadDir("/tmp/lmbench"); len(left) != 0 {
			t.Fatalf("%s left %d files behind", c.name, len(left))
		}
	}
}

// TestBandwidthLabelsAndUnits checks that exactly the five bandwidth
// rows declare bytes per iteration, so only they report MB/s.
func TestBandwidthLabelsAndUnits(t *testing.T) {
	bandwidth := map[string]bool{
		"pipe": true, "AF_UNIX": true, "TCP": true, "file-reread": true, "mmap-reread": true,
	}
	for _, l := range lists {
		for _, op := range l.ops {
			if (op.Bytes > 0) != bandwidth[op.Name] {
				t.Errorf("%s/%s: Bytes = %d", l.name, op.Name, op.Bytes)
			}
		}
	}
	if got := lmbench.Table2[len(lmbench.Table2)-1].Name; got != "ctxsw-2p-16K" {
		t.Errorf("last Table II row = %q, want ctxsw-2p-16K", got)
	}
}
