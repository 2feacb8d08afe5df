package bench

import (
	"testing"

	"repro/internal/lmbench"
)

// noTimer stands in for *testing.B when an operation runs untimed.
type noTimer struct{}

func (noTimer) ResetTimer() {}
func (noTimer) StartTimer() {}
func (noTimer) StopTimer()  {}

// runSmoke checks that ops has want rows and runs each op for one
// iteration on every configuration, as `-benchtime 1x` does.
func runSmoke(t *testing.T, ops []lmbench.Op, want int, configs []Config) {
	t.Helper()
	if len(ops) != want {
		t.Fatalf("%d rows, want %d", len(ops), want)
	}
	for _, c := range configs {
		tb, err := c.Boot()
		if err != nil {
			t.Fatalf("boot %s: %v", c.Name, err)
		}
		s, err := lmbench.NewSuite(tb.Kernel)
		if err != nil {
			t.Fatalf("suite %s: %v", c.Name, err)
		}
		for _, op := range ops {
			if err := op.Run(s, 1, noTimer{}); err != nil {
				t.Fatalf("%s/%s: %v", op.Name, c.Name, err)
			}
		}
	}
}

// TestRunTable2Smoke runs every Table II row on its three configurations.
func TestRunTable2Smoke(t *testing.T) { runSmoke(t, lmbench.Table2, 17, Table2) }

// TestRunTable3Smoke runs every Table III row on AppArmor holding each
// swept number of SACK-generated rules.
func TestRunTable3Smoke(t *testing.T) { runSmoke(t, lmbench.Table3, 14, Table3) }

// TestRunFig3aSmoke runs the Fig. 3(a) file ops on the capability-only
// baseline and on independent SACK with each swept number of states.
func TestRunFig3aSmoke(t *testing.T) { runSmoke(t, lmbench.Fig3a, 5, Fig3a) }

// TestRunRISCVComparisonSmoke runs the §IV-B board rows on a kernel
// with no LSM and on independent SACK.
func TestRunRISCVComparisonSmoke(t *testing.T) { runSmoke(t, lmbench.NoLSM, 2, NoLSM) }

func TestGenPoliciesCompile(t *testing.T) {
	for _, n := range []int{1, 10, 100, 1000} {
		if _, err := BootAppArmorWithSACKRules(n); err != nil {
			t.Fatalf("rules policy n=%d: %v", n, err)
		}
	}
	for _, n := range []int{1, 4, 100} {
		if _, err := BootIndependentSACK(GenStatesPolicy(n)); err != nil {
			t.Fatalf("states policy n=%d: %v", n, err)
		}
	}
}

func TestBootStackDepths(t *testing.T) {
	for depth := 0; depth <= 4; depth++ {
		tb, err := BootStackDepth(depth)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		got := len(tb.Kernel.LSM.Modules())
		want := depth
		if depth > 4 {
			want = 4
		}
		if got != want {
			t.Errorf("depth %d: %d modules registered", depth, got)
		}
	}
	// Depth 3 is the paper's configuration.
	tb, _ := BootStackDepth(3)
	if got := tb.Kernel.LSM.String(); got != "sack,apparmor,capability" {
		t.Errorf("depth-3 stack = %q", got)
	}
	tb4, _ := BootStackDepth(4)
	if got := tb4.Kernel.LSM.String(); got != "sack,selinux,apparmor,capability" {
		t.Errorf("depth-4 stack = %q", got)
	}
}
