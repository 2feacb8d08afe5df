package bench

import (
	"fmt"
	"testing"

	"repro/internal/lmbench"
)

// noTimer stands in for *testing.B when an operation runs untimed.
type noTimer struct{}

func (noTimer) ResetTimer() {}
func (noTimer) StartTimer() {}
func (noTimer) StopTimer()  {}

// smokeConfig is one configuration a paper benchmark compares.
type smokeConfig struct {
	name string
	boot func() (*Testbed, error)
}

// runSmoke checks that ops has want rows and runs each op for one
// iteration on every configuration, as `-benchtime 1x` does.
func runSmoke(t *testing.T, ops []lmbench.Op, want int, configs []smokeConfig) {
	t.Helper()
	if len(ops) != want {
		t.Fatalf("%d rows, want %d", len(ops), want)
	}
	for _, c := range configs {
		tb, err := c.boot()
		if err != nil {
			t.Fatalf("boot %s: %v", c.name, err)
		}
		s, err := lmbench.NewSuite(tb.Kernel)
		if err != nil {
			t.Fatalf("suite %s: %v", c.name, err)
		}
		for _, op := range ops {
			if err := op.Run(s, 1, noTimer{}); err != nil {
				t.Fatalf("%s/%s: %v", op.Name, c.name, err)
			}
		}
	}
}

// TestRunTable2Smoke runs every Table II row on its three configurations.
func TestRunTable2Smoke(t *testing.T) {
	runSmoke(t, lmbench.Table2, 17, []smokeConfig{
		{"AppArmor-baseline", BootBaselineAppArmor},
		{"SACK-enhanced", func() (*Testbed, error) { return BootSACKEnhanced(DefaultSACKPolicy) }},
		{"independent-SACK", func() (*Testbed, error) { return BootIndependentSACK(DefaultSACKPolicy) }},
	})
}

// TestRunTable3Smoke runs every Table III row on AppArmor holding 0, 10
// and 100 SACK-generated rules.
func TestRunTable3Smoke(t *testing.T) {
	var configs []smokeConfig
	for _, n := range []int{0, 10, 100} {
		configs = append(configs, smokeConfig{fmt.Sprintf("rules-%d", n), func() (*Testbed, error) { return BootAppArmorWithSACKRules(n) }})
	}
	runSmoke(t, lmbench.Table3, 14, configs)
}

// TestRunFig3aSmoke runs the Fig. 3(a) file ops on the capability-only
// baseline and on independent SACK with 1 and 10 states.
func TestRunFig3aSmoke(t *testing.T) {
	configs := []smokeConfig{{"baseline", BootCapabilityOnly}}
	for _, n := range []int{1, 10} {
		configs = append(configs, smokeConfig{fmt.Sprintf("states-%d", n), func() (*Testbed, error) { return BootIndependentSACK(GenStatesPolicy(n)) }})
	}
	runSmoke(t, lmbench.Fig3a, 5, configs)
}

// TestRunRISCVComparisonSmoke runs the §IV-B board rows on a kernel
// with no LSM and on independent SACK.
func TestRunRISCVComparisonSmoke(t *testing.T) {
	runSmoke(t, lmbench.NoLSM, 2, []smokeConfig{
		{"no-LSM", BootBare},
		{"independent-SACK", func() (*Testbed, error) { return BootIndependentSACK(DefaultSACKPolicy) }},
	})
}

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
