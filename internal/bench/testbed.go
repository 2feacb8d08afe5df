// Package bench holds the evaluation testbeds of the paper: bootable
// kernel configurations (no LSM, capability-only, AppArmor baseline,
// SACK-enhanced AppArmor, independent SACK, stack depths), the lists of
// them each paper table compares, and the synthetic policy generators
// of §IV. Each configuration is a module list handed to Kernel.Boot, so
// every testbed is the frozen, fully mounted stack a booted system has.
// bench_test.go runs the paper's rows on them; perfbench and the tests
// boot them too.
package bench

import (
	"fmt"

	"repro/internal/apparmor"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/selinux"
)

// Testbed is one booted kernel configuration.
type Testbed struct {
	Name     string
	Kernel   *kernel.Kernel
	AppArmor *apparmor.AppArmor // nil when absent
	SACK     *core.SACK         // nil when absent
}

// Config is one configuration a paper table compares: the column name
// its benchmark cells report and the boot that assembles it.
type Config struct {
	Name string
	Boot func() (*Testbed, error)
}

// The paper's configuration lists, each written once. bench_test.go
// runs its rows on them; the smoke and boot tests walk them.
var (
	// Table2 is Table II: the AppArmor baseline, SACK-enhanced AppArmor
	// and independent SACK, both SACKs on the Fig. 1 policy.
	Table2 = []Config{
		{"AppArmor-baseline", BootBaselineAppArmor},
		{"SACK-enhanced", func() (*Testbed, error) { return BootSACKEnhanced(DefaultSACKPolicy) }},
		{"independent-SACK", func() (*Testbed, error) { return BootIndependentSACK(DefaultSACKPolicy) }},
	}
	// Table3 is Table III: AppArmor holding 0 (the baseline) to 1000
	// SACK-generated rules.
	Table3 = sweep("rules-%d", table3Rules, BootAppArmorWithSACKRules)
	// Table3Independent is Table III's harder variant: the rules live in
	// independent SACK, and rules-0 is the capability-only kernel.
	Table3Independent = sweep("rules-%d", table3Rules, func(n int) (*Testbed, error) {
		if n == 0 {
			return BootCapabilityOnly()
		}
		return BootIndependentSACK(GenRulesPolicy(n))
	})
	// Fig3a is Fig. 3(a): the capability-only baseline and independent
	// SACK with 1 to 100 situation states.
	Fig3a = append([]Config{{"baseline", BootCapabilityOnly}},
		sweep("states-%d", []int{1, 10, 25, 50, 100}, func(n int) (*Testbed, error) {
			return BootIndependentSACK(GenStatesPolicy(n))
		})...)
	// NoLSM is §IV-B's board comparison: no LSM framework at all against
	// independent SACK.
	NoLSM = []Config{
		{"no-LSM", BootBare},
		{"independent-SACK", func() (*Testbed, error) { return BootIndependentSACK(DefaultSACKPolicy) }},
	}
	// StackDepths is the stacking ablation, depth-0 to depth-4 (see
	// BootStackDepth).
	StackDepths = sweep("depth-%d", []int{0, 1, 2, 3, 4}, BootStackDepth)
)

// table3Rules is the rule counts Table III sweeps.
var table3Rules = []int{0, 10, 100, 500, 1000}

// sweep names one configuration per n after format.
func sweep(format string, ns []int, boot func(n int) (*Testbed, error)) []Config {
	cs := make([]Config, len(ns))
	for i, n := range ns {
		cs[i] = Config{fmt.Sprintf(format, n), func() (*Testbed, error) { return boot(n) }}
	}
	return cs
}

// defaultAppArmorProfiles models the "Ubuntu 20.04 default AppArmor
// policies" of §IV-D: a handful of profiles confining system daemons that
// are not part of the benchmark workload, so the bench task itself runs
// unconfined — exactly the situation on a stock install.
const defaultAppArmorProfiles = `
profile /usr/sbin/tcpdump {
  /usr/sbin/tcpdump r,
  /etc/protocols r,
  /tmp/** rw,
}
profile /usr/sbin/cups-browsed {
  /etc/cups/** r,
  /var/log/cups/** rw,
}
profile /usr/bin/man {
  /usr/share/man/** r,
  /tmp/man* rwcd,
}
profile /usr/sbin/ntpd {
  /etc/ntp.conf r,
  /var/lib/ntp/** rw,
}
`

// DefaultSACKPolicy is the Fig. 1 example policy: emergency-gated door
// and window control over a normal baseline.
const DefaultSACKPolicy = `
states {
  normal = 0
  emergency = 1
}

initial normal

permissions {
  NORMAL
  CONTROL_CAR_DOORS
}

state_per {
  normal:    NORMAL
  emergency: NORMAL, CONTROL_CAR_DOORS
}

per_rules {
  NORMAL {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door*
    allow read,write,ioctl /dev/vehicle/window*
  }
}

transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`

// boot assembles a testbed: a fresh kernel booted with mods in
// CONFIG_LSM order.
func boot(name string, mods ...lsm.Module) (*Testbed, error) {
	tb := &Testbed{Name: name, Kernel: kernel.New()}
	for _, m := range mods {
		switch m := m.(type) {
		case *apparmor.AppArmor:
			tb.AppArmor = m
		case *core.SACK:
			tb.SACK = m
		}
	}
	if err := tb.Kernel.Boot(mods...); err != nil {
		return nil, err
	}
	return tb, nil
}

// defaultAppArmor builds an AppArmor module holding the default
// profiles, audit off for benchmarking.
func defaultAppArmor() (*apparmor.AppArmor, error) {
	aa := apparmor.New(nil)
	profiles, err := apparmor.ParseProfiles(defaultAppArmorProfiles)
	if err != nil {
		return nil, fmt.Errorf("bench: default profiles: %w", err)
	}
	if err := aa.LoadProfiles(profiles); err != nil {
		return nil, err
	}
	return aa, nil
}

// newSACK compiles policyText and builds a SACK module over it, audit
// off; cfg supplies the mode and its substrate.
func newSACK(policyText string, cfg core.Config) (*core.SACK, error) {
	compiled, vr, err := policy.Load(policyText)
	if err != nil {
		return nil, fmt.Errorf("bench: SACK policy: %w", err)
	}
	if !vr.OK() {
		return nil, fmt.Errorf("bench: SACK policy invalid: %v", vr.Errors())
	}
	cfg.Policy, cfg.Source = compiled, policyText
	return core.New(cfg)
}

// BootBare boots a kernel with no LSM framework at all (the RISC-V
// comparison point in §IV-B: "the original system without LSM").
func BootBare() (*Testbed, error) { return boot("no-LSM") }

// BootCapabilityOnly boots a kernel with just the capability module —
// the minimal LSM-enabled baseline.
func BootCapabilityOnly() (*Testbed, error) {
	return boot("capability-only", lsm.NewCapability())
}

// BootBaselineAppArmor boots the Table II baseline: AppArmor with default
// profiles plus the capability module.
func BootBaselineAppArmor() (*Testbed, error) {
	aa, err := defaultAppArmor()
	if err != nil {
		return nil, err
	}
	return boot("AppArmor (baseline)", aa, lsm.NewCapability())
}

// BootSACKEnhanced boots CONFIG_LSM="SACK,AppArmor,capability" with SACK
// in enhanced mode rewriting AppArmor.
func BootSACKEnhanced(policyText string) (*Testbed, error) {
	return bootEnhanced(policyText)
}

// bootEnhanced boots SACK in enhanced mode over the default AppArmor
// profiles, with between stacked after SACK and before AppArmor.
func bootEnhanced(policyText string, between ...lsm.Module) (*Testbed, error) {
	aa, err := defaultAppArmor()
	if err != nil {
		return nil, err
	}
	s, err := newSACK(policyText, core.Config{Mode: core.EnhancedAppArmor, AppArmor: aa})
	if err != nil {
		return nil, err
	}
	mods := append(append([]lsm.Module{s}, between...), aa, lsm.NewCapability())
	return boot("SACK-enhanced AppArmor", mods...)
}

// BootIndependentSACK boots CONFIG_LSM="SACK,capability" with SACK
// enforcing its own policies.
func BootIndependentSACK(policyText string) (*Testbed, error) {
	return bootIndependent(policyText, false)
}

// BootIndependentSACKNoAVC boots the same configuration with the access
// vector cache disabled — the ablation point for the AVC benchmarks.
func BootIndependentSACKNoAVC(policyText string) (*Testbed, error) {
	return bootIndependent(policyText, true)
}

func bootIndependent(policyText string, disableAVC bool) (*Testbed, error) {
	s, err := newSACK(policyText, core.Config{Mode: core.Independent, DisableAVC: disableAVC})
	if err != nil {
		return nil, err
	}
	name := "Independent SACK"
	if disableAVC {
		name = "Independent SACK (no AVC)"
	}
	return boot(name, s, lsm.NewCapability())
}

// BootAppArmorWithSACKRules boots the Table III configuration: AppArmor
// with default profiles plus a SACK (enhanced) carrying n synthetic
// situation policies.
func BootAppArmorWithSACKRules(n int) (*Testbed, error) {
	if n == 0 {
		tb, err := BootBaselineAppArmor()
		if err != nil {
			return nil, err
		}
		tb.Name = "0 (baseline)"
		return tb, nil
	}
	tb, err := BootSACKEnhanced(GenRulesPolicy(n))
	if err != nil {
		return nil, err
	}
	tb.Name = fmt.Sprintf("%d", n)
	return tb, nil
}

// selinuxBenchPolicy confines nothing the benchmark touches; it exists so
// the module has a realistic policy database loaded.
const selinuxBenchPolicy = `
context /etc/**          etc_t
context /dev/vehicle/**  vehicle_dev_t
domain doord_t /usr/bin/doord
allow doord_t vehicle_dev_t read,write,ioctl
allow doord_t etc_t read
`

// BootStackDepth boots kernels with progressively deeper LSM stacks,
// the ablation behind the "cost of one more module" question. Depths 1
// to 3 are the Table II boots:
//
//	0: no LSM framework at all
//	1: capability
//	2: apparmor,capability                 (the AppArmor baseline)
//	3: sack,apparmor,capability            (SACK-enhanced, the paper's configuration)
//	4: sack,selinux,apparmor,capability
func BootStackDepth(depth int) (*Testbed, error) {
	var tb *Testbed
	var err error
	switch {
	case depth <= 0:
		tb, err = BootBare()
	case depth == 1:
		tb, err = BootCapabilityOnly()
	case depth == 2:
		tb, err = BootBaselineAppArmor()
	case depth == 3:
		tb, err = BootSACKEnhanced(DefaultSACKPolicy)
	default:
		se := selinux.New(nil)
		if err := se.LoadPolicy(selinuxBenchPolicy); err != nil {
			return nil, err
		}
		tb, err = bootEnhanced(DefaultSACKPolicy, se)
	}
	if err != nil {
		return nil, err
	}
	tb.Name = fmt.Sprintf("depth-%d", depth)
	return tb, nil
}
