// Package bench holds the evaluation testbeds of the paper: bootable
// kernel configurations (no LSM, capability-only, AppArmor baseline,
// SACK-enhanced AppArmor, independent SACK, stack depths) and the
// synthetic policy generators of §IV. bench_test.go runs the paper's
// rows on them; perfbench and the tests boot them too.
package bench

import (
	"fmt"

	"repro/internal/apparmor"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/policy"
)

// Testbed is one booted kernel configuration.
type Testbed struct {
	Name     string
	Kernel   *kernel.Kernel
	AppArmor *apparmor.AppArmor // nil when absent
	SACK     *core.SACK         // nil when absent
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

// BootBare boots a kernel with no LSM framework at all (the RISC-V
// comparison point in §IV-B: "the original system without LSM").
func BootBare() (*Testbed, error) {
	k := kernel.New()
	return &Testbed{Name: "no-LSM", Kernel: k}, nil
}

// BootCapabilityOnly boots a kernel with just the capability module —
// the minimal LSM-enabled baseline.
func BootCapabilityOnly() (*Testbed, error) {
	k := kernel.New()
	if err := k.RegisterLSM(lsm.NewCapability()); err != nil {
		return nil, err
	}
	return &Testbed{Name: "capability-only", Kernel: k}, nil
}

// BootBaselineAppArmor boots the Table II baseline: AppArmor with default
// profiles plus the capability module.
func BootBaselineAppArmor() (*Testbed, error) {
	k := kernel.New()
	aa := apparmor.New(nil) // audit off for benchmarking
	profiles, err := apparmor.ParseProfiles(defaultAppArmorProfiles)
	if err != nil {
		return nil, fmt.Errorf("bench: default profiles: %w", err)
	}
	if err := aa.LoadProfiles(profiles); err != nil {
		return nil, err
	}
	if err := k.RegisterLSM(aa); err != nil {
		return nil, err
	}
	if err := k.RegisterLSM(lsm.NewCapability()); err != nil {
		return nil, err
	}
	if err := aa.RegisterSecurityFS(k.SecFS); err != nil {
		return nil, err
	}
	return &Testbed{Name: "AppArmor (baseline)", Kernel: k, AppArmor: aa}, nil
}

// BootSACKEnhanced boots CONFIG_LSM="SACK,AppArmor,capability" with SACK
// in enhanced mode rewriting AppArmor.
func BootSACKEnhanced(policyText string) (*Testbed, error) {
	k := kernel.New()
	aa := apparmor.New(nil)
	profiles, err := apparmor.ParseProfiles(defaultAppArmorProfiles)
	if err != nil {
		return nil, err
	}
	if err := aa.LoadProfiles(profiles); err != nil {
		return nil, err
	}
	compiled, vr, err := policy.Load(policyText)
	if err != nil {
		return nil, fmt.Errorf("bench: SACK policy: %w", err)
	}
	if !vr.OK() {
		return nil, fmt.Errorf("bench: SACK policy invalid: %v", vr.Errors())
	}
	s, err := core.New(core.Config{
		Mode: core.EnhancedAppArmor, Policy: compiled, Source: policyText, AppArmor: aa,
	})
	if err != nil {
		return nil, err
	}
	if err := k.RegisterLSM(s); err != nil {
		return nil, err
	}
	if err := k.RegisterLSM(aa); err != nil {
		return nil, err
	}
	if err := k.RegisterLSM(lsm.NewCapability()); err != nil {
		return nil, err
	}
	if err := s.RegisterSecurityFS(k.SecFS); err != nil {
		return nil, err
	}
	if err := aa.RegisterSecurityFS(k.SecFS); err != nil {
		return nil, err
	}
	return &Testbed{Name: "SACK-enhanced AppArmor", Kernel: k, AppArmor: aa, SACK: s}, nil
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
	k := kernel.New()
	compiled, vr, err := policy.Load(policyText)
	if err != nil {
		return nil, fmt.Errorf("bench: SACK policy: %w", err)
	}
	if !vr.OK() {
		return nil, fmt.Errorf("bench: SACK policy invalid: %v", vr.Errors())
	}
	s, err := core.New(core.Config{
		Mode: core.Independent, Policy: compiled, Source: policyText,
		DisableAVC: disableAVC,
	})
	if err != nil {
		return nil, err
	}
	if err := k.RegisterLSM(s); err != nil {
		return nil, err
	}
	if err := k.RegisterLSM(lsm.NewCapability()); err != nil {
		return nil, err
	}
	if err := s.RegisterSecurityFS(k.SecFS); err != nil {
		return nil, err
	}
	name := "Independent SACK"
	if disableAVC {
		name = "Independent SACK (no AVC)"
	}
	return &Testbed{Name: name, Kernel: k, SACK: s}, nil
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
