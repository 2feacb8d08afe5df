package sack_test

import (
	"errors"
	"slices"
	"testing"

	sack "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lsm"
)

// lateModule is a module some code tries to register after boot.
type lateModule struct{ lsm.Base }

func (lateModule) Name() string { return "late" }

// TestEveryConfigurationBootsFrozenAndMounted: every kernel
// configuration — each paper list's, the stack depths 0–4 and a
// sack.New system in each mode — is the stack Kernel.Boot assembles. A
// late Register fails with ErrStackFrozen, and SACK's and AppArmor's
// securityfs files exist whenever the module is on the stack.
func TestEveryConfigurationBootsFrozenAndMounted(t *testing.T) {
	type booted struct {
		name string
		k    *kernel.Kernel
	}
	var all []booted
	for _, list := range []struct {
		name    string
		configs []bench.Config
	}{
		{"Table2", bench.Table2},
		{"Table3", bench.Table3},
		{"Table3Independent", bench.Table3Independent},
		{"Fig3a", bench.Fig3a},
		{"NoLSM", bench.NoLSM},
		{"StackDepths", bench.StackDepths},
	} {
		for _, c := range list.configs {
			tb, err := c.Boot()
			if err != nil {
				t.Fatalf("boot %s/%s: %v", list.name, c.Name, err)
			}
			all = append(all, booted{list.name + "/" + c.Name, tb.Kernel})
		}
	}
	for _, mode := range []core.Mode{sack.Independent, sack.EnhancedAppArmor} {
		sys, err := sack.New(bench.DefaultSACKPolicy, sack.WithMode(mode), sack.WithoutVehicle())
		if err != nil {
			t.Fatalf("sack.New(%v): %v", mode, err)
		}
		all = append(all, booted{"sack.New/" + mode.String(), sys.Kernel})
	}

	files := map[string]string{
		"sack":     "/sys/kernel/security/SACK/policy",
		"apparmor": "/sys/kernel/security/apparmor/profiles",
	}
	for _, b := range all {
		t.Run(b.name, func(t *testing.T) {
			if err := b.k.LSM.Register(lateModule{}); !errors.Is(err, lsm.ErrStackFrozen) {
				t.Errorf("late Register on %q = %v, want ErrStackFrozen", b.k.LSM, err)
			}
			for mod, file := range files {
				if !slices.Contains(b.k.LSM.Modules(), mod) {
					continue
				}
				if _, err := b.k.FS.Lookup(file); err != nil {
					t.Errorf("%s on %q but %s is missing: %v", mod, b.k.LSM, file, err)
				}
			}
		})
	}
}
