package apparmor_test

import (
	"testing"

	"repro/internal/apparmor"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/sys"
)

const goldenProfiles = `
profile app /usr/bin/app {
  /srv/** r,
  deny /srv/secret/** w,
}
profile loose /usr/bin/loose flags=(complain) {
  /srv/** r,
}
`

// goldenPolicy grants the managed profile a deny rule whose permission
// letters enhanced mode renders canonically ("wi", not "iw").
const goldenPolicy = `
states {
  normal = 0
}
initial normal
permissions {
  BASE
}
state_per {
  normal: BASE
}
per_rules {
  BASE {
    allow read /srv/**
    deny ioctl,write /dev/vehicle/door*
  }
}
`

// goldenRecord is the part of an AppArmor audit record that ships in
// the decision log; Seq and When vary per run.
type goldenRecord struct {
	Module, Op, Subject, Object, Action, Detail string
}

func goldenRecords(audit *lsm.AuditLog) []goldenRecord {
	var out []goldenRecord
	for _, r := range audit.Records() {
		out = append(out, goldenRecord{r.Module, r.Op, r.Subject, r.Object, r.Action, r.Detail})
	}
	return out
}

// TestAppArmorDenialDetailGolden pins the bytes of AppArmor's denial
// and complain-mode audit records, including the rule text of an
// enhanced-mode generated rule and the record of a denial served from
// the AVC.
func TestAppArmorDenialDetailGolden(t *testing.T) {
	profiles, err := apparmor.ParseProfiles(goldenProfiles)
	if err != nil {
		t.Fatal(err)
	}
	boot := func(t *testing.T) (*lsm.AuditLog, *apparmor.AppArmor) {
		audit := lsm.NewAuditLog(0)
		aa := apparmor.New(audit)
		if err := aa.LoadProfiles(profiles); err != nil {
			t.Fatal(err)
		}
		return audit, aa
	}
	deny := func(label, path string, mask sys.Access, want ...goldenRecord) func(*testing.T) {
		return func(t *testing.T) {
			audit, aa := boot(t)
			cred := sys.NewCred(1000, 1000)
			apparmor.SetLabel(cred, label)
			for range want {
				if err := aa.InodePermission(cred, path, nil, mask); !sys.IsErrno(err, sys.EACCES) {
					t.Fatalf("InodePermission: %v, want EACCES", err)
				}
			}
			checkGolden(t, goldenRecords(audit), want)
		}
	}

	denyRule := goldenRecord{"apparmor", "inode_permission", "app", "/srv/secret/k", "DENIED",
		"mask=write deny rule deny /srv/secret/** w,"}
	t.Run("deny rule", deny("app", "/srv/secret/k", sys.MayWrite, denyRule))
	t.Run("no matching allow", deny("app", "/etc/shadow", sys.MayRead,
		goldenRecord{"apparmor", "inode_permission", "app", "/etc/shadow", "DENIED",
			"mask=read no matching allow rule"}))
	t.Run("cached repeat", deny("app", "/srv/secret/k", sys.MayWrite, denyRule, denyRule, denyRule))

	// Two deny rules match: the matcher names the first in its rank
	// order, where a literal first segment ranks before a wildcard one,
	// so "/dev/x" decides although "/**" is declared first.
	t.Run("two matching deny rules", func(t *testing.T) {
		p, err := apparmor.ParseProfile("profile two /usr/bin/two {\n  deny /** w,\n  deny /dev/x w,\n}")
		if err != nil {
			t.Fatal(err)
		}
		audit := lsm.NewAuditLog(0)
		aa := apparmor.New(audit)
		if err := aa.LoadProfile(p); err != nil {
			t.Fatal(err)
		}
		cred := sys.NewCred(1000, 1000)
		apparmor.SetLabel(cred, "two")
		if err := aa.InodePermission(cred, "/dev/x", nil, sys.MayWrite); !sys.IsErrno(err, sys.EACCES) {
			t.Fatalf("InodePermission: %v, want EACCES", err)
		}
		checkGolden(t, goldenRecords(audit), []goldenRecord{{"apparmor", "inode_permission", "two",
			"/dev/x", "DENIED", "mask=write deny rule deny /dev/x w,"}})
	})

	t.Run("complain mode", func(t *testing.T) {
		audit, aa := boot(t)
		cred := sys.NewCred(1000, 1000)
		apparmor.SetLabel(cred, "loose")
		for i := 0; i < 2; i++ {
			if err := aa.InodePermission(cred, "/etc/shadow", nil, sys.MayWrite); err != nil {
				t.Fatalf("complain mode denied: %v", err)
			}
		}
		rec := goldenRecord{"apparmor", "inode_permission", "loose", "/etc/shadow", "ALLOWED",
			"mask=write no matching allow rule (complain mode)"}
		checkGolden(t, goldenRecords(audit), []goldenRecord{rec, rec})
	})

	t.Run("enhanced generated rule", func(t *testing.T) {
		compiled, vr, err := policy.Load(goldenPolicy)
		if err != nil || !vr.OK() {
			t.Fatalf("policy: %v %v", err, vr)
		}
		audit, aa := boot(t)
		s, err := core.New(core.Config{
			Mode: core.EnhancedAppArmor, Policy: compiled, Source: goldenPolicy,
			Audit: audit, AppArmor: aa,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ManageProfile(aa.Profile("app")); err != nil {
			t.Fatal(err)
		}
		cred := sys.NewCred(1000, 1000)
		apparmor.SetLabel(cred, "app")
		if err := aa.InodePermission(cred, "/dev/vehicle/door0", nil, sys.MayIoctl); !sys.IsErrno(err, sys.EACCES) {
			t.Fatalf("InodePermission: %v, want EACCES", err)
		}
		checkGolden(t, goldenRecords(audit), []goldenRecord{{"apparmor", "inode_permission", "app",
			"/dev/vehicle/door0", "DENIED", "mask=ioctl deny rule deny /dev/vehicle/door* wi,"}})
	})
}

func checkGolden(t *testing.T, got, want []goldenRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
