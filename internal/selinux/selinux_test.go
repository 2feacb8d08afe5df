package selinux

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/sys"
	"repro/internal/vfs"
)

const tePolicy = `
# object labelling
context /etc/**            etc_t
context /etc/shadow        shadow_t
context /dev/vehicle/**    vehicle_dev_t

# domains
domain doord_t /usr/bin/doord

# access vectors
allow doord_t vehicle_dev_t read,write,ioctl
allow doord_t etc_t read
`

func newModule(t *testing.T) *SELinux {
	t.Helper()
	s := New(nil)
	if err := s.LoadPolicy(tePolicy); err != nil {
		t.Fatalf("LoadPolicy: %v", err)
	}
	return s
}

func TestTypeResolution(t *testing.T) {
	s := newModule(t)
	cases := map[string]string{
		"/etc/hosts":         "etc_t",
		"/etc/shadow":        "shadow_t", // later context wins
		"/dev/vehicle/door0": "vehicle_dev_t",
		"/tmp/anything":      "default_t",
	}
	for path, want := range cases {
		if got := s.TypeOf(path); got != want {
			t.Errorf("TypeOf(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestDomainEntryAndEnforcement(t *testing.T) {
	s := newModule(t)
	cred := sys.NewCred(0, 0)
	if got := DomainFor(cred); got != UnconfinedDomain {
		t.Fatalf("fresh domain = %q", got)
	}
	// Unconfined tasks bypass TE.
	if err := s.InodePermission(cred, "/etc/shadow", nil, sys.MayRead); err != nil {
		t.Fatalf("unconfined read: %v", err)
	}

	if err := s.BprmCheck(cred, "/usr/bin/doord", nil); err != nil {
		t.Fatal(err)
	}
	if got := DomainFor(cred); got != "doord_t" {
		t.Fatalf("domain after exec = %q", got)
	}
	// Granted vector.
	if err := s.InodePermission(cred, "/dev/vehicle/door0", nil, sys.MayRead|sys.MayWrite); err != nil {
		t.Errorf("granted AV: %v", err)
	}
	if err := s.InodePermission(cred, "/etc/hosts", nil, sys.MayRead); err != nil {
		t.Errorf("etc read: %v", err)
	}
	// shadow_t has no vector for doord_t at all.
	if err := s.InodePermission(cred, "/etc/shadow", nil, sys.MayRead); !sys.IsErrno(err, sys.EACCES) {
		t.Errorf("shadow read: %v", err)
	}
	// etc_t grants read only.
	if err := s.InodePermission(cred, "/etc/hosts", nil, sys.MayWrite); !sys.IsErrno(err, sys.EACCES) {
		t.Errorf("etc write: %v", err)
	}
	allowed, denied := s.Stats()
	if allowed != 2 || denied != 2 {
		t.Fatalf("stats = %d, %d", allowed, denied)
	}
}

func TestLoadPolicyErrors(t *testing.T) {
	cases := []string{
		"context /x",     // missing type
		"context /x[ t",  // bad glob
		"domain d_t",     // missing pattern
		"allow a b",      // missing ops
		"allow a b fly",  // unknown op
		"grant a b read", // unknown statement
	}
	for _, src := range cases {
		if err := New(nil).LoadPolicy(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestPolicyReplaceIsAtomic(t *testing.T) {
	s := newModule(t)
	cred := sys.NewCred(0, 0)
	s.BprmCheck(cred, "/usr/bin/doord", nil)
	if err := s.LoadPolicy("domain doord_t /usr/bin/doord\n"); err != nil {
		t.Fatal(err)
	}
	// All vectors gone: everything denied for the confined domain.
	if err := s.InodePermission(cred, "/etc/hosts", nil, sys.MayRead); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("post-replace read: %v", err)
	}
}

func TestDomains(t *testing.T) {
	s := newModule(t)
	if got := s.Domains(); len(got) != 1 || got[0] != "doord_t" {
		t.Fatalf("domains = %v", got)
	}
}

// TestThreeDeepStacking boots CONFIG_LSM="sack,selinux,capability" and
// verifies each layer can independently veto — the stacking ablation
// beyond the paper's two-module setup.
func TestThreeDeepStacking(t *testing.T) {
	k := kernel.New()

	const sackPolicy = `
states { normal = 0 emergency = 1 }
initial normal
permissions { DEVICE_READ DOORS }
state_per {
  normal:    DEVICE_READ
  emergency: DEVICE_READ, DOORS
}
per_rules {
  DEVICE_READ { allow read /dev/vehicle/** }
  DOORS       { allow read,write,ioctl /dev/vehicle/door* }
}
transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`
	compiled, vr, err := policy.Load(sackPolicy)
	if err != nil || !vr.OK() {
		t.Fatalf("policy: %v %v", err, vr)
	}
	sackMod, err := core.New(core.Config{Mode: core.Independent, Policy: compiled})
	if err != nil {
		t.Fatal(err)
	}
	se := New(nil)
	if err := se.LoadPolicy(tePolicy); err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(sackMod, se, lsm.NewCapability()); err != nil {
		t.Fatal(err)
	}
	if got := k.LSM.String(); got != "sack,selinux,capability" {
		t.Fatalf("stack = %q", got)
	}
	if _, err := k.RegisterDevice("/dev/vehicle/door0", 0o666, nullDev{}); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFile("/usr/bin/doord", 0o755, []byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFile("/usr/bin/rogue", 0o755, []byte("r")); err != nil {
		t.Fatal(err)
	}

	doord, _ := k.Init().Fork()
	if err := doord.Exec("/usr/bin/doord"); err != nil {
		t.Fatal(err)
	}
	rogue, _ := k.Init().Fork()
	if err := rogue.Exec("/usr/bin/rogue"); err != nil {
		t.Fatal(err)
	}

	ioctlDoor := func(task *kernel.Task) error {
		fd, err := task.Open("/dev/vehicle/door0", vfs.ORdonly, 0)
		if err != nil {
			return err
		}
		defer task.Close(fd)
		_, err = task.Ioctl(fd, 1, 0)
		return err
	}

	// Normal state: SACK vetoes first for everyone.
	if err := ioctlDoor(doord); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("normal-state doord: %v", err)
	}
	before := k.LSM.Denials("sack")

	// Emergency: SACK passes; SELinux still confines by domain —
	// doord_t has the vector, the unconfined rogue passes TE too, but a
	// confined domain without vectors is vetoed by layer two.
	sackMod.Deliver("crash_detected")
	if err := ioctlDoor(doord); err != nil {
		t.Fatalf("emergency doord: %v", err)
	}
	if err := ioctlDoor(rogue); err != nil {
		t.Fatalf("emergency unconfined rogue: %v", err)
	}
	// Confine the rogue under a domain with no vectors: now SELinux
	// denies even though SACK allows.
	if err := se.LoadPolicy(tePolicy + "\ndomain rogue_t /usr/bin/rogue\n"); err != nil {
		t.Fatal(err)
	}
	rogue2, _ := k.Init().Fork()
	if err := rogue2.Exec("/usr/bin/rogue"); err != nil {
		t.Fatal(err)
	}
	if err := ioctlDoor(rogue2); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("confined rogue in emergency: %v", err)
	}
	if k.LSM.Denials("selinux") == 0 {
		t.Fatal("selinux veto not attributed")
	}
	if k.LSM.Denials("sack") != before {
		t.Fatal("sack should not deny in emergency state")
	}
}

type nullDev struct{}

func (nullDev) ReadAt(_ *sys.Cred, b []byte, _ int64) (int, error)  { return 0, nil }
func (nullDev) WriteAt(_ *sys.Cred, d []byte, _ int64) (int, error) { return len(d), nil }
func (nullDev) Ioctl(*sys.Cred, uint64, uint64) (uint64, error)     { return 0, nil }
