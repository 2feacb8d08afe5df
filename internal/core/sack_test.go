package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/apparmor"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// casePolicy is the paper's Fig. 1 / case-study policy: door and window
// control only in the emergency state.
const casePolicy = `
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
    allow read /etc/**
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

// nullDevice is a do-nothing device handler for hook-path tests.
type nullDevice struct{}

func (nullDevice) ReadAt(_ *sys.Cred, buf []byte, _ int64) (int, error) { return 0, nil }
func (nullDevice) WriteAt(_ *sys.Cred, data []byte, _ int64) (int, error) {
	return len(data), nil
}
func (nullDevice) Ioctl(*sys.Cred, uint64, uint64) (uint64, error) { return 0, nil }

// bootIndependent boots a kernel with independent SACK (first) and the
// capability module, the paper's CONFIG_LSM="SACK,..." order.
func bootIndependent(t *testing.T, policyText string) (*kernel.Kernel, *core.SACK) {
	t.Helper()
	return bootIndependentCfg(t, policyText, false)
}

// bootIndependentNoAVC is bootIndependent with the access vector cache
// ablated.
func bootIndependentNoAVC(t *testing.T, policyText string) (*kernel.Kernel, *core.SACK) {
	t.Helper()
	return bootIndependentCfg(t, policyText, true)
}

func bootIndependentCfg(t *testing.T, policyText string, disableAVC bool) (*kernel.Kernel, *core.SACK) {
	t.Helper()
	k := kernel.New()
	compiled, vr, err := policy.Load(policyText)
	if err != nil {
		t.Fatalf("policy.Load: %v", err)
	}
	if !vr.OK() {
		t.Fatalf("policy has errors: %v", vr.Errors())
	}
	s, err := core.New(core.Config{
		Mode: core.Independent, Policy: compiled, Source: policyText,
		Audit: k.Audit, DisableAVC: disableAVC,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	if err := k.Boot(s, lsm.NewCapability()); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if _, err := k.RegisterDevice("/dev/vehicle/door0", 0o666, nullDevice{}); err != nil {
		t.Fatalf("RegisterDevice: %v", err)
	}
	return k, s
}

func TestIndependentSACKDeniesDoorInNormalState(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	task := k.Init()

	// Reading the device is fine in the normal state; control is not.
	roFD, err := task.Open("/dev/vehicle/door0", vfs.ORdonly, 0)
	if err != nil {
		t.Fatalf("read-only open of door device: %v", err)
	}
	if _, err := task.Ioctl(roFD, 1, 0); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("ioctl in normal state: want EACCES, got %v", err)
	}
	if _, err := task.Open("/dev/vehicle/door0", vfs.ORdwr, 0); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("read-write open in normal state: want EACCES, got %v", err)
	}

	// Crash: transition to emergency via the SSM.
	if err := s.Deliver("crash_detected"); err != nil || s.CurrentState().Name != "emergency" {
		t.Fatalf("crash_detected should transition to emergency, got err=%v state=%s", err, s.CurrentState().Name)
	}
	if _, err := task.Ioctl(roFD, 1, 0); err != nil {
		t.Fatalf("ioctl in emergency state: %v", err)
	}
	rwFD, err := task.Open("/dev/vehicle/door0", vfs.ORdwr, 0)
	if err != nil {
		t.Fatalf("read-write open in emergency: %v", err)
	}
	if _, err := task.Write(rwFD, []byte{1}); err != nil {
		t.Fatalf("write in emergency state: %v", err)
	}

	// Recovery: back to normal; even already-open descriptors lose the
	// permissions (FilePermission re-checks every I/O).
	if err := s.Deliver("all_clear"); err != nil || s.CurrentState().Name != "normal" {
		t.Fatalf("all_clear should transition to normal, got err=%v state=%s", err, s.CurrentState().Name)
	}
	if _, err := task.Ioctl(roFD, 1, 0); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("ioctl after all_clear: want EACCES, got %v", err)
	}
	if _, err := task.Write(rwFD, []byte{1}); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("write on open fd after all_clear: want EACCES, got %v", err)
	}
}

func TestEventsDeliveredThroughSACKfs(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	task := k.Init() // root: has CAP_MAC_ADMIN

	if err := task.WriteFileAll(core.EventsFile, []byte("crash_detected\n"), 0); err != nil {
		t.Fatalf("write events file: %v", err)
	}
	if got := s.CurrentState().Name; got != "emergency" {
		t.Fatalf("state after crash event = %q, want emergency", got)
	}

	// The state file reflects the transition.
	data, err := task.ReadFileAll(core.StateFile)
	if err != nil {
		t.Fatalf("read state file: %v", err)
	}
	if !strings.HasPrefix(string(data), "emergency") {
		t.Fatalf("state file = %q, want emergency prefix", data)
	}
}

func TestEventsFileRequiresMACAdmin(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	root := k.Init()
	attacker, err := root.Fork()
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if err := attacker.SetUID(1000, 1000); err != nil {
		t.Fatalf("setuid: %v", err)
	}

	// Unprivileged open of the 0600 events file fails at DAC already.
	if _, err := attacker.Open(core.EventsFile, vfs.OWronly, 0); err == nil {
		t.Fatal("unprivileged open of events file should fail")
	}

	// Even a leaked descriptor cannot inject events without CAP_MAC_ADMIN:
	// the handler checks the writer's credentials.
	fd, err := root.Open(core.EventsFile, vfs.OWronly, 0)
	if err != nil {
		t.Fatalf("root open events: %v", err)
	}
	leaked, err := root.Fork()
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if err := leaked.SetUID(1000, 1000); err != nil {
		t.Fatalf("setuid: %v", err)
	}
	if _, err := leaked.Write(fd, []byte("crash_detected\n")); !sys.IsErrno(err, sys.EPERM) {
		t.Fatalf("event injection via leaked fd: want EPERM, got %v", err)
	}
	if got := s.CurrentState().Name; got != "normal" {
		t.Fatalf("state = %q after failed injection, want normal", got)
	}
}

func TestUncoveredPathsPassThrough(t *testing.T) {
	k, _ := bootIndependent(t, casePolicy)
	task := k.Init()
	if err := task.WriteFileAll("/tmp/scratch", []byte("hello"), 0o644); err != nil {
		t.Fatalf("write uncovered path: %v", err)
	}
	got, err := task.ReadFileAll("/tmp/scratch")
	if err != nil || string(got) != "hello" {
		t.Fatalf("read uncovered path: %q, %v", got, err)
	}
}

func TestEnhancedAppArmorProfileRewrite(t *testing.T) {
	k := kernel.New()
	compiled, _, err := policy.Load(casePolicy)
	if err != nil {
		t.Fatalf("policy.Load: %v", err)
	}
	aa := apparmor.New(k.Audit)
	s, err := core.New(core.Config{
		Mode: core.EnhancedAppArmor, Policy: compiled, Source: casePolicy,
		Audit: k.Audit, AppArmor: aa,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	// CONFIG_LSM="SACK,AppArmor": SACK first.
	if err := k.Boot(s, aa); err != nil {
		t.Fatal(err)
	}
	if _, err := k.RegisterDevice("/dev/vehicle/door0", 0o666, nullDevice{}); err != nil {
		t.Fatal(err)
	}

	// The rescue daemon's base profile: may read /etc, nothing on doors.
	base, err := apparmor.ParseProfile(`
profile rescued /usr/bin/rescued {
  /etc/** r,
  /dev/vehicle/** r,
}`)
	if err != nil {
		t.Fatalf("parse base profile: %v", err)
	}
	if err := aa.LoadProfile(base); err != nil {
		t.Fatal(err)
	}
	if err := s.ManageProfile(base); err != nil {
		t.Fatalf("ManageProfile: %v", err)
	}

	// Exec the rescue daemon to attach its profile.
	if err := k.WriteFile("/usr/bin/rescued", 0o755, []byte("#!rescued")); err != nil {
		t.Fatal(err)
	}
	task := k.Init()
	daemon, err := task.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Exec("/usr/bin/rescued"); err != nil {
		t.Fatalf("exec rescued: %v", err)
	}

	fd, err := daemon.Open("/dev/vehicle/door0", vfs.ORdwr, 0)
	if !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("confined open of door in normal state: want EACCES, got fd=%d err=%v", fd, err)
	}

	// Crash: SACK rewrites the AppArmor profile; the daemon can now act.
	s.Deliver("crash_detected")
	fd, err = daemon.Open("/dev/vehicle/door0", vfs.ORdwr, 0)
	if err != nil {
		t.Fatalf("open door in emergency: %v", err)
	}
	if _, err := daemon.Ioctl(fd, 2 /* DOOR_UNLOCK */, 0); err != nil {
		t.Fatalf("ioctl door in emergency: %v", err)
	}

	// And back.
	s.Deliver("all_clear")
	if _, err := daemon.Ioctl(fd, 2, 0); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("ioctl door after all_clear: want EACCES, got %v", err)
	}
}

func TestPolicyReloadKeepsCurrentState(t *testing.T) {
	_, s := bootIndependent(t, casePolicy)
	s.Deliver("crash_detected")
	if s.CurrentState().Name != "emergency" {
		t.Fatal("setup: expected emergency")
	}
	compiled, _, err := policy.Load(casePolicy)
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.ReplacePolicy(compiled, casePolicy)
	if err != nil {
		t.Fatalf("ReplacePolicy: %v", err)
	}
	if !report.Empty() {
		t.Fatalf("identical policy diff = %v", report.Changes)
	}
	if got := s.CurrentState().Name; got != "emergency" {
		t.Fatalf("state after reload = %q, want emergency preserved", got)
	}
}

func TestSSMIgnoresUnmatchedEvents(t *testing.T) {
	_, s := bootIndependent(t, casePolicy)
	if err := s.Deliver("all_clear"); err != nil {
		t.Fatalf("all_clear in normal state: %v", err)
	}
	if err := s.Deliver("no_such_event"); !errors.Is(err, core.ErrUnknownEvent) {
		t.Fatalf("unknown event: %v, want ErrUnknownEvent", err)
	}
	if _, _, _, hit := s.Stats(); hit != 0 {
		t.Fatalf("events_transitioned = %d, want 0", hit)
	}
	if got := s.CurrentState().Name; got != "normal" {
		t.Fatalf("state = %q, want normal", got)
	}
	if _, _, in, hit := s.Stats(); in-hit != 2 {
		t.Fatalf("ignored = %d, want 2", in-hit)
	}
}

func TestSubjectScopedRules(t *testing.T) {
	const subjectPolicy = `
states { low, high }
initial low
permissions { SPEED_GATED }
state_per {
  low: SPEED_GATED
}
per_rules {
  SPEED_GATED {
    allow read /etc/critical.conf subject /usr/bin/navd
  }
}
transitions {
  low -> high on speed_high
  high -> low on speed_low
}
`
	k, _ := bootIndependent(t, subjectPolicy)
	root := k.Init()
	if err := k.WriteFile("/etc/critical.conf", 0o644, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFile("/usr/bin/navd", 0o755, []byte("navd")); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFile("/usr/bin/other", 0o755, []byte("other")); err != nil {
		t.Fatal(err)
	}

	navd, _ := root.Fork()
	if err := navd.Exec("/usr/bin/navd"); err != nil {
		t.Fatal(err)
	}
	other, _ := root.Fork()
	if err := other.Exec("/usr/bin/other"); err != nil {
		t.Fatal(err)
	}

	if _, err := navd.ReadFileAll("/etc/critical.conf"); err != nil {
		t.Fatalf("navd read in low state: %v", err)
	}
	if _, err := other.ReadFileAll("/etc/critical.conf"); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("other subject read: want EACCES, got %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	task := k.Init()
	fd, err := task.Open("/dev/vehicle/door0", vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	task.Ioctl(fd, 1, 0) // denied
	s.Deliver("crash_detected")
	task.Ioctl(fd, 1, 0) // allowed

	checks, denials, eventsIn, eventsHit := s.Stats()
	if checks < 2 {
		t.Fatalf("checks = %d, want >= 2", checks)
	}
	if denials < 1 {
		t.Fatalf("denials = %d, want >= 1", denials)
	}
	if eventsIn != 1 || eventsHit != 1 {
		t.Fatalf("events = (%d,%d), want (1,1)", eventsIn, eventsHit)
	}

	data, err := task.ReadFileAll(core.StatsFile)
	if err != nil {
		t.Fatalf("read stats: %v", err)
	}
	if !strings.Contains(string(data), "mode: independent SACK") {
		t.Fatalf("stats output missing mode: %q", data)
	}
}

func TestExecGatedOnSituationState(t *testing.T) {
	// Workshop-mode style policy: the flash tool may only execute in the
	// workshop state.
	const execPolicy = `
states { road = 0 workshop = 1 }
initial road
permissions { BASE FLASH }
state_per {
  road:     BASE
  workshop: BASE, FLASH
}
per_rules {
  BASE  { allow read /etc/** }
  FLASH { allow read,exec /opt/flashtool }
}
transitions {
  road -> workshop on workshop_auth
  workshop -> road on workshop_done
}
`
	k, s := bootIndependent(t, execPolicy)
	if err := k.WriteFile("/opt/flashtool", 0o755, []byte("#!flash")); err != nil {
		t.Fatal(err)
	}
	task, _ := k.Init().Fork()

	// Road state: the binary is covered, exec not granted.
	if err := task.Exec("/opt/flashtool"); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("exec on the road: %v", err)
	}
	s.Deliver("workshop_auth")
	if err := task.Exec("/opt/flashtool"); err != nil {
		t.Fatalf("exec in workshop: %v", err)
	}
	// The SACK subject label follows the exec.
	if got := core.Subject(task.Cred); got != "/opt/flashtool" {
		t.Fatalf("subject label = %v", got)
	}
	s.Deliver("workshop_done")
	if err := task.Exec("/opt/flashtool"); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("exec after workshop: %v", err)
	}
}

func TestCreateAndUnlinkGatedOnState(t *testing.T) {
	const fsPolicy = `
states { locked = 0 open = 1 }
initial locked
permissions { STAGING }
state_per { open: STAGING }
per_rules {
  STAGING { allow read,write,create,unlink /var/staging/** }
}
transitions {
  locked -> open on update_approved
  open -> locked on update_finished
}
`
	k, s := bootIndependent(t, fsPolicy)
	if _, err := k.FS.MkdirAll("/var/staging", 0o777, 0, 0); err != nil {
		t.Fatal(err)
	}
	task := k.Init()

	if err := task.WriteFileAll("/var/staging/pkg", []byte("x"), 0o644); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("create while locked: %v", err)
	}
	s.Deliver("update_approved")
	if err := task.WriteFileAll("/var/staging/pkg", []byte("x"), 0o644); err != nil {
		t.Fatalf("create while open: %v", err)
	}
	s.Deliver("update_finished")
	if err := task.Unlink("/var/staging/pkg"); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("unlink while locked: %v", err)
	}
	s.Deliver("update_approved")
	if err := task.Unlink("/var/staging/pkg"); err != nil {
		t.Fatalf("unlink while open: %v", err)
	}
}

func TestMmapGatedOnState(t *testing.T) {
	const mmapPolicy = `
states { deny_maps = 0 allow_maps = 1 }
initial deny_maps
permissions { MAPS }
state_per {
  deny_maps:  MAPS
  allow_maps: MAPS
}
per_rules {
  MAPS { allow read /srv/blob.bin }
}
transitions {
  deny_maps -> allow_maps on maps_on
  allow_maps -> deny_maps on maps_off
}
`
	// Note: read is granted in both states but mmap in neither — the
	// mmap hook must still deny while plain reads pass.
	k, _ := bootIndependent(t, mmapPolicy)
	if err := k.WriteFile("/srv/blob.bin", 0o644, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	task := k.Init()
	fd, err := task.Open("/srv/blob.bin", vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := task.Pread(fd, buf, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if _, err := task.Mmap(fd, 4096, sys.MayRead); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("mmap without grant: %v", err)
	}
}

func TestRenameCannotLaunderCoveredPaths(t *testing.T) {
	// Path-based MAC laundering attempt: move a covered file to an
	// uncovered name to escape its rules. The rename dies at the unlink
	// hook because the covered path grants no unlink permission.
	const launderPolicy = `
states { s }
initial s
permissions { P }
state_per { s: P }
per_rules {
  P { allow read /etc/protected/** }
}
`
	k, _ := bootIndependent(t, launderPolicy)
	if err := k.WriteFile("/etc/protected/secret.conf", 0o666, []byte("s")); err != nil {
		t.Fatal(err)
	}
	task := k.Init()
	if err := task.Rename("/etc/protected/secret.conf", "/tmp/laundered"); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("laundering rename: %v", err)
	}
	if !k.FS.Exists("/etc/protected/secret.conf") {
		t.Fatal("protected file moved")
	}
	// Renaming INTO a covered namespace is equally gated (create bit).
	if err := task.WriteFileAll("/tmp/payload", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := task.Rename("/tmp/payload", "/etc/protected/planted"); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("planting rename: %v", err)
	}
}
