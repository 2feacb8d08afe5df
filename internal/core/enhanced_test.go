package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/apparmor"
	"repro/internal/avc"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// bootEnhanced boots CONFIG_LSM="sack,apparmor,capability" with SACK in
// enhanced mode over the given policy.
func bootEnhanced(t *testing.T, policyText string) (*kernel.Kernel, *core.SACK, *apparmor.AppArmor) {
	t.Helper()
	k := kernel.New()
	compiled, vr, err := policy.Load(policyText)
	if err != nil || !vr.OK() {
		t.Fatalf("policy: %v %v", err, vr)
	}
	aa := apparmor.New(k.Audit)
	s, err := core.New(core.Config{
		Mode: core.EnhancedAppArmor, Policy: compiled, Source: policyText,
		Audit: k.Audit, AppArmor: aa,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(s, aa, lsm.NewCapability()); err != nil {
		t.Fatal(err)
	}
	if _, err := k.RegisterDevice("/dev/vehicle/door0", 0o666, nullDevice{}); err != nil {
		t.Fatal(err)
	}
	return k, s, aa
}

// TestEnhancedModeBuildsNoAVC: in enhanced mode SACK's check never
// decides, so SACK builds no access vector cache. Transitions advance
// none, and the metrics file lists AppArmor's cache alone.
func TestEnhancedModeBuildsNoAVC(t *testing.T) {
	k, s, _ := bootEnhanced(t, casePolicy)
	for i := 0; i < 5; i++ {
		s.Deliver("crash_detected")
		s.Deliver("all_clear")
	}
	if _, _, _, hit := s.Stats(); hit != 10 {
		t.Fatalf("%d transitions, want 10", hit)
	}
	if st := s.AVCStats(); st != (avc.Stats{}) {
		t.Errorf("enhanced-mode SACK AVC = %+v, want none", st)
	}
	m := k.RenderMetrics()
	if !strings.Contains(m, "avc apparmor") || strings.Contains(m, "avc sack") {
		t.Errorf("metrics should list AppArmor's AVC alone:\n%s", m)
	}
}

func TestEnhancedModeRequiresAppArmor(t *testing.T) {
	compiled, _, err := policy.Load(casePolicy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.New(core.Config{Mode: core.EnhancedAppArmor, Policy: compiled}); err == nil {
		t.Fatal("enhanced mode without AppArmor accepted")
	}
}

func TestEnhancedHooksArePassThrough(t *testing.T) {
	k, s, _ := bootEnhanced(t, casePolicy)
	task := k.Init()
	// No managed profiles, task unconfined: everything passes even on
	// covered paths, because enhanced SACK never checks in its own hooks.
	fd, err := task.Open("/dev/vehicle/door0", vfs.ORdwr, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := task.Ioctl(fd, 1, 0); err != nil {
		t.Fatalf("ioctl: %v", err)
	}
	checks, denials, _, _ := s.Stats()
	if checks != 0 || denials != 0 {
		t.Fatalf("enhanced mode performed its own checks: %d/%d", checks, denials)
	}
}

func TestManagedProfileLifecycle(t *testing.T) {
	k, s, aa := bootEnhanced(t, casePolicy)
	base, err := apparmor.ParseProfile(`
profile svc /usr/bin/svc {
  /dev/vehicle/** r,
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := aa.LoadProfile(base); err != nil {
		t.Fatal(err)
	}
	if err := s.ManageProfile(base); err != nil {
		t.Fatal(err)
	}
	if got := s.ManagedProfiles(); len(got) != 1 || got[0] != "svc" {
		t.Fatalf("managed = %v", got)
	}

	if err := k.WriteFile("/usr/bin/svc", 0o755, []byte("s")); err != nil {
		t.Fatal(err)
	}
	svc, _ := k.Init().Fork()
	if err := svc.Exec("/usr/bin/svc"); err != nil {
		t.Fatal(err)
	}

	ioctl := func() error {
		fd, err := svc.Open("/dev/vehicle/door0", vfs.ORdonly, 0)
		if err != nil {
			return err
		}
		defer svc.Close(fd)
		_, err = svc.Ioctl(fd, 1, 0)
		return err
	}

	if err := ioctl(); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("normal state: %v", err)
	}
	s.Deliver("crash_detected")
	if err := ioctl(); err != nil {
		t.Fatalf("emergency: %v", err)
	}

	// Unmanage restores the base profile (in the current state!).
	if err := s.UnmanageProfile("svc"); err != nil {
		t.Fatal(err)
	}
	if err := ioctl(); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("after unmanage: %v", err)
	}
	if err := s.UnmanageProfile("svc"); !sys.IsErrno(err, sys.ENOENT) {
		t.Fatalf("double unmanage: %v", err)
	}
}

func TestManageProfileValidation(t *testing.T) {
	_, s, _ := bootEnhanced(t, casePolicy)
	if err := s.ManageProfile(nil); !sys.IsErrno(err, sys.EINVAL) {
		t.Fatalf("nil base: %v", err)
	}
	_, indep := bootIndependent(t, casePolicy)
	prof := &apparmor.Profile{Name: "x"}
	if err := indep.ManageProfile(prof); !sys.IsErrno(err, sys.EINVAL) {
		t.Fatalf("independent-mode manage: %v", err)
	}
}

func TestSubjectScopedRulesInEnhancedMode(t *testing.T) {
	const subjectPolicy = `
states { normal = 0 emergency = 1 }
initial normal
permissions { DOORS }
state_per { emergency: DOORS }
per_rules {
  DOORS {
    allow read,write,ioctl /dev/vehicle/door* subject /usr/bin/rescued
  }
}
transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`
	k, s, aa := bootEnhanced(t, subjectPolicy)
	mkProfile := func(name, attach string) *apparmor.Profile {
		p, err := apparmor.ParseProfile(fmt.Sprintf(
			"profile %s %s {\n  /dev/vehicle/** r,\n}", name, attach))
		if err != nil {
			t.Fatal(err)
		}
		if err := aa.LoadProfile(p); err != nil {
			t.Fatal(err)
		}
		if err := s.ManageProfile(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mkProfile("rescued", "/usr/bin/rescued")
	mkProfile("radio", "/usr/bin/radio")

	spawn := func(exe string) *kernel.Task {
		if err := k.WriteFile(exe, 0o755, []byte(exe)); err != nil {
			t.Fatal(err)
		}
		task, _ := k.Init().Fork()
		if err := task.Exec(exe); err != nil {
			t.Fatal(err)
		}
		return task
	}
	rescued := spawn("/usr/bin/rescued")
	radio := spawn("/usr/bin/radio")

	s.Deliver("crash_detected")
	ioctl := func(task *kernel.Task) error {
		fd, err := task.Open("/dev/vehicle/door0", vfs.ORdonly, 0)
		if err != nil {
			return err
		}
		defer task.Close(fd)
		_, err = task.Ioctl(fd, 1, 0)
		return err
	}
	if err := ioctl(rescued); err != nil {
		t.Fatalf("rescued in emergency: %v", err)
	}
	// The subject clause must keep the grant out of the radio profile.
	if err := ioctl(radio); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("radio in emergency: %v", err)
	}
}

func TestEnhancedPolicyReloadRegeneratesProfiles(t *testing.T) {
	k, s, aa := bootEnhanced(t, casePolicy)
	base, err := apparmor.ParseProfile("profile svc /usr/bin/svc {\n  /etc/** r,\n}")
	if err != nil {
		t.Fatal(err)
	}
	aa.LoadProfile(base)
	if err := s.ManageProfile(base); err != nil {
		t.Fatal(err)
	}
	s.Deliver("crash_detected") // emergency grants door rules

	// Reload with a policy whose emergency state grants nothing.
	const strippedPolicy = `
states { normal = 0 emergency = 1 }
initial normal
permissions { NONE_P }
state_per { normal: NONE_P }
per_rules { NONE_P { allow read /etc/** } }
transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`
	compiled, _, err := policy.Load(strippedPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReplacePolicy(compiled, strippedPolicy); err != nil {
		t.Fatal(err)
	}
	// Current state (emergency) preserved; regenerated profile must no
	// longer contain door rules.
	if s.CurrentState().Name != "emergency" {
		t.Fatalf("state = %q", s.CurrentState().Name)
	}
	prof := aa.Profile("svc")
	for _, r := range prof.Rules {
		if r.Pattern.Match("/dev/vehicle/door0") {
			t.Fatalf("stale door rule survived reload: %v", r)
		}
	}
	_ = k
}

func TestConcurrentChecksDuringTransitionStorm(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	task := k.Init()
	if err := k.WriteFile("/etc/data", 0o644, []byte("x")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Covered (device) and uncovered (/etc/data after policy?
				// /etc/** is covered by NORMAL; both paths exercise the
				// decision fast path during swaps.
				fd, err := task.Open("/etc/data", vfs.ORdonly, 0)
				if err == nil {
					task.Close(fd)
				}
				dfd, err := task.Open("/dev/vehicle/door0", vfs.ORdonly, 0)
				if err == nil {
					task.Ioctl(dfd, 1, 0)
					task.Close(dfd)
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		s.Deliver("crash_detected")
		s.Deliver("all_clear")
	}
	close(stop)
	wg.Wait()
	if _, _, in, hit := s.Stats(); in != 1000 || hit != 1000 || s.Forced() != 0 {
		t.Fatalf("events in=%d hit=%d forced=%d, want 1000 delivered transitions", in, hit, s.Forced())
	}
	if s.CurrentState().Name != "normal" {
		t.Fatalf("final state = %q", s.CurrentState().Name)
	}
}

func TestEventsFileListsHandledEvents(t *testing.T) {
	k, _ := bootIndependent(t, casePolicy)
	task := k.Init()
	data, err := task.ReadFileAll(core.EventsFile)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, ev := range []string{"crash_detected", "all_clear"} {
		if !strings.Contains(text, ev) {
			t.Errorf("events listing missing %q: %q", ev, text)
		}
	}
}
