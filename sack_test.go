package sack_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	sack "repro"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/trace"
	"repro/internal/vehicle"
	"repro/policies"
)

const basicPolicy = `
states {
  normal = 0
  emergency = 1
}
initial normal
permissions {
  DEVICE_READ
  CONTROL_CAR_DOORS
}
state_per {
  normal:    DEVICE_READ
  emergency: DEVICE_READ, CONTROL_CAR_DOORS
}
per_rules {
  DEVICE_READ {
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

func TestNewValidation(t *testing.T) {
	if _, err := sack.New(""); err == nil {
		t.Fatal("empty policy accepted")
	}
	if _, err := sack.New("states {"); err == nil {
		t.Fatal("syntax error accepted")
	}
	if _, err := sack.New("states { a a }"); err == nil {
		t.Fatal("validation error accepted")
	}
}

func TestPublicAPIPolicyHelpers(t *testing.T) {
	compiled, vr, err := sack.Compile(basicPolicy)
	if err != nil || !vr.OK() {
		t.Fatalf("Compile: %v %v", err, vr)
	}
	if compiled.Initial != "normal" {
		t.Errorf("initial = %q", compiled.Initial)
	}
	vr2, err := sack.CheckPolicy(basicPolicy)
	if err != nil || !vr2.OK() {
		t.Fatalf("CheckPolicy: %v", err)
	}
	profiles, err := sack.ParseProfiles("profile x /bin/x {\n /y r,\n}")
	if err != nil || len(profiles) != 1 {
		t.Fatalf("ParseProfiles: %v", err)
	}
}

func TestFullPipelineSDSToEnforcement(t *testing.T) {
	sys, err := sack.New(basicPolicy)
	if err != nil {
		t.Fatal(err)
	}
	root := sys.Kernel.Init()
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	service, err := sys.NewSDS(root, clock, sds.CrashDetector(8.0))
	if err != nil {
		t.Fatal(err)
	}

	// Drive the crash trace: sensors -> detector -> SACKfs -> SSM -> APE.
	events, err := trace.Replay(trace.CityDriveWithCrash(), clock, sys.Vehicle.Dynamics, service)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range events {
		if ev == "crash_detected" {
			found = true
		}
	}
	if !found {
		t.Fatalf("crash not detected; events = %v", events)
	}
	if sys.CurrentState().Name != "emergency" {
		t.Fatalf("state = %q", sys.CurrentState().Name)
	}

	// Enforcement follows: the door unlocks via ioctl now.
	fd, err := root.Open("/dev/vehicle/door0", sack.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Ioctl(fd, vehicle.IoctlDoorUnlock, 0); err != nil {
		t.Fatal(err)
	}
	if sys.Vehicle.Doors[0].State() != vehicle.DoorUnlocked {
		t.Fatal("door did not actuate")
	}
}

// TestCompatibilityMatrix reproduces §IV-D (Q3): ten distinct SACK
// policies, each deployed in both prototypes over the default AppArmor
// profiles, all coexisting with AppArmor untouched for unrelated paths.
func TestCompatibilityMatrix(t *testing.T) {
	aaProfiles := `
profile /usr/sbin/tcpdump {
  /usr/sbin/tcpdump r,
  /etc/protocols r,
}
profile guarded /usr/bin/guarded {
  /var/guarded/** rw,
}
`
	makePolicy := func(i int) string {
		return fmt.Sprintf(`
states { idle = 0 active = 1 }
initial idle
permissions { P%d }
state_per { active: P%d }
per_rules {
  P%d {
    allow read,write /srv/app%d/**
  }
}
transitions {
  idle -> active on go%d
  active -> idle on stop%d
}
`, i, i, i, i, i, i)
	}

	for i := 0; i < 10; i++ {
		for _, mode := range []struct {
			name string
			m    int
		}{{"independent", 0}, {"enhanced", 1}} {
			name := fmt.Sprintf("policy-%d/%s", i, mode.name)
			t.Run(name, func(t *testing.T) {
				m := sack.Independent
				if mode.m == 1 {
					m = sack.EnhancedAppArmor
				}
				sys, err := sack.New(makePolicy(i),
					sack.WithMode(m),
					sack.WithAppArmorProfiles(aaProfiles),
					sack.WithoutVehicle(),
				)
				if err != nil {
					t.Fatalf("boot: %v", err)
				}
				k := sys.Kernel
				root := k.Init()

				// The stack order is SACK first, per the paper.
				if got := k.LSM.String(); got != "sack,apparmor,capability" {
					t.Fatalf("stack = %q", got)
				}

				// 1. AppArmor's default profiles still confine their
				// subjects regardless of SACK.
				if err := k.WriteFile("/usr/bin/guarded", 0o755, []byte("g")); err != nil {
					t.Fatal(err)
				}
				if err := k.WriteFile("/var/guarded/data", 0o666, []byte("d")); err != nil {
					t.Fatal(err)
				}
				if err := k.WriteFile("/etc/other", 0o666, []byte("o")); err != nil {
					t.Fatal(err)
				}
				confined, _ := root.Fork()
				if err := confined.Exec("/usr/bin/guarded"); err != nil {
					t.Fatal(err)
				}
				if _, err := confined.ReadFileAll("/var/guarded/data"); err != nil {
					t.Fatalf("profile-granted read: %v", err)
				}
				if _, err := confined.ReadFileAll("/etc/other"); !sack.IsErrno(err, sack.EACCES) {
					t.Fatalf("profile-denied read: %v", err)
				}

				// 2. SACK's own policy works: the app area is gated on
				// the active state (independent mode enforces in SACK;
				// enhanced mode needs a managed profile, so there we only
				// check the SSM responds).
				appPath := fmt.Sprintf("/srv/app%d/cfg", i)
				if err := k.WriteFile(appPath, 0o666, []byte("c")); err != nil {
					t.Fatal(err)
				}
				if mode.m == 0 {
					if _, err := root.ReadFileAll(appPath); !sack.IsErrno(err, sack.EACCES) {
						t.Fatalf("idle-state read of covered path: %v", err)
					}
				}
				sys.Events().DeliverEvent(sack.Event(fmt.Sprintf("go%d", i)))
				if sys.CurrentState().Name != "active" {
					t.Fatal("transition failed")
				}
				if _, err := root.ReadFileAll(appPath); err != nil {
					t.Fatalf("active-state read: %v", err)
				}

				// 3. Unrelated paths flow through both modules untouched.
				if _, err := root.ReadFileAll("/etc/other"); err != nil {
					t.Fatalf("unconfined root read: %v", err)
				}
			})
		}
	}
}

// TestSituationAwarenessAccuracy asserts the §IV-B claim of 100% event
// delivery accuracy over the securityfs path with four distinct events.
func TestSituationAwarenessAccuracy(t *testing.T) {
	policy := `
states { s0 = 0 s1 = 1 s2 = 2 s3 = 3 }
initial s0
transitions {
  s0 -> s1 on e0
  s1 -> s2 on e1
  s2 -> s3 on e2
  s3 -> s0 on e3
}
`
	sys, err := sack.New(policy, sack.WithoutVehicle())
	if err != nil {
		t.Fatal(err)
	}
	task := sys.Kernel.Init()
	fd, err := task.Open(sack.EventsFile, sack.OWronly, 0)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2500 // 10000 events, 4 distinct
	for r := 0; r < rounds; r++ {
		for e := 0; e < 4; e++ {
			if _, err := task.Write(fd, []byte(fmt.Sprintf("e%d\n", e))); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("s%d", (e+1)%4)
			if got := sys.CurrentState().Name; got != want {
				t.Fatalf("round %d event e%d: state %q, want %q", r, e, got, want)
			}
		}
	}
	_, _, eventsIn, eventsHit := sys.SACK.Stats()
	if eventsIn != rounds*4 || eventsHit != rounds*4 {
		t.Fatalf("accuracy: %d/%d", eventsHit, eventsIn)
	}
}

func TestEnhancedModeThroughFacade(t *testing.T) {
	sys, err := sack.New(basicPolicy, sack.WithMode(sack.EnhancedAppArmor))
	if err != nil {
		t.Fatal(err)
	}
	if sys.AppArmor == nil {
		t.Fatal("enhanced mode must create AppArmor")
	}
	base, err := sack.ParseProfiles(`
profile rescued /usr/bin/rescued {
  /etc/** r,
  /dev/vehicle/** r,
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AppArmor.LoadProfile(base[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.SACK.ManageProfile(base[0]); err != nil {
		t.Fatal(err)
	}

	k := sys.Kernel
	if err := k.WriteFile("/usr/bin/rescued", 0o755, []byte("r")); err != nil {
		t.Fatal(err)
	}
	daemon, _ := k.Init().Fork()
	if err := daemon.Exec("/usr/bin/rescued"); err != nil {
		t.Fatal(err)
	}
	probe := func() error {
		fd, err := daemon.Open("/dev/vehicle/door0", sack.ORdonly, 0)
		if err != nil {
			return err
		}
		defer daemon.Close(fd)
		_, err = daemon.Ioctl(fd, vehicle.IoctlDoorUnlock, 0)
		return err
	}
	if err := probe(); !sack.IsErrno(err, sack.EACCES) {
		t.Fatalf("normal-state ioctl: %v", err)
	}
	sys.Events().DeliverEvent("crash_detected")
	if err := probe(); err != nil {
		t.Fatalf("emergency ioctl: %v", err)
	}
	sys.Events().DeliverEvent("all_clear")
	if err := probe(); !sack.IsErrno(err, sack.EACCES) {
		t.Fatalf("post-recovery ioctl: %v", err)
	}
}

func TestAuditVisibleThroughFacade(t *testing.T) {
	sys, err := sack.New(basicPolicy)
	if err != nil {
		t.Fatal(err)
	}
	root := sys.Kernel.Init()
	// Provoke a denial.
	fd, err := root.Open("/dev/vehicle/door0", sack.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	root.Ioctl(fd, vehicle.IoctlDoorUnlock, 0)
	denials := sys.Audit.Denials()
	if len(denials) == 0 {
		t.Fatal("no audit records")
	}
	if !strings.Contains(denials[0].Object, "door0") {
		t.Errorf("denial object = %q", denials[0].Object)
	}
}

func TestStateIntrospectionFiles(t *testing.T) {
	sys, err := sack.New(basicPolicy, sack.WithoutVehicle())
	if err != nil {
		t.Fatal(err)
	}
	task := sys.Kernel.Init()
	states, err := task.ReadFileAll("/sys/kernel/security/SACK/states")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(states), "normal = 0") || !strings.Contains(string(states), "emergency = 1") {
		t.Errorf("states file = %q", states)
	}
	// The policy file round-trips the source (root only).
	src, err := task.ReadFileAll("/sys/kernel/security/SACK/policy")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "CONTROL_CAR_DOORS") {
		t.Errorf("policy dump truncated: %d bytes", len(src))
	}
	// Administrative force-state via the state file.
	if err := task.WriteFileAll("/sys/kernel/security/SACK/state", []byte("emergency\n"), 0); err != nil {
		t.Fatal(err)
	}
	if sys.CurrentState().Name != "emergency" {
		t.Fatal("force-state failed")
	}
}

// TestUnknownEventThroughSACKfsCounted: an event written to the SACKfs
// events file takes the same delivery path as Events().DeliverEvent, so
// a name no transition knows is counted in the pipeline's
// unknown_events while the write itself succeeds.
func TestUnknownEventThroughSACKfsCounted(t *testing.T) {
	sys, err := sack.New(basicPolicy, sack.WithoutVehicle())
	if err != nil {
		t.Fatal(err)
	}
	task := sys.Kernel.Init()
	if err := task.WriteFileAll(sack.EventsFile, []byte("warp_drive_engaged\n"), 0); err != nil {
		t.Fatalf("events write: %v", err)
	}
	if got := sys.Pipeline().Stats().UnknownEvents; got != 1 {
		t.Fatalf("unknown_events = %d, want 1", got)
	}
	if sys.CurrentState().Name != "normal" {
		t.Fatalf("state = %q, want normal", sys.CurrentState().Name)
	}
}

func TestPolicyReloadThroughSACKfs(t *testing.T) {
	sys, err := sack.New(basicPolicy, sack.WithoutVehicle())
	if err != nil {
		t.Fatal(err)
	}
	task := sys.Kernel.Init()
	newPolicy := strings.Replace(basicPolicy, "emergency = 1", "emergency = 1\n  lockdown = 2", 1)
	newPolicy = strings.Replace(newPolicy, "transitions {", "transitions {\n  normal -> lockdown on threat\n  lockdown -> normal on threat_over", 1)
	if err := task.WriteFileAll("/sys/kernel/security/SACK/policy", []byte(newPolicy), 0); err != nil {
		t.Fatalf("policy reload: %v", err)
	}
	sys.Events().DeliverEvent("threat")
	if sys.CurrentState().Name != "lockdown" {
		t.Fatalf("state = %q after reload+threat", sys.CurrentState().Name)
	}
	// Garbage policies are rejected without clobbering the active one.
	if err := task.WriteFileAll("/sys/kernel/security/SACK/policy", []byte("states {"), 0); err == nil {
		t.Fatal("garbage policy accepted")
	}
	if sys.CurrentState().Name != "lockdown" {
		t.Fatal("failed reload disturbed state")
	}
}

// TestPolicyPackCompatibility runs the Q3 experiment over the shipped
// policy pack: all ten realistic policies boot in both prototypes over
// default AppArmor profiles; SACK checks first, AppArmor keeps confining
// its subjects, and the SSM responds to each policy's own events.
func TestPolicyPackCompatibility(t *testing.T) {
	aaProfiles := `
profile guarded /usr/bin/guarded {
  /var/guarded/** rw,
}
`
	for _, name := range policies.Names() {
		src := policies.MustLoad(name)
		for _, label := range []string{"independent", "enhanced"} {
			label := label
			t.Run(name+"/"+label, func(t *testing.T) {
				m := sack.Independent
				if label == "enhanced" {
					m = sack.EnhancedAppArmor
				}
				sys, err := sack.New(src,
					sack.WithMode(m), sack.WithAppArmorProfiles(aaProfiles))
				if err != nil {
					t.Fatalf("boot: %v", err)
				}
				k := sys.Kernel
				if got := k.LSM.String(); got != "sack,apparmor,capability" {
					t.Fatalf("stack = %q", got)
				}

				// AppArmor still confines its subject.
				if err := k.WriteFile("/usr/bin/guarded", 0o755, []byte("g")); err != nil {
					t.Fatal(err)
				}
				if err := k.WriteFile("/etc/other", 0o666, []byte("o")); err != nil {
					t.Fatal(err)
				}
				confined, _ := k.Init().Fork()
				if err := confined.Exec("/usr/bin/guarded"); err != nil {
					t.Fatal(err)
				}
				if _, err := confined.ReadFileAll("/etc/other"); !sack.IsErrno(err, sack.EACCES) {
					t.Fatalf("AppArmor confinement broken under %s: %v", name, err)
				}

				// The SSM reacts to the policy's own transition events:
				// walk every event the current state handles at least once.
				compiled := sys.SACK.Policy()
				_, _, _, hitBefore := sys.SACK.Stats()
				for _, ev := range compiled.Events() {
					if _, ok := compiled.Next(sys.CurrentState().Name, ev); ok {
						_ = sys.Events().DeliverEvent(ev)
					}
				}
				if _, _, _, hit := sys.SACK.Stats(); hit == hitBefore {
					t.Fatal("no transition fired for any declared event")
				}

				// Uncovered paths flow through both modules for root.
				if _, err := k.Init().ReadFileAll("/etc/other"); err != nil {
					t.Fatalf("pass-through broken: %v", err)
				}
			})
		}
	}
}
