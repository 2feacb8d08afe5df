package ivi

import (
	"strings"
	"testing"

	"repro/internal/apparmor"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/sys"
	"repro/internal/vehicle"
)

// bootBare boots a kernel+vehicle with only the capability LSM.
func bootBare(t *testing.T) (*kernel.Kernel, *vehicle.Vehicle) {
	t.Helper()
	k := kernel.New()
	if err := k.Boot(lsm.NewCapability()); err != nil {
		t.Fatal(err)
	}
	v := vehicle.New(2, 2)
	if err := v.RegisterDevices(k); err != nil {
		t.Fatal(err)
	}
	return k, v
}

const iviPolicy = `
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
  }
}
transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`

// bootProtected boots kernel+vehicle with independent SACK first.
func bootProtected(t *testing.T) (*kernel.Kernel, *vehicle.Vehicle, *core.SACK) {
	t.Helper()
	k := kernel.New()
	compiled, vr, err := policy.Load(iviPolicy)
	if err != nil || !vr.OK() {
		t.Fatalf("policy: %v %v", err, vr)
	}
	s, err := core.New(core.Config{Mode: core.Independent, Policy: compiled, Audit: k.Audit})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(s, lsm.NewCapability()); err != nil {
		t.Fatal(err)
	}
	v := vehicle.New(2, 2)
	if err := v.RegisterDevices(k); err != nil {
		t.Fatal(err)
	}
	return k, v, s
}

func TestInstallApp(t *testing.T) {
	k, v := bootBare(t)
	s := NewSystem(k, v)
	app, err := s.InstallApp("radio", PermAudioControl)
	if err != nil {
		t.Fatal(err)
	}
	if app.UID < 10000 {
		t.Errorf("app uid = %d", app.UID)
	}
	if app.Task.Cred.UID != app.UID {
		t.Error("task identity mismatch")
	}
	if app.Task.Comm != "/usr/lib/ivi/radio" {
		t.Errorf("comm = %q", app.Task.Comm)
	}
	if !app.HasPermission(PermAudioControl) || app.HasPermission(PermControlDoors) {
		t.Error("permission grants wrong")
	}
	if _, err := s.InstallApp("radio"); err == nil {
		t.Error("duplicate install accepted")
	}
	got, ok := s.App("radio")
	if !ok || got != app {
		t.Error("App lookup wrong")
	}
}

func TestPermissionFrameworkGatesServiceCalls(t *testing.T) {
	k, v := bootBare(t)
	s := NewSystem(k, v)
	svc, err := s.NewDoorService()
	if err != nil {
		t.Fatal(err)
	}
	privileged, _ := s.InstallApp("keyfob", PermControlDoors)
	unprivileged, _ := s.InstallApp("radio", PermAudioControl)

	if err := s.Call(privileged, "door", "unlock_all", 0); err != nil {
		t.Fatalf("privileged call: %v", err)
	}
	if !v.AllDoorsUnlocked() {
		t.Fatal("service did not actuate")
	}
	err = s.Call(unprivileged, "door", "lock_all", 0)
	if err == nil || !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("unprivileged call: %v", err)
	}
	okCalls, denied := svc.Stats()
	if okCalls != 1 || denied != 1 {
		t.Fatalf("stats = %d, %d", okCalls, denied)
	}
	if err := s.Call(privileged, "door", "explode", 0); err == nil || strings.Contains(err.Error(), "EACCES") {
		t.Fatalf("unknown method: %v", err)
	}
	if err := s.Call(privileged, "nosvc", "x", 0); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestAudioService(t *testing.T) {
	k, v := bootBare(t)
	s := NewSystem(k, v)
	if _, err := s.NewAudioService(); err != nil {
		t.Fatal(err)
	}
	app, _ := s.InstallApp("radio", PermAudioControl)
	if err := s.Call(app, "audio", "set_volume", 70); err != nil {
		t.Fatal(err)
	}
	if v.Audio.Volume() != 70 {
		t.Errorf("volume = %d", v.Audio.Volume())
	}
}

func TestKoffeeBypassSucceedsWithoutMAC(t *testing.T) {
	k, v := bootBare(t)
	s := NewSystem(k, v)
	app, _ := s.InstallApp("radio") // zero permissions
	attack := KoffeeAttack{App: app}
	res := attack.Inject("/dev/vehicle/door0", vehicle.IoctlDoorUnlock, 0)
	if res.Err != nil {
		t.Fatalf("bypass should succeed without MAC: %v", res.Err)
	}
	if v.Doors[0].State() != vehicle.DoorUnlocked {
		t.Fatal("attack did not actuate")
	}
	if !strings.Contains(res.String(), "INJECTED") {
		t.Errorf("result string = %q", res)
	}
}

func TestKoffeeBlockedBySACK(t *testing.T) {
	k, v, s := bootProtected(t)
	iviSys := NewSystem(k, v)
	app, err := iviSys.InstallApp("radio")
	if err != nil {
		t.Fatal(err)
	}
	attack := KoffeeAttack{App: app}

	res := attack.Inject("/dev/vehicle/door0", vehicle.IoctlDoorUnlock, 0)
	if !res.Blocked {
		t.Fatalf("attack not blocked: %+v", res)
	}
	if v.Doors[0].State() != vehicle.DoorLocked {
		t.Fatal("door moved despite denial")
	}
	if !strings.Contains(res.String(), "BLOCKED") {
		t.Errorf("result string = %q", res)
	}

	// Write-based injection is blocked too.
	res = attack.InjectWrite("/dev/vehicle/door0", []byte("unlock"))
	if !res.Blocked {
		t.Fatalf("write injection not blocked: %+v", res)
	}

	// In the emergency state the same ioctl passes (break-glass policy).
	s.Deliver("crash_detected")
	res = attack.Inject("/dev/vehicle/door0", vehicle.IoctlDoorUnlock, 0)
	if res.Err != nil {
		t.Fatalf("emergency injection: %+v", res)
	}
}

func TestServiceTasksAreLabeled(t *testing.T) {
	// With AppArmor stacked, the door service's task gets the doord
	// profile at exec and is confined accordingly.
	k := kernel.New()
	aa := apparmor.New(nil)
	prof, err := apparmor.ParseProfile(`
profile doord /usr/bin/doord {
  /dev/vehicle/** rwi,
}`)
	if err != nil {
		t.Fatal(err)
	}
	aa.LoadProfile(prof)
	if err := k.Boot(aa, lsm.NewCapability()); err != nil {
		t.Fatal(err)
	}
	v := vehicle.New(1, 0)
	if err := v.RegisterDevices(k); err != nil {
		t.Fatal(err)
	}
	s := NewSystem(k, v)
	svc, err := s.NewDoorService()
	if err != nil {
		t.Fatal(err)
	}
	if got := apparmor.LabelFor(svc.Task.Cred); got != "doord" {
		t.Fatalf("service label = %q", got)
	}
	// Confined but permitted: actuation works.
	app, _ := s.InstallApp("keyfob", PermControlDoors)
	if err := s.Call(app, "door", "unlock_all", 0); err != nil {
		t.Fatal(err)
	}
	// Outside its profile the service is denied.
	if err := k.WriteFile("/etc/shadow", 0o666, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Task.ReadFileAll("/etc/shadow"); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("confined service read outside profile: %v", err)
	}
}

func TestRawCANInjection(t *testing.T) {
	// Without MAC the raw-CAN injection unlocks the door; with SACK the
	// write to /dev/vehicle/can0 dies in the kernel.
	frame := vehicle.Frame{ID: vehicle.CANIDDoorCmd, Len: 2}
	frame.Data[0] = 0
	frame.Data[1] = vehicle.CANDoorUnlock

	k, v := bootBare(t)
	s := NewSystem(k, v)
	app, _ := s.InstallApp("radio")
	attack := KoffeeAttack{App: app}
	if res := attack.InjectCANFrame(frame); res.Err != nil {
		t.Fatalf("bare kernel CAN injection: %+v", res)
	}
	if v.Doors[0].State() != vehicle.DoorUnlocked {
		t.Fatal("CAN injection did not actuate")
	}

	kp, vp, _ := bootProtected(t)
	sp := NewSystem(kp, vp)
	appP, err := sp.InstallApp("radio")
	if err != nil {
		t.Fatal(err)
	}
	attackP := KoffeeAttack{App: appP}
	res := attackP.InjectCANFrame(frame)
	if !res.Blocked {
		t.Fatalf("protected CAN injection not blocked: %+v", res)
	}
	if vp.Doors[0].State() != vehicle.DoorLocked {
		t.Fatal("door moved despite denial")
	}
}

func TestMaxVolumeAttack(t *testing.T) {
	k, v := bootBare(t)
	s := NewSystem(k, v)
	app, _ := s.InstallApp("radio")
	attack := KoffeeAttack{App: app}
	res := attack.MaxVolumeAttack()
	if res.Err != nil {
		t.Fatalf("max volume on bare kernel: %v", res.Err)
	}
	if v.Audio.Volume() != 100 {
		t.Errorf("volume = %d", v.Audio.Volume())
	}
}

func TestEscalateToServiceStillGated(t *testing.T) {
	k, v := bootBare(t)
	s := NewSystem(k, v)
	if _, err := s.NewDoorService(); err != nil {
		t.Fatal(err)
	}
	app, _ := s.InstallApp("radio")
	attack := KoffeeAttack{App: app}
	if err := attack.EscalateToService(s, "door", "unlock_all", 0); err == nil {
		t.Fatal("permission redelegation through the front door should fail")
	}
}

func TestDashboardRender(t *testing.T) {
	k, v, s := bootProtected(t)
	_ = k
	dash := Dashboard{Vehicle: v, SACK: s}
	out := dash.Render()
	for _, frag := range []string{
		"IVI STATUS", "situation state : normal", "d0:L d1:L",
		"w0:0% w1:0%", "audio volume    : 30/100", "SACK",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("dashboard missing %q:\n%s", frag, out)
		}
	}
	// Unprotected variant renders too.
	v.Doors[0].Ioctl(nil, vehicle.IoctlDoorUnlock, 0)
	bare := Dashboard{Vehicle: v}
	out = bare.Render()
	if !strings.Contains(out, "(no SACK)") || !strings.Contains(out, "d0:U") {
		t.Errorf("bare dashboard:\n%s", out)
	}
	if !strings.Contains(out, "CAN (last") {
		t.Errorf("dashboard missing CAN tail:\n%s", out)
	}
}

func TestSocketIPCTransport(t *testing.T) {
	k, v := bootBare(t)
	if _, err := k.FS.MkdirAll("/run/ivi", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	s := NewSystem(k, v)
	svc, err := s.NewDoorService()
	if err != nil {
		t.Fatal(err)
	}
	stop, done, err := s.ServeIPC(svc)
	if err != nil {
		t.Fatal(err)
	}
	keyfob, _ := s.InstallApp("keyfob", PermControlDoors)
	radio, _ := s.InstallApp("radio")

	// Authorized call over the socket hop actuates.
	if err := s.CallOverSocket(keyfob, "door", "unlock_all", 0); err != nil {
		t.Fatalf("socket call: %v", err)
	}
	if !v.AllDoorsUnlocked() {
		t.Fatal("socket transport did not actuate")
	}
	// The permission framework verdict crosses back over the socket.
	err = s.CallOverSocket(radio, "door", "lock_all", 0)
	if err == nil || !strings.Contains(err.Error(), "lacks permission") {
		t.Fatalf("unauthorized socket call: %v", err)
	}
	// Unknown method reports an error without killing the loop.
	if err := s.CallOverSocket(keyfob, "door", "explode", 0); err == nil {
		t.Fatal("unknown method accepted")
	}
	if err := s.CallOverSocket(keyfob, "door", "lock_all", 0); err != nil {
		t.Fatalf("loop died after error: %v", err)
	}

	stop()
	if err := <-done; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	// Post-stop calls fail to connect.
	if err := s.CallOverSocket(keyfob, "door", "lock_all", 0); err == nil {
		t.Fatal("connect succeeded after stop")
	}
}
