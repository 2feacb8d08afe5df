package sack_test

// TestSyscallAllocGuard fences the allocation count of the simulated
// syscall path around the SACK hook (the `make bench-smoke` fence): path
// resolution (a dentry-cache hit, or a walk for a path that does not
// exist), descriptor-table updates and fd lookups allocate nothing,
// so an open costs only the vfs.File it returns — also for an uncovered
// file under a covered directory, which probes the AVC and is never
// cached — and a repeated denial is served from the AVC with its cached
// audit detail, by SACK or by AppArmor. The first denial after a state
// transition misses the AVC but takes its detail from the state rule
// set's memo, and the AVC admits a denial only on its second miss in
// an epoch, so it allocates nothing. Allocations per operation are
// host-independent, unlike times.

import (
	"runtime"
	"testing"

	sack "repro"
	"repro/internal/apparmor"
	"repro/internal/core"
	"repro/internal/sys"
	"repro/internal/vfs"
)

const syscallAllocPolicy = `
states {
  normal = 0
  parked = 1
}
initial normal
transitions {
  normal -> parked on park
  parked -> normal on drive
}
permissions {
  APP
}
state_per {
  normal: APP
  parked: APP
}
per_rules {
  APP {
    allow read,write /srv/app/data/**
    allow read,ioctl /dev/vehicle/door*
    deny read /srv/app/data/secret*
  }
}
`

// syscallAllocProfile confines a second task through AppArmor; the
// first task runs unconfined by it.
const syscallAllocProfile = `
profile app /usr/bin/app {
  /srv/app/data/** rw,
  deny /tmp/plain.dat w,
}
`

type nopDevice struct{}

func (nopDevice) ReadAt(*sys.Cred, []byte, int64) (int, error)        { return 0, nil }
func (nopDevice) WriteAt(_ *sys.Cred, d []byte, _ int64) (int, error) { return len(d), nil }
func (nopDevice) Ioctl(*sys.Cred, uint64, uint64) (uint64, error)     { return 0, nil }

func TestSyscallAllocGuard(t *testing.T) {
	system, err := sack.New(syscallAllocPolicy, sack.WithMode(sack.Independent), sack.WithoutVehicle(),
		sack.WithAppArmorProfiles(syscallAllocProfile))
	if err != nil {
		t.Fatal(err)
	}
	k := system.Kernel
	for _, p := range []string{"/srv/app/data/file.dat", "/srv/app/data/secret.key", "/srv/app/plain.dat", "/tmp/plain.dat"} {
		if err := k.WriteFile(p, 0o666, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.RegisterDevice("/dev/vehicle/door0", 0o666, nopDevice{}); err != nil {
		t.Fatal(err)
	}
	task, err := k.Init().Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := task.SetUID(1000, 1000); err != nil {
		t.Fatal(err)
	}
	core.SetSubject(task.Cred, "/usr/bin/app")
	confined, err := k.Init().Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := confined.SetUID(1000, 1000); err != nil {
		t.Fatal(err)
	}
	apparmor.SetLabel(confined.Cred, "app")

	buf := make([]byte, 512)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	openIOClose := func(path string, flags vfs.OpenFlags, io func(fd int) error) func() {
		return func() {
			fd, err := task.Open(path, flags, 0)
			must(err)
			must(io(fd))
			must(task.Close(fd))
		}
	}
	pread := func(fd int) error { _, err := task.Pread(fd, buf, 0); return err }
	pwrite := func(fd int) error { _, err := task.Pwrite(fd, buf, 0); return err }
	none := func(int) error { return nil }

	long, err := task.Open("/srv/app/data/file.dat", vfs.ORdonly, 0)
	must(err)
	door, err := task.Open("/dev/vehicle/door0", vfs.ORdonly, 0)
	must(err)

	deniedOpen := func(path string, flags vfs.OpenFlags) func() {
		return func() {
			if _, err := task.Open(path, flags, 0); !sys.IsErrno(err, sys.EACCES) {
				t.Fatalf("denied open %s: %v, want EACCES", path, err)
			}
		}
	}
	events := system.Events()
	parked := false
	transition := func() {
		ev := sack.Event("park")
		if parked {
			ev = "drive"
		}
		must(events.DeliverEvent(ev))
		parked = !parked
	}

	cases := []struct {
		name string
		max  float64
		op   func()
		// cold, when set, runs unmeasured before each measured op.
		cold func()
	}{
		{"covered allowed open+pread+close", 1, openIOClose("/srv/app/data/file.dat", vfs.ORdonly, pread), nil},
		{"covered allowed open+pwrite+close", 1, openIOClose("/srv/app/data/file.dat", vfs.OWronly, pwrite), nil},
		{"uncovered open+close", 1, openIOClose("/tmp/plain.dat", vfs.ORdonly, none), nil},
		{"uncovered open+close under a covered directory", 1, openIOClose("/srv/app/plain.dat", vfs.ORdonly, none), nil},
		{"repeated stat, covered path", 0, func() { _, err := task.Stat("/srv/app/data/file.dat"); must(err) }, nil},
		{"repeated stat, uncovered path", 0, func() { _, err := task.Stat("/tmp/plain.dat"); must(err) }, nil},
		{"repeated stat, missing path", 0, func() {
			if _, err := task.Stat("/srv/app/data/missing"); !sys.IsErrno(err, sys.ENOENT) {
				t.Fatalf("stat of a missing path: %v, want ENOENT", err)
			}
		}, nil},
		{"pread", 0, func() { must(pread(long)) }, nil},
		{"ioctl allow", 0, func() { _, err := task.Ioctl(door, 1, 0); must(err) }, nil},
		{"covered denied open, deny rule", 0, deniedOpen("/srv/app/data/secret.key", vfs.ORdonly), nil},
		{"covered denied open, no allow rule", 0, deniedOpen("/dev/vehicle/door0", vfs.OWronly), nil},
		{"first denial after a state transition", 0, deniedOpen("/srv/app/data/secret.key", vfs.ORdonly), transition},
		{"repeated denial, AppArmor-confined task", 0, func() {
			if _, err := confined.Open("/tmp/plain.dat", vfs.OWronly, 0); !sys.IsErrno(err, sys.EACCES) {
				t.Fatalf("AppArmor-denied open: %v, want EACCES", err)
			}
		}, nil},
	}
	for _, c := range cases {
		c.op() // warm the AVC, the descriptor table and the denial counter
		var got float64
		if c.cold == nil {
			got = testing.AllocsPerRun(500, c.op)
		} else {
			got = allocsPerColdRun(200, c.cold, c.op)
		}
		if got > c.max {
			t.Errorf("%s allocates %.2f objects/op, want <= %v", c.name, got, c.max)
		} else {
			t.Logf("%s: %.2f allocs/op (limit %v)", c.name, got, c.max)
		}
	}
}

// allocsPerColdRun is testing.AllocsPerRun for an op that must find the
// AVC cold: cold runs before each op, outside the measured window.
func allocsPerColdRun(runs int, cold, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		cold()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		op()
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	return float64(total / uint64(runs)) // integer average, as AllocsPerRun
}
