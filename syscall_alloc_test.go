package sack_test

// TestSyscallAllocGuard fences the allocation count of the simulated
// syscall path around the SACK hook (the `make bench-smoke` fence): path
// resolution, descriptor-table updates and fd lookups allocate nothing,
// so an open costs only the vfs.File it returns. Allocations per
// operation are host-independent, unlike times.

import (
	"testing"

	sack "repro"
	"repro/internal/sys"
	"repro/internal/vfs"
)

const syscallAllocPolicy = `
states {
  normal = 0
}
initial normal
permissions {
  APP
}
state_per {
  normal: APP
}
per_rules {
  APP {
    allow read,write /srv/app/data/**
    allow read,ioctl /dev/vehicle/door*
    deny read /srv/app/data/secret*
  }
}
`

type nopDevice struct{}

func (nopDevice) ReadAt(*sys.Cred, []byte, int64) (int, error)        { return 0, nil }
func (nopDevice) WriteAt(_ *sys.Cred, d []byte, _ int64) (int, error) { return len(d), nil }
func (nopDevice) Ioctl(*sys.Cred, uint64, uint64) (uint64, error)     { return 0, nil }

func TestSyscallAllocGuard(t *testing.T) {
	system, err := sack.New(syscallAllocPolicy, sack.WithMode(sack.Independent), sack.WithoutVehicle())
	if err != nil {
		t.Fatal(err)
	}
	k := system.Kernel
	for _, p := range []string{"/srv/app/data/file.dat", "/srv/app/data/secret.key", "/tmp/plain.dat"} {
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
	task.Cred.SetBlob("sack", "/usr/bin/app")

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

	cases := []struct {
		name string
		max  float64
		op   func()
	}{
		{"covered allowed open+pread+close", 1, openIOClose("/srv/app/data/file.dat", vfs.ORdonly, pread)},
		{"covered allowed open+pwrite+close", 1, openIOClose("/srv/app/data/file.dat", vfs.OWronly, pwrite)},
		{"uncovered open+close", 1, openIOClose("/tmp/plain.dat", vfs.ORdonly, none)},
		{"stat", 0, func() { _, err := task.Stat("/srv/app/data/file.dat"); must(err) }},
		{"pread", 0, func() { must(pread(long)) }},
		{"ioctl allow", 0, func() { _, err := task.Ioctl(door, 1, 0); must(err) }},
		{"covered denied open, deny rule", 6, func() {
			if _, err := task.Open("/srv/app/data/secret.key", vfs.ORdonly, 0); !sys.IsErrno(err, sys.EACCES) {
				t.Fatalf("denied open: %v, want EACCES", err)
			}
		}},
		{"covered denied open, no allow rule", 6, func() {
			if _, err := task.Open("/dev/vehicle/door0", vfs.OWronly, 0); !sys.IsErrno(err, sys.EACCES) {
				t.Fatalf("denied open: %v, want EACCES", err)
			}
		}},
	}
	for _, c := range cases {
		c.op() // warm the AVC, the descriptor table and the denial counter
		if got := testing.AllocsPerRun(500, c.op); got > c.max {
			t.Errorf("%s allocates %.2f objects/op, want <= %v", c.name, got, c.max)
		} else {
			t.Logf("%s: %.2f allocs/op (limit %v)", c.name, got, c.max)
		}
	}
}
