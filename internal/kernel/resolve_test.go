package kernel

import (
	"strings"
	"testing"

	"repro/internal/lsm"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// pathRecorder records the path the first inode hook is handed.
type pathRecorder struct {
	lsm.Base
	path string
}

func (*pathRecorder) Name() string { return "path-recorder" }

func (r *pathRecorder) record(path string) error {
	if r.path == "" {
		r.path = path
	}
	return nil
}

func (r *pathRecorder) InodePermission(_ *sys.Cred, path string, _ *vfs.Inode, _ sys.Access) error {
	return r.record(path)
}

func (r *pathRecorder) InodeGetattr(_ *sys.Cred, path string, _ *vfs.Inode) error {
	return r.record(path)
}

func (r *pathRecorder) InodeCreate(_ *sys.Cred, _ *vfs.Inode, path string, _ vfs.Mode) error {
	return r.record(path)
}

func (r *pathRecorder) InodeUnlink(_ *sys.Cred, _ *vfs.Inode, path string, _ *vfs.Inode) error {
	return r.record(path)
}

// TestPathErrorOrder pins, through Open, Stat, Unlink, Mkdir and Rename
// (of the path to "/renamed"), the clean path the first LSM hook sees
// and the errno for paths that exercise every branch of resolution:
// invalid paths fail with EINVAL or ENAMETOOLONG before any ENOENT or
// ENOTDIR a walk of their prefix would give, and no hook runs for them.
// "/a/b" and "/file" are regular files.
func TestPathErrorOrder(t *testing.T) {
	long := "/missing/" + strings.Repeat("n", vfs.MaxNameLen+1)
	type result struct {
		path string // as the hook saw it; "" when no hook ran
		err  sys.Errno
	}
	cases := []struct {
		in                                string
		open, stat, unlink, mkdir, rename result
	}{
		{"", result{"", sys.EINVAL}, result{"", sys.EINVAL}, result{"", sys.EINVAL}, result{"", sys.EINVAL}, result{"", sys.EINVAL}},
		{"rel/x", result{"", sys.EINVAL}, result{"", sys.EINVAL}, result{"", sys.EINVAL}, result{"", sys.EINVAL}, result{"", sys.EINVAL}},
		{"/", result{"/", 0}, result{"/", 0}, result{"", sys.EINVAL}, result{"", sys.EINVAL}, result{"", sys.EINVAL}},
		{"//a//b/", result{"/a/b", 0}, result{"/a/b", 0}, result{"/a/b", 0}, result{"/a/b", sys.EEXIST}, result{"/a/b", 0}},
		{"/a/./b", result{"/a/b", 0}, result{"/a/b", 0}, result{"/a/b", 0}, result{"/a/b", sys.EEXIST}, result{"/a/b", 0}},
		{"/missing/../x", result{"", sys.EINVAL}, result{"", sys.EINVAL}, result{"", sys.EINVAL}, result{"", sys.EINVAL}, result{"", sys.EINVAL}},
		{long, result{"", sys.ENAMETOOLONG}, result{"", sys.ENAMETOOLONG}, result{"", sys.ENAMETOOLONG}, result{"", sys.ENAMETOOLONG}, result{"", sys.ENAMETOOLONG}},
		{"/missing/x", result{"", sys.ENOENT}, result{"", sys.ENOENT}, result{"", sys.ENOENT}, result{"", sys.ENOENT}, result{"", sys.ENOENT}},
		{"/a/x", result{"", sys.ENOENT}, result{"", sys.ENOENT}, result{"", sys.ENOENT}, result{"/a/x", 0}, result{"", sys.ENOENT}},
		{"/file/child", result{"", sys.ENOTDIR}, result{"", sys.ENOTDIR}, result{"", sys.ENOTDIR}, result{"", sys.ENOTDIR}, result{"", sys.ENOTDIR}},
	}
	ops := []struct {
		name string
		run  func(*Task, string) error
		want func(int) result
	}{
		{"open", func(t *Task, p string) error {
			fd, err := t.Open(p, vfs.ORdonly, 0)
			if err == nil {
				t.Close(fd)
			}
			return err
		}, func(i int) result { return cases[i].open }},
		{"stat", func(t *Task, p string) error { _, err := t.Stat(p); return err },
			func(i int) result { return cases[i].stat }},
		{"unlink", (*Task).Unlink, func(i int) result { return cases[i].unlink }},
		{"mkdir", func(t *Task, p string) error { return t.Mkdir(p, 0o755) },
			func(i int) result { return cases[i].mkdir }},
		{"rename", func(t *Task, p string) error { return t.Rename(p, "/renamed") },
			func(i int) result { return cases[i].rename }},
	}
	for _, op := range ops {
		for i, c := range cases {
			k := New()
			rec := &pathRecorder{}
			if err := k.Boot(rec); err != nil {
				t.Fatal(err)
			}
			for _, f := range []string{"/a/b", "/file"} {
				if err := k.WriteFile(f, 0o644, nil); err != nil {
					t.Fatal(err)
				}
			}
			err := op.run(k.Init(), c.in)
			got := result{rec.path, 0}
			if err != nil {
				e, ok := err.(sys.Errno)
				if !ok {
					t.Fatalf("%s(%q): non-errno error %v", op.name, c.in, err)
				}
				got.err = e
			}
			if want := op.want(i); got != want {
				t.Errorf("%s(%.20q) = hook path %q, errno %v; want %q, %v", op.name, c.in, got.path, got.err, want.path, want.err)
			}
		}
	}
}
