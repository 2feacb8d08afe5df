package vfs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sys"
)

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		err  bool
	}{
		{"/", []string{}, false},
		{"/a/b/c", []string{"a", "b", "c"}, false},
		{"//a///b/", []string{"a", "b"}, false},
		{"/a/./b", []string{"a", "b"}, false},
		{"relative", nil, true},
		{"", nil, true},
		{"/a/../b", nil, true},
		{"/" + strings.Repeat("x", MaxNameLen+1), nil, true},
	}
	for _, c := range cases {
		got, err := SplitPath(c.in)
		if c.err {
			if err == nil {
				t.Errorf("SplitPath(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("SplitPath(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCleanAndSplitDir(t *testing.T) {
	if Clean("//a//b/") != "/a/b" {
		t.Errorf("Clean = %q", Clean("//a//b/"))
	}
	if Clean("/") != "/" {
		t.Error("Clean(/) != /")
	}
	dir, name := SplitDir("/a/b/c")
	if dir != "/a/b" || name != "c" {
		t.Errorf("SplitDir = %q, %q", dir, name)
	}
	dir, name = SplitDir("/c")
	if dir != "/" || name != "c" {
		t.Errorf("SplitDir(/c) = %q, %q", dir, name)
	}
	dir, name = SplitDir("/")
	if dir != "/" || name != "" {
		t.Errorf("SplitDir(/) = %q, %q", dir, name)
	}
}

func TestCreateLookupUnlink(t *testing.T) {
	fs := New()
	if _, err := fs.MkdirAll("/a/b", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	node, err := fs.Create("/a/b/f", ModeRegular|0o644, 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if node.Ino == 0 {
		t.Error("ino not assigned")
	}
	uid, gid := node.Owner()
	if uid != 1000 || gid != 1000 {
		t.Errorf("owner = %d:%d", uid, gid)
	}

	got, err := fs.Lookup("/a/b/f")
	if err != nil || got != node {
		t.Fatalf("Lookup: %v", err)
	}
	if _, err := fs.Create("/a/b/f", ModeRegular|0o644, 0, 0); !sys.IsErrno(err, sys.EEXIST) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := fs.Create("/missing/f", ModeRegular, 0, 0); !sys.IsErrno(err, sys.ENOENT) {
		t.Errorf("create in missing dir: %v", err)
	}
	if err := fs.Unlink("/a/b/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a/b/f") {
		t.Error("file survived unlink")
	}
	if err := fs.Unlink("/a/b/f"); !sys.IsErrno(err, sys.ENOENT) {
		t.Errorf("double unlink: %v", err)
	}
	if err := fs.Unlink("/a/b"); !sys.IsErrno(err, sys.EISDIR) {
		t.Errorf("unlink of dir: %v", err)
	}
}

func TestRmdirSemantics(t *testing.T) {
	fs := New()
	if _, err := fs.MkdirAll("/d/sub", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/d"); !sys.IsErrno(err, sys.ENOTEMPTY) {
		t.Errorf("rmdir of non-empty: %v", err)
	}
	if err := fs.Rmdir("/d/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d") {
		t.Error("dir survived rmdir")
	}
	if _, err := fs.Create("/plain", ModeRegular, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/plain"); !sys.IsErrno(err, sys.ENOTDIR) {
		t.Errorf("rmdir of file: %v", err)
	}
}

func TestNlinkTracking(t *testing.T) {
	fs := New()
	d, err := fs.MkdirAll("/d", 0o755, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Attr().Nlink != 2 {
		t.Errorf("fresh dir nlink = %d, want 2", d.Attr().Nlink)
	}
	if _, err := fs.MkdirAll("/d/s1", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.MkdirAll("/d/s2", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if d.Attr().Nlink != 4 {
		t.Errorf("dir with 2 subdirs nlink = %d, want 4", d.Attr().Nlink)
	}
	fs.Rmdir("/d/s1")
	if d.Attr().Nlink != 3 {
		t.Errorf("after rmdir nlink = %d, want 3", d.Attr().Nlink)
	}
}

func TestRename(t *testing.T) {
	fs := New()
	fs.MkdirAll("/src", 0o755, 0, 0)
	fs.MkdirAll("/dst", 0o755, 0, 0)
	node, _ := fs.Create("/src/f", ModeRegular|0o644, 0, 0)
	if err := fs.Rename("/src/f", "/dst/g"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/src/f") {
		t.Error("source survived rename")
	}
	got, err := fs.Lookup("/dst/g")
	if err != nil || got != node {
		t.Error("rename moved wrong node")
	}
	fs.Create("/src/f2", ModeRegular, 0, 0)
	if err := fs.Rename("/src/f2", "/dst/g"); !sys.IsErrno(err, sys.EEXIST) {
		t.Errorf("rename onto existing: %v", err)
	}
	if err := fs.Rename("/absent", "/dst/x"); !sys.IsErrno(err, sys.ENOENT) {
		t.Errorf("rename of absent: %v", err)
	}
}

func TestReadDir(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d", 0o755, 0, 0)
	for i := 0; i < 3; i++ {
		fs.Create(fmt.Sprintf("/d/f%d", i), ModeRegular, 0, 0)
	}
	names, err := fs.ReadDir("/d")
	if err != nil || len(names) != 3 {
		t.Fatalf("ReadDir = %v, %v", names, err)
	}
	if _, err := fs.ReadDir("/d/f0"); !sys.IsErrno(err, sys.ENOTDIR) {
		t.Errorf("ReadDir of file: %v", err)
	}
}

func TestFileReadWrite(t *testing.T) {
	fs := New()
	node, _ := fs.Create("/f", ModeRegular|0o644, 0, 0)
	cred := sys.NewCred(0, 0)
	f := NewFile(node, "/f", ORdwr)

	if n, err := f.Write(cred, []byte("hello ")); n != 6 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	if n, err := f.Write(cred, []byte("world")); n != 5 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	buf := make([]byte, 32)
	n, err := f.Pread(cred, buf, 0)
	if err != nil || string(buf[:n]) != "hello world" {
		t.Fatalf("pread: %q, %v", buf[:n], err)
	}
	// Sequential read from the current position (end) yields EOF.
	if n, _ := f.Read(cred, buf); n != 0 {
		t.Errorf("read at EOF = %d bytes", n)
	}
	if err := f.SetPos(6); err != nil {
		t.Fatal(err)
	}
	n, _ = f.Read(cred, buf)
	if string(buf[:n]) != "world" {
		t.Errorf("read after seek = %q", buf[:n])
	}
}

func TestFileModeEnforcement(t *testing.T) {
	fs := New()
	node, _ := fs.Create("/f", ModeRegular|0o644, 0, 0)
	cred := sys.NewCred(0, 0)

	ro := NewFile(node, "/f", ORdonly)
	if _, err := ro.Write(cred, []byte("x")); !sys.IsErrno(err, sys.EBADF) {
		t.Errorf("write on O_RDONLY: %v", err)
	}
	wo := NewFile(node, "/f", OWronly)
	if _, err := wo.Read(cred, make([]byte, 1)); !sys.IsErrno(err, sys.EBADF) {
		t.Errorf("read on O_WRONLY: %v", err)
	}
}

func TestAppendMode(t *testing.T) {
	fs := New()
	node, _ := fs.Create("/log", ModeRegular|0o644, 0, 0)
	cred := sys.NewCred(0, 0)
	w1 := NewFile(node, "/log", OWronly)
	w1.Write(cred, []byte("aaa"))
	w2 := NewFile(node, "/log", OWronly|OAppend)
	w2.Write(cred, []byte("bbb"))
	if got := string(node.Snapshot()); got != "aaabbb" {
		t.Errorf("append result = %q", got)
	}
}

func TestSparseWrite(t *testing.T) {
	fs := New()
	node, _ := fs.Create("/f", ModeRegular|0o644, 0, 0)
	cred := sys.NewCred(0, 0)
	f := NewFile(node, "/f", ORdwr)
	if _, err := f.Pwrite(cred, []byte("x"), 100); err != nil {
		t.Fatal(err)
	}
	if node.Size() != 101 {
		t.Errorf("size = %d, want 101", node.Size())
	}
	buf := make([]byte, 1)
	f.Pread(cred, buf, 50)
	if buf[0] != 0 {
		t.Error("hole not zero-filled")
	}
}

func TestIoctlOnRegularFile(t *testing.T) {
	fs := New()
	node, _ := fs.Create("/f", ModeRegular|0o644, 0, 0)
	f := NewFile(node, "/f", ORdwr)
	if _, err := f.Ioctl(sys.NewCred(0, 0), 1, 0); !sys.IsErrno(err, sys.ENOTTY) {
		t.Errorf("ioctl on regular file: %v", err)
	}
}

func TestModeBits(t *testing.T) {
	if !(ModeDir | 0o755).IsDir() || (ModeRegular | 0o644).IsDir() {
		t.Error("IsDir wrong")
	}
	if !(ModeRegular | 0o644).IsRegular() {
		t.Error("IsRegular wrong")
	}
	if !(ModeCharDev | 0o666).IsDevice() {
		t.Error("IsDevice wrong")
	}
	if (ModeDir | 0o755).Perm() != 0o755 {
		t.Error("Perm wrong")
	}
}

func TestSetPermPreservesType(t *testing.T) {
	fs := New()
	node, _ := fs.Create("/f", ModeRegular|0o644, 0, 0)
	node.SetPerm(0o600)
	if !node.Mode().IsRegular() || node.Mode().Perm() != 0o600 {
		t.Errorf("mode after SetPerm = %o", node.Mode())
	}
}

func TestSecurityBlobs(t *testing.T) {
	fs := New()
	node, _ := fs.Create("/f", ModeRegular, 0, 0)
	if node.SecurityBlob("selinux") != nil {
		t.Error("missing blob should be nil")
	}
	node.SetSecurityBlob("selinux", "system_u:object_r:etc_t")
	if node.SecurityBlob("selinux") != "system_u:object_r:etc_t" {
		t.Error("blob lost")
	}
}

func TestOpenFlagsAccessMask(t *testing.T) {
	cases := []struct {
		flags OpenFlags
		want  sys.Access
	}{
		{ORdonly, sys.MayRead},
		{OWronly, sys.MayWrite},
		{ORdwr, sys.MayRead | sys.MayWrite},
		{OWronly | OAppend, sys.MayWrite | sys.MayAppend},
	}
	for _, c := range cases {
		if got := c.flags.AccessMask(); got != c.want {
			t.Errorf("AccessMask(%o) = %v, want %v", c.flags, got, c.want)
		}
	}
}

func TestConcurrentTreeMutation(t *testing.T) {
	fs := New()
	fs.MkdirAll("/work", 0o777, 0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := fmt.Sprintf("/work/g%d-%d", g, i)
				if _, err := fs.Create(p, ModeRegular|0o644, 0, 0); err != nil {
					t.Errorf("create %s: %v", p, err)
					return
				}
				if _, err := fs.Lookup(p); err != nil {
					t.Errorf("lookup %s: %v", p, err)
					return
				}
				if err := fs.Unlink(p); err != nil {
					t.Errorf("unlink %s: %v", p, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	names, _ := fs.ReadDir("/work")
	if len(names) != 0 {
		t.Errorf("leftover entries: %v", names)
	}
}

func TestConcurrentFileIO(t *testing.T) {
	fs := New()
	node, _ := fs.Create("/f", ModeRegular|0o644, 0, 0)
	cred := sys.NewCred(0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := NewFile(node, "/f", ORdwr)
			payload := []byte{byte(g)}
			for i := 0; i < 200; i++ {
				f.Pwrite(cred, payload, int64(g))
				buf := make([]byte, 1)
				f.Pread(cred, buf, int64(g))
			}
		}(g)
	}
	wg.Wait()
	if node.Size() != 8 {
		t.Errorf("size = %d, want 8", node.Size())
	}
}

// Property: Clean is idempotent and always yields an absolute path.
func TestPropertyCleanIdempotent(t *testing.T) {
	f := func(raw string) bool {
		p := "/" + strings.Map(func(r rune) rune {
			const ok = "abc/."
			return rune(ok[int(r)%len(ok)])
		}, raw)
		c := Clean(p)
		return strings.HasPrefix(c, "/") && Clean(c) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: after Create, Lookup succeeds; after Unlink, it fails.
func TestPropertyCreateLookupUnlink(t *testing.T) {
	fs := New()
	fs.MkdirAll("/p", 0o777, 0, 0)
	i := 0
	f := func(rawName string) bool {
		i++
		name := fmt.Sprintf("/p/n%d", i)
		if _, err := fs.Create(name, ModeRegular|0o644, 0, 0); err != nil {
			return false
		}
		if _, err := fs.Lookup(name); err != nil {
			return false
		}
		if err := fs.Unlink(name); err != nil {
			return false
		}
		_, err := fs.Lookup(name)
		return sys.IsErrno(err, sys.ENOENT)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRenameIntoOwnSubtreeRejected(t *testing.T) {
	fs := New()
	fs.MkdirAll("/a/sub", 0o755, 0, 0)
	if err := fs.Rename("/a", "/a/sub/moved"); !sys.IsErrno(err, sys.EINVAL) {
		t.Fatalf("rename into own subtree: %v", err)
	}
	if !fs.Exists("/a") || !fs.Exists("/a/sub") {
		t.Fatal("tree damaged by rejected rename")
	}
	// Self-rename is also an ancestry violation... actually /a -> /a is
	// EEXIST territory; a sibling with a shared name prefix must pass.
	fs.MkdirAll("/ab", 0o755, 0, 0)
	if err := fs.Rename("/a", "/ab/a"); err != nil {
		t.Fatalf("prefix-named sibling rename: %v", err)
	}
	if !fs.Exists("/ab/a/sub") {
		t.Fatal("subtree lost in legal rename")
	}
}

func TestRenameDirectoryMovesSubtree(t *testing.T) {
	fs := New()
	fs.MkdirAll("/src/deep", 0o755, 0, 0)
	fs.Create("/src/deep/f", ModeRegular|0o644, 0, 0)
	fs.MkdirAll("/dst", 0o755, 0, 0)
	if err := fs.Rename("/src", "/dst/moved"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/src") {
		t.Fatal("source survived")
	}
	if !fs.Exists("/dst/moved/deep/f") {
		t.Fatal("subtree not reachable at destination")
	}
}
