package kernel

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/lsm"
	"repro/internal/sys"
	"repro/internal/vfs"
)

func bootKernel(t *testing.T) *Kernel {
	t.Helper()
	k := New()
	if err := k.Boot(lsm.NewCapability()); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBootSkeleton(t *testing.T) {
	k := bootKernel(t)
	for _, dir := range []string{"/dev", "/dev/vehicle", "/etc", "/tmp", "/usr/bin", "/sys/kernel/security"} {
		node, err := k.FS.Lookup(dir)
		if err != nil {
			t.Errorf("missing %s: %v", dir, err)
			continue
		}
		if !node.Mode().IsDir() {
			t.Errorf("%s is not a directory", dir)
		}
	}
	tmp, _ := k.FS.Lookup("/tmp")
	if tmp.Mode().Perm() != 0o1777 {
		t.Errorf("/tmp perm = %o", tmp.Mode().Perm())
	}
}

func TestInitTaskSingleton(t *testing.T) {
	k := bootKernel(t)
	a, b := k.Init(), k.Init()
	if a != b {
		t.Fatal("Init should return the same task")
	}
	if a.PID != 1 || a.Cred.UID != 0 {
		t.Fatalf("init = pid %d uid %d", a.PID, a.Cred.UID)
	}
}

func TestOpenReadWriteClose(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	fd, err := task.Open("/tmp/f", vfs.OCreat|vfs.ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := task.Write(fd, []byte("data")); n != 4 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	if err := task.Seek(fd, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := task.Read(fd, buf)
	if err != nil || string(buf[:n]) != "data" {
		t.Fatalf("read: %q, %v", buf[:n], err)
	}
	if err := task.Close(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Read(fd, buf); !sys.IsErrno(err, sys.EBADF) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestOpenFlagsSemantics(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	if _, err := task.Open("/tmp/absent", vfs.ORdonly, 0); !sys.IsErrno(err, sys.ENOENT) {
		t.Errorf("open absent: %v", err)
	}
	fd, err := task.Open("/tmp/f", vfs.OCreat|vfs.OWronly, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	task.Write(fd, []byte("12345"))
	task.Close(fd)

	if _, err := task.Open("/tmp/f", vfs.OCreat|vfs.OExcl|vfs.OWronly, 0o600); !sys.IsErrno(err, sys.EEXIST) {
		t.Errorf("O_EXCL on existing: %v", err)
	}
	fd, err = task.Open("/tmp/f", vfs.OWronly|vfs.OTrunc, 0)
	if err != nil {
		t.Fatal(err)
	}
	task.Close(fd)
	st, _ := task.Stat("/tmp/f")
	if st.Size != 0 {
		t.Errorf("size after O_TRUNC = %d", st.Size)
	}
	if _, err := task.Open("/tmp", vfs.OWronly, 0); !sys.IsErrno(err, sys.EISDIR) {
		t.Errorf("write-open dir: %v", err)
	}
}

func TestDACEnforcement(t *testing.T) {
	k := bootKernel(t)
	root := k.Init()
	if err := k.WriteFile("/etc/secret", 0o600, []byte("top")); err != nil {
		t.Fatal(err)
	}
	user, err := root.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := user.SetUID(1000, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := user.Open("/etc/secret", vfs.ORdonly, 0); !sys.IsErrno(err, sys.EACCES) {
		t.Errorf("user open of 0600 root file: %v", err)
	}
	if _, err := root.Open("/etc/secret", vfs.ORdonly, 0); err != nil {
		t.Errorf("root open: %v", err)
	}
	// Group bits: file owned by gid 2000, group-readable.
	if err := k.WriteFile("/etc/groupfile", 0o640, []byte("g")); err != nil {
		t.Fatal(err)
	}
	node, _ := k.FS.Lookup("/etc/groupfile")
	node.Chown(0, 2000)
	member, _ := root.Fork()
	member.SetUID(1001, 2000)
	if _, err := member.Open("/etc/groupfile", vfs.ORdonly, 0); err != nil {
		t.Errorf("group member read: %v", err)
	}
	if _, err := member.Open("/etc/groupfile", vfs.OWronly, 0); !sys.IsErrno(err, sys.EACCES) {
		t.Errorf("group member write: %v", err)
	}
}

func TestExecRequiresExecutableBit(t *testing.T) {
	k := bootKernel(t)
	root := k.Init()
	if err := k.WriteFile("/usr/bin/tool", 0o644, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := root.Exec("/usr/bin/tool"); !sys.IsErrno(err, sys.EACCES) {
		t.Errorf("exec of non-executable even as root: %v", err)
	}
	node, _ := k.FS.Lookup("/usr/bin/tool")
	node.SetPerm(0o755)
	if err := root.Exec("/usr/bin/tool"); err != nil {
		t.Errorf("exec: %v", err)
	}
	if root.Comm != "/usr/bin/tool" {
		t.Errorf("comm = %q", root.Comm)
	}
	if err := root.Exec("/usr/bin"); !sys.IsErrno(err, sys.EISDIR) {
		t.Errorf("exec of dir: %v", err)
	}
}

func TestForkSemantics(t *testing.T) {
	k := bootKernel(t)
	root := k.Init()
	fd, err := root.Open("/tmp/shared", vfs.OCreat|vfs.ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	child, err := root.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if child.PID == root.PID || child.PPID != root.PID {
		t.Fatalf("child pid/ppid = %d/%d", child.PID, child.PPID)
	}
	// Shared open-file description: child write advances the shared pos.
	if _, err := child.Write(fd, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Write(fd, []byte("cd")); err != nil {
		t.Fatal(err)
	}
	data, _ := root.ReadFileAll("/tmp/shared")
	if string(data) != "abcd" {
		t.Errorf("shared-offset content = %q", data)
	}
	// Credential isolation: child setuid does not affect the parent.
	child.SetUID(1000, 1000)
	if root.Cred.UID != 0 {
		t.Error("child setuid leaked to parent")
	}
	if k.NumTasks() != 2 {
		t.Errorf("tasks = %d", k.NumTasks())
	}
	child.Exit()
	if k.NumTasks() != 1 {
		t.Errorf("tasks after exit = %d", k.NumTasks())
	}
	if _, err := k.Task(child.PID); !sys.IsErrno(err, sys.ESRCH) {
		t.Errorf("lookup of exited task: %v", err)
	}
}

func TestSetUIDDropsCaps(t *testing.T) {
	k := bootKernel(t)
	root := k.Init()
	task, _ := root.Fork()
	if err := task.SetUID(1000, 1000); err != nil {
		t.Fatal(err)
	}
	if !task.Cred.Caps.Empty() {
		t.Error("caps survived setuid from root")
	}
	if err := task.SetUID(0, 0); !sys.IsErrno(err, sys.EPERM) {
		t.Errorf("setuid back to root without CAP_SETUID: %v", err)
	}
}

func TestStat(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	if err := k.WriteFile("/etc/conf", 0o640, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	st, err := task.Stat("/etc/conf")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 8 || !st.Mode.IsRegular() || st.Mode.Perm() != 0o640 ||
		st.UID != 0 || st.GID != 0 || st.Nlink != 1 {
		t.Errorf("stat = %+v", st)
	}
	if _, err := task.Stat("/absent"); !sys.IsErrno(err, sys.ENOENT) {
		t.Errorf("stat absent: %v", err)
	}
}

func TestMkdirRmdirUnlink(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	if err := task.Mkdir("/tmp/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := task.WriteFileAll("/tmp/d/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := task.Rmdir("/tmp/d"); !sys.IsErrno(err, sys.ENOTEMPTY) {
		t.Errorf("rmdir non-empty: %v", err)
	}
	if err := task.Unlink("/tmp/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := task.Rmdir("/tmp/d"); err != nil {
		t.Fatal(err)
	}
}

func TestIoctlOnDevice(t *testing.T) {
	k := bootKernel(t)
	dev := &echoDevice{}
	if _, err := k.RegisterDevice("/dev/echo", 0o666, dev); err != nil {
		t.Fatal(err)
	}
	task := k.Init()
	fd, err := task.Open("/dev/echo", vfs.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := task.Ioctl(fd, 42, 7)
	if err != nil || ret != 42+7 {
		t.Fatalf("ioctl = %d, %v", ret, err)
	}
	// Regular files reject ioctl.
	rfd, _ := task.Open("/tmp/r", vfs.OCreat|vfs.ORdwr, 0o644)
	if _, err := task.Ioctl(rfd, 1, 0); !sys.IsErrno(err, sys.ENOTTY) {
		t.Errorf("ioctl on regular file: %v", err)
	}
}

type echoDevice struct{}

func (echoDevice) ReadAt(_ *sys.Cred, buf []byte, _ int64) (int, error) { return 0, nil }
func (echoDevice) WriteAt(_ *sys.Cred, d []byte, _ int64) (int, error)  { return len(d), nil }
func (echoDevice) Ioctl(_ *sys.Cred, cmd, arg uint64) (uint64, error)   { return cmd + arg, nil }

func TestMmap(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	content := bytes.Repeat([]byte("ab"), 512)
	if err := k.WriteFile("/tmp/m", 0o644, content); err != nil {
		t.Fatal(err)
	}
	fd, _ := task.Open("/tmp/m", vfs.ORdonly, 0)
	m, err := task.Mmap(fd, 1024, sys.MayRead)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m, content) {
		t.Error("mapped content mismatch")
	}
	// MAP_PRIVATE: mutating the mapping does not touch the file.
	m[0] = 'X'
	data, _ := task.ReadFileAll("/tmp/m")
	if data[0] != 'a' {
		t.Error("mmap write leaked into file")
	}
	if _, err := task.Mmap(fd, 0, sys.MayRead); !sys.IsErrno(err, sys.EINVAL) {
		t.Errorf("zero-length mmap: %v", err)
	}
}

func TestPipeBasics(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	rfd, wfd, err := task.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.Write(wfd, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := task.Read(rfd, buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("pipe read: %q, %v", buf[:n], err)
	}
	// Close the write end: reads return EOF (0, nil).
	task.Close(wfd)
	if n, err := task.Read(rfd, buf); n != 0 || err != nil {
		t.Fatalf("read after writer close: %d, %v", n, err)
	}
	// Wrong-direction I/O.
	if _, err := task.Write(rfd, []byte("x")); !sys.IsErrno(err, sys.EBADF) {
		t.Errorf("write on read end: %v", err)
	}
}

func TestPipeEPIPE(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	rfd, wfd, _ := task.Pipe()
	task.Close(rfd)
	if _, err := task.Write(wfd, []byte("x")); !sys.IsErrno(err, sys.EPIPE) {
		t.Errorf("write after reader close: %v", err)
	}
}

func TestPipeBlockingBackpressure(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	rfd, wfd, _ := task.Pipe()
	payload := make([]byte, PipeCapacity+1024)
	done := make(chan error, 1)
	go func() {
		_, err := task.Write(wfd, payload)
		done <- err
	}()
	// Drain until the writer finishes.
	buf := make([]byte, 4096)
	total := 0
	for total < len(payload) {
		n, err := task.Read(rfd, buf)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPipeSurvivesForkExit(t *testing.T) {
	k := bootKernel(t)
	root := k.Init()
	rfd, wfd, _ := root.Pipe()
	child, _ := root.Fork()
	// Child exits; both ends must stay usable through the parent.
	child.Exit()
	if _, err := root.Write(wfd, []byte("x")); err != nil {
		t.Fatalf("write after child exit: %v", err)
	}
	buf := make([]byte, 1)
	if _, err := root.Read(rfd, buf); err != nil {
		t.Fatalf("read after child exit: %v", err)
	}
}

func TestSocketPair(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	a, b, err := task.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.Send(a, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := task.Recv(b, buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("recv: %q, %v", buf[:n], err)
	}
	// Duplex: the other direction works too.
	task.Send(b, []byte("yo"))
	n, _ = task.Recv(a, buf)
	if string(buf[:n]) != "yo" {
		t.Errorf("reverse direction = %q", buf[:n])
	}
}

func TestTCPListenConnect(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	lfd, err := task.Socket(AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	const addr = "tcp:127.0.0.1:8080"
	if err := task.Bind(lfd, addr); err != nil {
		t.Fatal(err)
	}
	if err := task.Listen(lfd, 4); err != nil {
		t.Fatal(err)
	}
	// Second bind to the same address fails.
	lfd2, _ := task.Socket(AFInet, SockStream)
	task.Bind(lfd2, addr)
	if err := task.Listen(lfd2, 4); !sys.IsErrno(err, sys.EADDRINUSE) {
		t.Errorf("duplicate listen: %v", err)
	}

	type acc struct {
		fd  int
		err error
	}
	accCh := make(chan acc, 1)
	go func() {
		fd, err := task.Accept(lfd)
		accCh <- acc{fd, err}
	}()
	cfd, err := task.Socket(AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Connect(cfd, addr); err != nil {
		t.Fatal(err)
	}
	a := <-accCh
	if a.err != nil {
		t.Fatal(a.err)
	}
	task.Send(cfd, []byte("req"))
	buf := make([]byte, 8)
	n, _ := task.Recv(a.fd, buf)
	if string(buf[:n]) != "req" {
		t.Errorf("server got %q", buf[:n])
	}
	task.Send(a.fd, []byte("resp"))
	n, _ = task.Recv(cfd, buf)
	if string(buf[:n]) != "resp" {
		t.Errorf("client got %q", buf[:n])
	}
}

func TestConnectRefused(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	fd, _ := task.Socket(AFUnix, SockStream)
	if err := task.Connect(fd, "unix:/absent.sock"); !sys.IsErrno(err, sys.ECONNREFUSED) {
		t.Errorf("connect to absent: %v", err)
	}
}

func TestSocketOnNonSocket(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	fd, _ := task.Open("/tmp/f", vfs.OCreat|vfs.ORdwr, 0o644)
	if _, err := task.Send(fd, []byte("x")); !sys.IsErrno(err, sys.ENOTSOCK) {
		t.Errorf("send on file: %v", err)
	}
	if err := task.Bind(fd, "tcp:x"); !sys.IsErrno(err, sys.ENOTSOCK) {
		t.Errorf("bind on file: %v", err)
	}
}

func TestFDLimit(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	if err := k.WriteFile("/tmp/f", 0o644, nil); err != nil {
		t.Fatal(err)
	}
	fds := make([]int, 0, MaxFDs)
	for {
		fd, err := task.Open("/tmp/f", vfs.ORdonly, 0)
		if err != nil {
			if !sys.IsErrno(err, sys.EMFILE) {
				t.Fatalf("unexpected error at %d fds: %v", len(fds), err)
			}
			break
		}
		fds = append(fds, fd)
	}
	if len(fds) != MaxFDs {
		t.Errorf("opened %d fds before EMFILE, want %d", len(fds), MaxFDs)
	}
	for _, fd := range fds {
		task.Close(fd)
	}
	if task.NumFDs() != 0 {
		t.Errorf("fds after close = %d", task.NumFDs())
	}
}

func TestFDReuseAfterClose(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	k.WriteFile("/tmp/f", 0o644, nil)
	fd1, _ := task.Open("/tmp/f", vfs.ORdonly, 0)
	fd2, _ := task.Open("/tmp/f", vfs.ORdonly, 0)
	task.Close(fd1)
	fd3, _ := task.Open("/tmp/f", vfs.ORdonly, 0)
	if fd3 != fd1 {
		t.Errorf("lowest free fd not reused: got %d, want %d", fd3, fd1)
	}
	task.Close(fd2)
	task.Close(fd3)
}

func TestConcurrentForkExit(t *testing.T) {
	k := bootKernel(t)
	root := k.Init()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				child, err := root.Fork()
				if err != nil {
					t.Errorf("fork: %v", err)
					return
				}
				child.Exit()
			}
		}()
	}
	wg.Wait()
	if k.NumTasks() != 1 {
		t.Errorf("tasks = %d, want 1", k.NumTasks())
	}
}

func TestWriteFileAllReadFileAll(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	payload := bytes.Repeat([]byte("0123456789"), 1000)
	if err := task.WriteFileAll("/tmp/big", payload, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := task.ReadFileAll("/tmp/big")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: %d bytes, %v", len(got), err)
	}
}

func TestWriteFileCreatesParents(t *testing.T) {
	k := bootKernel(t)
	if err := k.WriteFile("/deeply/nested/path/file", 0o644, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !k.FS.Exists("/deeply/nested/path/file") {
		t.Fatal("file missing")
	}
}

func TestExitIdempotent(t *testing.T) {
	k := bootKernel(t)
	child, _ := k.Init().Fork()
	child.Exit()
	child.Exit() // must not panic or double-release
	if _, err := child.Open("/tmp", vfs.ORdonly, 0); err == nil {
		// Open on an exited task is allowed to fail or succeed at the fd
		// stage; installFD rejects it.
		t.Log("open after exit unexpectedly succeeded")
	}
}

func TestGetpidDistinct(t *testing.T) {
	k := bootKernel(t)
	root := k.Init()
	seen := map[int]bool{root.Getpid(): true}
	for i := 0; i < 10; i++ {
		c, _ := root.Fork()
		if seen[c.Getpid()] {
			t.Fatalf("pid %d reused", c.Getpid())
		}
		seen[c.Getpid()] = true
	}
}

func TestDeviceRegistrationErrors(t *testing.T) {
	k := bootKernel(t)
	if _, err := k.RegisterDevice("/dev/x", 0o666, echoDevice{}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.RegisterDevice("/dev/x", 0o666, echoDevice{}); !sys.IsErrno(err, sys.EEXIST) {
		t.Errorf("duplicate device: %v", err)
	}
}

func TestManyTasksManyFiles(t *testing.T) {
	k := bootKernel(t)
	root := k.Init()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			task, err := root.Fork()
			if err != nil {
				t.Error(err)
				return
			}
			defer task.Exit()
			for i := 0; i < 100; i++ {
				p := fmt.Sprintf("/tmp/t%d-%d", g, i)
				if err := task.WriteFileAll(p, []byte{byte(i)}, 0o644); err != nil {
					t.Errorf("write %s: %v", p, err)
					return
				}
				if err := task.Unlink(p); err != nil {
					t.Errorf("unlink %s: %v", p, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSocketEdgeCases(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	// Unsupported family/type.
	if _, err := task.Socket(99, SockStream); !sys.IsErrno(err, sys.EINVAL) {
		t.Errorf("bad family: %v", err)
	}
	if _, err := task.Socket(AFUnix, 7); !sys.IsErrno(err, sys.EINVAL) {
		t.Errorf("bad type: %v", err)
	}
	// Send/recv on an unconnected socket.
	fd, err := task.Socket(AFUnix, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.Send(fd, []byte("x")); !sys.IsErrno(err, sys.EPIPE) {
		t.Errorf("send unconnected: %v", err)
	}
	if _, err := task.Recv(fd, make([]byte, 1)); !sys.IsErrno(err, sys.EINVAL) {
		t.Errorf("recv unconnected: %v", err)
	}
	// Listen without bind.
	if err := task.Listen(fd, 4); !sys.IsErrno(err, sys.EINVAL) {
		t.Errorf("listen unbound: %v", err)
	}
	// Double bind.
	if err := task.Bind(fd, "unix:/a"); err != nil {
		t.Fatal(err)
	}
	if err := task.Bind(fd, "unix:/b"); !sys.IsErrno(err, sys.EINVAL) {
		t.Errorf("double bind: %v", err)
	}
}

func TestSocketReadWriteThroughFDs(t *testing.T) {
	// read(2)/write(2) on socket descriptors behave like recv/send.
	k := bootKernel(t)
	task := k.Init()
	a, b, err := task.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.Write(a, []byte("via-write")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := task.Read(b, buf)
	if err != nil || string(buf[:n]) != "via-write" {
		t.Fatalf("read: %q, %v", buf[:n], err)
	}
}

func TestSocketCloseGivesPeerEOF(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	a, b, err := task.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	task.Send(a, []byte("bye"))
	task.Close(a)
	buf := make([]byte, 8)
	n, err := task.Recv(b, buf)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("drain: %q, %v", buf[:n], err)
	}
	// Subsequent recv returns EOF (0, nil), like a closed stream.
	if n, err := task.Recv(b, buf); n != 0 || err != nil {
		t.Fatalf("post-close recv: %d, %v", n, err)
	}
}

// denyNet is an LSM module that forbids all socket activity — exercising
// the socket hook chain end to end.
type denyNet struct{ lsm.Base }

func (denyNet) Name() string                               { return "denynet" }
func (denyNet) SocketCreate(*sys.Cred, int, int) error     { return sys.EACCES }
func (denyNet) SocketConnect(*sys.Cred, string) error      { return sys.EACCES }
func (denyNet) SocketSendmsg(*sys.Cred, string, int) error { return sys.EACCES }

func TestSocketHooksEnforced(t *testing.T) {
	k := New()
	if err := k.Boot(denyNet{}); err != nil {
		t.Fatal(err)
	}
	task := k.Init()
	if _, err := task.Socket(AFUnix, SockStream); !sys.IsErrno(err, sys.EACCES) {
		t.Errorf("socket hook bypassed: %v", err)
	}
	if _, _, err := task.SocketPair(); !sys.IsErrno(err, sys.EACCES) {
		t.Errorf("socketpair hook bypassed: %v", err)
	}
}

func TestRenameSyscall(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	if err := task.WriteFileAll("/tmp/old", []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := task.Rename("/tmp/old", "/tmp/new"); err != nil {
		t.Fatal(err)
	}
	data, err := task.ReadFileAll("/tmp/new")
	if err != nil || string(data) != "v" {
		t.Fatalf("moved content: %q, %v", data, err)
	}
	if err := task.Rename("/tmp/absent", "/tmp/x"); !sys.IsErrno(err, sys.ENOENT) {
		t.Errorf("rename absent: %v", err)
	}
	// Unprivileged task cannot rename out of a root-owned directory.
	if err := k.WriteFile("/etc/conf2", 0o644, []byte("c")); err != nil {
		t.Fatal(err)
	}
	user, _ := task.Fork()
	user.SetUID(1000, 1000)
	if err := user.Rename("/etc/conf2", "/tmp/stolen"); !sys.IsErrno(err, sys.EACCES) {
		t.Errorf("unprivileged rename: %v", err)
	}
}

func TestRenameMediatedByLSM(t *testing.T) {
	k := New()
	if err := k.Boot(denyUnlink{}); err != nil {
		t.Fatal(err)
	}
	task := k.Init()
	if err := task.WriteFileAll("/tmp/pinned", []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := task.Rename("/tmp/pinned", "/tmp/elsewhere"); !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("LSM bypassed on rename: %v", err)
	}
}

// denyUnlink vetoes every unlink (and therefore rename sources).
type denyUnlink struct{ lsm.Base }

func (denyUnlink) Name() string { return "denyunlink" }
func (denyUnlink) InodeUnlink(*sys.Cred, *vfs.Inode, string, *vfs.Inode) error {
	return sys.EACCES
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	lfd, _ := task.Socket(AFUnix, SockStream)
	if err := task.Bind(lfd, "unix:/closing"); err != nil {
		t.Fatal(err)
	}
	if err := task.Listen(lfd, 2); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		_, err := task.Accept(lfd)
		done <- err
	}()
	<-started
	task.Close(lfd)
	// Accept must not hang: it returns EINVAL if it was already blocked
	// on the backlog, or EBADF if the close won the race to the fd table.
	if err := <-done; !sys.IsErrno(err, sys.EINVAL) && !sys.IsErrno(err, sys.EBADF) {
		t.Fatalf("accept after close: %v", err)
	}
	// The address is reusable afterwards.
	lfd2, _ := task.Socket(AFUnix, SockStream)
	if err := task.Bind(lfd2, "unix:/closing"); err != nil {
		t.Fatal(err)
	}
	if err := task.Listen(lfd2, 2); err != nil {
		t.Fatalf("relisten: %v", err)
	}
	// Connect after a listener vanishes is refused.
	task.Close(lfd2)
	cfd, _ := task.Socket(AFUnix, SockStream)
	if err := task.Connect(cfd, "unix:/closing"); !sys.IsErrno(err, sys.ECONNREFUSED) {
		t.Fatalf("connect to closed: %v", err)
	}
}

func TestMetricsFileReadableInSimulation(t *testing.T) {
	k := New()
	if err := k.WriteFile("/tmp/m.dat", 0o644, []byte("x")); err != nil {
		t.Fatal(err)
	}
	task := k.Init()
	// Generate some hook traffic first.
	for i := 0; i < 5; i++ {
		fd, err := task.Open("/tmp/m.dat", vfs.ORdonly, 0)
		if err != nil {
			t.Fatal(err)
		}
		task.Close(fd)
	}
	out, err := task.ReadFileAll(MetricsFile)
	if err != nil {
		t.Fatalf("reading %s: %v", MetricsFile, err)
	}
	text := string(out)
	for _, frag := range []string{"hook inode_permission", "hook file_open", "calls=", "avg_ns=", "p99_ns<="} {
		if !strings.Contains(text, frag) {
			t.Errorf("metrics file missing %q:\n%s", frag, text)
		}
	}
}

// Every path syscall rejects a path SplitPath rejects with SplitPath's
// errno, before any LSM hook runs: an invalid path must never resolve
// to the root directory.
func TestInvalidPathRejected(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	if err := task.WriteFileAll("/tmp/src", []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		path string
		want sys.Errno
	}{
		{"", sys.EINVAL},
		{"relative/x", sys.EINVAL},
		{"/tmp/../etc", sys.EINVAL},
		{"/..", sys.EINVAL},
		{"/" + strings.Repeat("a", 300), sys.ENAMETOOLONG},
		{"/tmp/" + strings.Repeat("a", vfs.MaxNameLen+1) + "/x", sys.ENAMETOOLONG},
	}
	syscalls := []struct {
		name string
		call func(path string) error
	}{
		{"open", func(p string) error { _, err := task.Open(p, vfs.ORdonly, 0); return err }},
		{"open-creat", func(p string) error { _, err := task.Open(p, vfs.OCreat|vfs.OWronly, 0o644); return err }},
		{"stat", func(p string) error { _, err := task.Stat(p); return err }},
		{"exec", func(p string) error { return task.Exec(p) }},
		{"unlink", func(p string) error { return task.Unlink(p) }},
		{"mkdir", func(p string) error { return task.Mkdir(p, 0o755) }},
		{"rmdir", func(p string) error { return task.Rmdir(p) }},
		{"rename-from", func(p string) error { return task.Rename(p, "/tmp/dst") }},
		{"rename-to", func(p string) error { return task.Rename("/tmp/src", p) }},
	}
	hookCalls := func() (n uint64) {
		for _, st := range k.LSM.Metrics().Snapshot() {
			n += st.Calls
		}
		return n
	}
	fds := task.NumFDs()
	for _, sc := range syscalls {
		for _, p := range paths {
			before := hookCalls()
			if err := sc.call(p.path); !sys.IsErrno(err, p.want) {
				t.Errorf("%s(%.20q): %v, want %v", sc.name, p.path, err, p.want)
			}
			if n := hookCalls() - before; n != 0 {
				t.Errorf("%s(%.20q) ran %d LSM hooks", sc.name, p.path, n)
			}
		}
	}
	if n := task.NumFDs(); n != fds {
		t.Errorf("invalid paths left %d descriptors open", n-fds)
	}
}

// Descriptor slots are updated in place while lock-free readers resolve
// fds: readers on a long-lived fd, openers and closers that push the
// table through several growths, and a forker copying the table must
// never see a torn or foreign slot. Run under -race (make
// parallel-stress).
func TestFDTableConcurrentInPlace(t *testing.T) {
	k := bootKernel(t)
	task := k.Init()
	const openers, perOpener, rounds = 4, 40, 20
	if err := task.WriteFileAll("/tmp/long", []byte("long"), 0o644); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < openers; g++ {
		if err := task.WriteFileAll(fmt.Sprintf("/tmp/f%d", g), []byte{byte('0' + g)}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	long, err := task.Open("/tmp/long", vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := task.NumFDs()
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default: // enough failures recorded already
		}
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			buf := make([]byte, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n, err := task.Pread(long, buf, 0); err != nil || string(buf[:n]) != "long" {
					fail(fmt.Errorf("pread long fd: %q, %v", buf[:n], err))
					return
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		buf := make([]byte, 8)
		for {
			select {
			case <-stop:
				return
			default:
			}
			child, err := task.Fork()
			if err != nil {
				fail(err)
				return
			}
			if n := child.NumFDs(); n < base || n > base+openers*perOpener {
				fail(fmt.Errorf("child NumFDs = %d", n))
			}
			if n, err := child.Pread(long, buf, 0); err != nil || string(buf[:n]) != "long" {
				fail(fmt.Errorf("child pread long fd: %q, %v", buf[:n], err))
			}
			child.Exit()
			if n := task.NumFDs(); n < base || n > base+openers*perOpener {
				fail(fmt.Errorf("NumFDs = %d", n))
				return
			}
		}
	}()
	for g := 0; g < openers; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			path := fmt.Sprintf("/tmp/f%d", g)
			buf := make([]byte, 4)
			for r := 0; r < rounds; r++ {
				fds := make([]int, 0, perOpener)
				for i := 0; i < perOpener; i++ {
					fd, err := task.Open(path, vfs.ORdonly, 0)
					if err != nil {
						fail(err)
						return
					}
					fds = append(fds, fd)
				}
				for _, fd := range fds {
					if n, err := task.Pread(fd, buf, 0); err != nil || n != 1 || buf[0] != byte('0'+g) {
						fail(fmt.Errorf("fd %d of %s reads %q, %v", fd, path, buf[:n], err))
						return
					}
					if err := task.Close(fd); err != nil {
						fail(err)
						return
					}
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := task.NumFDs(); n != base {
		t.Errorf("NumFDs = %d after all closes, want %d", n, base)
	}
}
