// Package lmbench reimplements the LMBench micro-operations the paper's
// Tables II and III, Fig. 3(a) and §IV-B report, against the simulated
// kernel. Each operation exercises the same syscall path — and
// therefore the same LSM hook chain — as its real counterpart, so the
// relative overhead between security-module configurations is
// meaningful even though absolute numbers reflect the simulator rather
// than silicon.
//
// The package is an operation list, not a timer: each Op runs n
// iterations of its loop and tells a Timer (a *testing.B in
// bench_test.go, a no-op in unit tests) where its set-up ends, so the
// Go benchmark harness does the timing, the repetition and the MB/s.
package lmbench

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// Timer is the part of *testing.B an operation drives: ResetTimer once
// set-up is done, StopTimer/StartTimer around work inside the loop that
// is not the operation itself.
type Timer interface {
	ResetTimer()
	StartTimer()
	StopTimer()
}

// Op is one paper row.
type Op struct {
	Name string
	// Bytes is the volume one iteration moves, for b.SetBytes; zero for
	// latency rows.
	Bytes int64
	// Run performs n iterations of the operation on s.
	Run func(s *Suite, n int, t Timer) error
}

// Suite holds one booted kernel configuration and the task the
// operations run as.
type Suite struct {
	K    *kernel.Kernel
	Task *kernel.Task
}

// NewSuite prepares a suite on the kernel's init task and creates the
// scratch fixtures the file operations need.
func NewSuite(k *kernel.Kernel) (*Suite, error) {
	s := &Suite{K: k, Task: k.Init()}
	if err := k.WriteFile(dataFile, 0o644, make([]byte, 1<<20)); err != nil {
		return nil, err
	}
	if err := k.WriteFile("/usr/bin/lmbench-exec", 0o755, []byte("#!bench")); err != nil {
		return nil, err
	}
	if _, err := k.FS.MkdirAll(fileDir, 0o1777, 0, 0); err != nil {
		return nil, err
	}
	return s, nil
}

const (
	dataFile = "/tmp/lmbench.dat" // 1 MiB, read by most rows
	fileDir  = "/tmp/lmbench"     // where the create/delete rows work
	block    = 64 << 10           // bandwidth and mmap-latency block size
	// fileBatch bounds how many files a create or delete row holds at
	// once: a long run cycles through one batch of names instead of
	// keeping b.N files (b.N × 10 KiB for the 10K rows) alive.
	fileBatch = 1024
)

// Table2 is Table II's 17 rows, in the paper's order.
var Table2 = []Op{
	opSyscall, opFork, opStat, opOpenClose, opExec,
	opCreate0K, opDelete0K, opCreate10K, opDelete10K, opMmap,
	opPipe, opUnix, opTCP, opFileReread, opMmapReread,
	opCtxSwitch0K, opCtxSwitch16K,
}

// Table3 is Table III's 14 rows: Table II without fork, stat,
// open/close and exec, with the I/O row.
var Table3 = []Op{
	opSyscall, opIO,
	opCreate0K, opDelete0K, opCreate10K, opDelete10K, opMmap,
	opPipe, opUnix, opTCP, opFileReread, opMmapReread,
	opCtxSwitch0K, opCtxSwitch16K,
}

// Fig3a is Fig. 3(a)'s file-operation workload, the one most sensitive
// to SACK's path-mediation hooks.
var Fig3a = []Op{opOpenClose, opStat, opCreate0K, opDelete0K, opFileReread}

// NoLSM is the §IV-B board comparison (R1): 4 KiB file read and write
// on an open descriptor.
var NoLSM = []Op{
	{Name: "read-4K", Run: func(s *Suite, n int, t Timer) error { return s.ReadWrite4K(n, t, false) }},
	{Name: "write-4K", Run: func(s *Suite, n int, t Timer) error { return s.ReadWrite4K(n, t, true) }},
}

var (
	opSyscall      = Op{Name: "syscall", Run: (*Suite).Syscall}
	opIO           = Op{Name: "io", Run: (*Suite).IO}
	opFork         = Op{Name: "fork", Run: (*Suite).Fork}
	opStat         = Op{Name: "stat", Run: (*Suite).Stat}
	opOpenClose    = Op{Name: "open-close", Run: (*Suite).OpenClose}
	opExec         = Op{Name: "exec", Run: (*Suite).Exec}
	opCreate0K     = sized("create-0K", 0, (*Suite).FileCreate)
	opDelete0K     = sized("delete-0K", 0, (*Suite).FileDelete)
	opCreate10K    = sized("create-10K", 10<<10, (*Suite).FileCreate)
	opDelete10K    = sized("delete-10K", 10<<10, (*Suite).FileDelete)
	opMmap         = Op{Name: "mmap", Run: (*Suite).MmapLatency}
	opPipe         = Op{Name: "pipe", Bytes: block, Run: (*Suite).PipeBandwidth}
	opUnix         = Op{Name: "AF_UNIX", Bytes: block, Run: (*Suite).UnixBandwidth}
	opTCP          = Op{Name: "TCP", Bytes: block, Run: (*Suite).TCPBandwidth}
	opFileReread   = Op{Name: "file-reread", Bytes: 1 << 20, Run: (*Suite).FileReread}
	opMmapReread   = Op{Name: "mmap-reread", Bytes: 1 << 20, Run: (*Suite).MmapReread}
	opCtxSwitch0K  = sized("ctxsw-2p-0K", 0, (*Suite).CtxSwitch)
	opCtxSwitch16K = sized("ctxsw-2p-16K", 16<<10, (*Suite).CtxSwitch)
)

// sized binds the size (file size or ctxsw payload) of an operation.
func sized(name string, size int, run func(s *Suite, size, n int, t Timer) error) Op {
	return Op{Name: name, Run: func(s *Suite, n int, t Timer) error { return run(s, size, n, t) }}
}

// Syscall runs n null system calls: getpid through the task layer. No
// LSM hook runs on getpid, and in the simulator it is a field read, so
// this row measures the harness floor rather than any module.
func (s *Suite) Syscall(n int, t Timer) error {
	for i := 0; i < n; i++ {
		s.Task.Getpid()
	}
	return nil
}

// IO runs n 1-byte read+write round trips on an open file (Table III's
// "I/O" row): two FilePermission hook traversals per iteration.
func (s *Suite) IO(n int, t Timer) error {
	fd, err := s.Task.Open(dataFile, vfs.ORdwr, 0)
	if err != nil {
		return err
	}
	defer s.Task.Close(fd)
	buf := make([]byte, 1)
	t.ResetTimer()
	for i := 0; i < n; i++ {
		if _, err := s.Task.Pread(fd, buf, 0); err != nil {
			return err
		}
		if _, err := s.Task.Pwrite(fd, buf, 0); err != nil {
			return err
		}
	}
	return nil
}

// ReadWrite4K runs n 4 KiB preads (or pwrites, if write) at offset 0 of
// an open file.
func (s *Suite) ReadWrite4K(n int, t Timer, write bool) error {
	fd, err := s.Task.Open(dataFile, vfs.ORdwr, 0)
	if err != nil {
		return err
	}
	defer s.Task.Close(fd)
	buf := make([]byte, 4096)
	op := s.Task.Pread
	if write {
		op = s.Task.Pwrite
	}
	t.ResetTimer()
	for i := 0; i < n; i++ {
		if _, err := op(fd, buf, 0); err != nil {
			return err
		}
	}
	return nil
}

// Fork runs n process creations (fork + exit).
func (s *Suite) Fork(n int, t Timer) error {
	for i := 0; i < n; i++ {
		child, err := s.Task.Fork()
		if err != nil {
			return err
		}
		child.Exit()
	}
	return nil
}

// Stat runs n path resolutions plus the InodeGetattr hook.
func (s *Suite) Stat(n int, t Timer) error {
	for i := 0; i < n; i++ {
		if _, err := s.Task.Stat(dataFile); err != nil {
			return err
		}
	}
	return nil
}

// OpenClose runs n open(2)+close(2) pairs: InodePermission + FileOpen
// hooks.
func (s *Suite) OpenClose(n int, t Timer) error {
	for i := 0; i < n; i++ {
		fd, err := s.Task.Open(dataFile, vfs.ORdonly, 0)
		if err != nil {
			return err
		}
		if err := s.Task.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

// Exec runs n program executions: fork + exec + exit (BprmCheck hook).
func (s *Suite) Exec(n int, t Timer) error {
	for i := 0; i < n; i++ {
		child, err := s.Task.Fork()
		if err != nil {
			return err
		}
		err = child.Exec("/usr/bin/lmbench-exec")
		child.Exit()
		if err != nil {
			return err
		}
	}
	return nil
}

// FileCreate times creating n size-byte files (InodeCreate + write
// path), like lmbench's lat_fs create phase. Each batch is unlinked
// with the timer stopped.
func (s *Suite) FileCreate(size, n int, t Timer) error {
	return s.files(size, n, t, true)
}

// FileDelete times unlinking n size-byte files, each batch created with
// the timer stopped, like lat_fs's delete phase.
func (s *Suite) FileDelete(size, n int, t Timer) error {
	return s.files(size, n, t, false)
}

// files creates and unlinks n files in batches of at most fileBatch,
// timing only the creates (timeCreate) or only the unlinks. The names
// are built before any timing starts.
func (s *Suite) files(size, n int, t Timer, timeCreate bool) error {
	t.StopTimer()
	names := make([]string, min(n, fileBatch))
	for i := range names {
		names[i] = fmt.Sprintf("%s/f%d", fileDir, i)
	}
	payload := make([]byte, size)
	for left := n; left > 0; left -= len(names) {
		batch := names[:min(left, len(names))]
		if timeCreate {
			t.StartTimer()
		}
		for _, name := range batch {
			if err := s.Task.WriteFileAll(name, payload, 0o644); err != nil {
				return err
			}
		}
		if timeCreate {
			t.StopTimer()
		} else {
			t.StartTimer()
		}
		for _, name := range batch {
			if err := s.Task.Unlink(name); err != nil {
				return err
			}
		}
		t.StopTimer()
	}
	return nil
}

// MmapLatency runs n maps of a 64 KiB window with every page touched
// (MmapFile hook + copy), like lat_mmap.
func (s *Suite) MmapLatency(n int, t Timer) error {
	fd, err := s.Task.Open(dataFile, vfs.ORdonly, 0)
	if err != nil {
		return err
	}
	defer s.Task.Close(fd)
	var sink byte
	t.ResetTimer()
	for i := 0; i < n; i++ {
		m, err := s.Task.Mmap(fd, block, sys.MayRead)
		if err != nil {
			return err
		}
		for off := 0; off < len(m); off += 4096 {
			sink ^= m[off]
		}
	}
	_ = sink
	return nil
}

// PipeBandwidth moves n 64 KiB blocks through a pipe.
func (s *Suite) PipeBandwidth(n int, t Timer) error {
	rfd, wfd, err := s.Task.Pipe()
	if err != nil {
		return err
	}
	defer s.Task.Close(rfd)
	defer s.Task.Close(wfd)
	return stream(n, t,
		func(p []byte) (int, error) { return s.Task.Write(wfd, p) },
		func(p []byte) (int, error) { return s.Task.Read(rfd, p) },
	)
}

// UnixBandwidth moves n 64 KiB blocks through an AF_UNIX socketpair.
func (s *Suite) UnixBandwidth(n int, t Timer) error {
	afd, bfd, err := s.Task.SocketPair()
	if err != nil {
		return err
	}
	defer s.Task.Close(afd)
	defer s.Task.Close(bfd)
	return stream(n, t,
		func(p []byte) (int, error) { return s.Task.Send(afd, p) },
		func(p []byte) (int, error) { return s.Task.Recv(bfd, p) },
	)
}

// TCPBandwidth moves n 64 KiB blocks over a loopback TCP connection set
// up through the full listen/accept/connect path before timing starts.
func (s *Suite) TCPBandwidth(n int, t Timer) error {
	lfd, err := s.Task.Socket(kernel.AFInet, kernel.SockStream)
	if err != nil {
		return err
	}
	defer s.Task.Close(lfd)
	addr := fmt.Sprintf("tcp:127.0.0.1:%d", 40000+s.Task.Getpid())
	if err := s.Task.Bind(lfd, addr); err != nil {
		return err
	}
	if err := s.Task.Listen(lfd, 1); err != nil {
		return err
	}
	cfd, err := s.Task.Socket(kernel.AFInet, kernel.SockStream)
	if err != nil {
		return err
	}
	defer s.Task.Close(cfd)
	type accepted struct {
		fd  int
		err error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		fd, err := s.Task.Accept(lfd)
		acceptCh <- accepted{fd, err}
	}()
	if err := s.Task.Connect(cfd, addr); err != nil {
		return err
	}
	a := <-acceptCh
	if a.err != nil {
		return a.err
	}
	defer s.Task.Close(a.fd)
	return stream(n, t,
		func(p []byte) (int, error) { return s.Task.Send(cfd, p) },
		func(p []byte) (int, error) { return s.Task.Recv(a.fd, p) },
	)
}

// stream pumps n 64 KiB blocks from a writer goroutine to the caller's
// reader. The caller's deferred closes end the writer if the reader
// fails first.
func stream(n int, t Timer, write, read func([]byte) (int, error)) error {
	total := n * block
	errCh := make(chan error, 1)
	t.ResetTimer()
	go func() {
		buf := make([]byte, block)
		for sent := 0; sent < total; {
			m, err := write(buf)
			if err != nil {
				errCh <- err
				return
			}
			sent += m
		}
		errCh <- nil
	}()
	buf := make([]byte, block)
	for received := 0; received < total; {
		m, err := read(buf)
		if err != nil {
			return err
		}
		if m == 0 {
			return fmt.Errorf("lmbench: stream ended after %d of %d bytes", received, total)
		}
		received += m
	}
	t.StopTimer()
	return <-errCh
}

// FileReread runs n passes over the cached 1 MiB file through 64 KiB
// preads.
func (s *Suite) FileReread(n int, t Timer) error {
	fd, err := s.Task.Open(dataFile, vfs.ORdonly, 0)
	if err != nil {
		return err
	}
	defer s.Task.Close(fd)
	buf := make([]byte, block)
	t.ResetTimer()
	for i := 0; i < n; i++ {
		for off := int64(0); ; {
			m, err := s.Task.Pread(fd, buf, off)
			if err != nil {
				return err
			}
			if m == 0 {
				break
			}
			off += int64(m)
		}
	}
	return nil
}

// MmapReread runs n scans over the mapped 1 MiB file.
func (s *Suite) MmapReread(n int, t Timer) error {
	fd, err := s.Task.Open(dataFile, vfs.ORdonly, 0)
	if err != nil {
		return err
	}
	defer s.Task.Close(fd)
	m, err := s.Task.Mmap(fd, 1<<20, sys.MayRead)
	if err != nil {
		return err
	}
	var sink byte
	t.ResetTimer()
	for i := 0; i < n; i++ {
		for off := 0; off < len(m); off += 64 {
			sink ^= m[off]
		}
	}
	_ = sink
	return nil
}

// CtxSwitch runs n 2-process round trips: the task and a forked peer
// pass a token of payload bytes (at least one) through a pair of pipes,
// lat_ctx's topology. One iteration is two switches, there and back.
func (s *Suite) CtxSwitch(payload, n int, t Timer) error {
	// Pipe A: task -> peer. Pipe B: peer -> task. The pipes must exist
	// before the fork so the peer inherits the descriptors, as lat_ctx's
	// processes do.
	arfd, awfd, err := s.Task.Pipe()
	if err != nil {
		return err
	}
	defer s.Task.Close(arfd)
	defer s.Task.Close(awfd)
	brfd, bwfd, err := s.Task.Pipe()
	if err != nil {
		return err
	}
	defer s.Task.Close(brfd)
	defer s.Task.Close(bwfd)
	peer, err := s.Task.Fork()
	if err != nil {
		return err
	}
	defer peer.Exit()

	size := max(payload, 1)
	done := make(chan error, 1)
	t.ResetTimer()
	go func() {
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			if _, err := peer.Read(arfd, buf); err != nil {
				done <- err
				return
			}
			if _, err := peer.Write(bwfd, buf); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	buf := make([]byte, size)
	for i := 0; i < n; i++ {
		if _, err := s.Task.Write(awfd, buf); err != nil {
			return err
		}
		if _, err := s.Task.Read(brfd, buf); err != nil {
			return err
		}
	}
	t.StopTimer()
	return <-done
}
