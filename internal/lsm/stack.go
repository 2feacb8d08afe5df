package lsm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sys"
	"repro/internal/vfs"
)

// ErrStackFrozen is returned by Register after Freeze: module
// registration is a boot-time operation, and the frozen dispatch table
// is what lets the hook fast path skip locking entirely.
var ErrStackFrozen = errors.New("lsm: stack frozen, registration is boot-time only")

// hookEntry pairs a module's hook implementation with its name and its
// denial counter, so a denial is counted without calling back into the
// module or looking the module up.
type hookEntry[T any] struct {
	name    string
	h       T
	denials *atomic.Uint64
}

// hookTable is an immutable snapshot of the per-hook dispatch slices —
// the simulated security_hook_heads. Register builds a new table and
// swaps it in atomically; the hook fast path reads it with one atomic
// load and then only touches modules that actually implement the hook.
type hookTable struct {
	modules []Module
	denials []*atomic.Uint64 // denials[i]: modules[i]'s denial count

	taskAlloc    []hookEntry[TaskAllocator]
	bprmCheck    []hookEntry[BprmChecker]
	capable      []hookEntry[CapableChecker]
	inodePerm    []hookEntry[InodeChecker]
	inodeCreate  []hookEntry[InodeCreateChecker]
	inodeUnlink  []hookEntry[InodeUnlinkChecker]
	inodeGetattr []hookEntry[InodeGetattrChecker]
	fileOpen     []hookEntry[FileOpenChecker]
	filePerm     []hookEntry[FileChecker]
	fileIoctl    []hookEntry[FileIoctlChecker]
	mmapFile     []hookEntry[MmapChecker]
	socket       []hookEntry[SocketChecker]
}

// clone deep-copies the dispatch slices so a new registration never
// mutates a table concurrent hook calls may be walking.
func (t *hookTable) clone() *hookTable {
	n := &hookTable{}
	n.modules = append([]Module(nil), t.modules...)
	n.denials = append([]*atomic.Uint64(nil), t.denials...)
	n.taskAlloc = append([]hookEntry[TaskAllocator](nil), t.taskAlloc...)
	n.bprmCheck = append([]hookEntry[BprmChecker](nil), t.bprmCheck...)
	n.capable = append([]hookEntry[CapableChecker](nil), t.capable...)
	n.inodePerm = append([]hookEntry[InodeChecker](nil), t.inodePerm...)
	n.inodeCreate = append([]hookEntry[InodeCreateChecker](nil), t.inodeCreate...)
	n.inodeUnlink = append([]hookEntry[InodeUnlinkChecker](nil), t.inodeUnlink...)
	n.inodeGetattr = append([]hookEntry[InodeGetattrChecker](nil), t.inodeGetattr...)
	n.fileOpen = append([]hookEntry[FileOpenChecker](nil), t.fileOpen...)
	n.filePerm = append([]hookEntry[FileChecker](nil), t.filePerm...)
	n.fileIoctl = append([]hookEntry[FileIoctlChecker](nil), t.fileIoctl...)
	n.mmapFile = append([]hookEntry[MmapChecker](nil), t.mmapFile...)
	n.socket = append([]hookEntry[SocketChecker](nil), t.socket...)
	return n
}

// add files a module into the dispatch slice of every hook interface it
// implements. Called once per module at registration — this is the
// single point where capability type assertions happen.
func (t *hookTable) add(m Module) {
	t.modules = append(t.modules, m)
	name := m.Name()
	denials := new(atomic.Uint64)
	t.denials = append(t.denials, denials)
	if h, ok := m.(TaskAllocator); ok {
		t.taskAlloc = append(t.taskAlloc, hookEntry[TaskAllocator]{name, h, denials})
	}
	if h, ok := m.(BprmChecker); ok {
		t.bprmCheck = append(t.bprmCheck, hookEntry[BprmChecker]{name, h, denials})
	}
	if h, ok := m.(CapableChecker); ok {
		t.capable = append(t.capable, hookEntry[CapableChecker]{name, h, denials})
	}
	if h, ok := m.(InodeChecker); ok {
		t.inodePerm = append(t.inodePerm, hookEntry[InodeChecker]{name, h, denials})
	}
	if h, ok := m.(InodeCreateChecker); ok {
		t.inodeCreate = append(t.inodeCreate, hookEntry[InodeCreateChecker]{name, h, denials})
	}
	if h, ok := m.(InodeUnlinkChecker); ok {
		t.inodeUnlink = append(t.inodeUnlink, hookEntry[InodeUnlinkChecker]{name, h, denials})
	}
	if h, ok := m.(InodeGetattrChecker); ok {
		t.inodeGetattr = append(t.inodeGetattr, hookEntry[InodeGetattrChecker]{name, h, denials})
	}
	if h, ok := m.(FileOpenChecker); ok {
		t.fileOpen = append(t.fileOpen, hookEntry[FileOpenChecker]{name, h, denials})
	}
	if h, ok := m.(FileChecker); ok {
		t.filePerm = append(t.filePerm, hookEntry[FileChecker]{name, h, denials})
	}
	if h, ok := m.(FileIoctlChecker); ok {
		t.fileIoctl = append(t.fileIoctl, hookEntry[FileIoctlChecker]{name, h, denials})
	}
	if h, ok := m.(MmapChecker); ok {
		t.mmapFile = append(t.mmapFile, hookEntry[MmapChecker]{name, h, denials})
	}
	if h, ok := m.(SocketChecker); ok {
		t.socket = append(t.socket, hookEntry[SocketChecker]{name, h, denials})
	}
}

// Stack is the ordered list of registered security modules — the
// simulated equivalent of the kernel's security_hook_heads populated from
// CONFIG_LSM. Registration happens at "boot" (before syscalls run);
// the hook fast path reads the dispatch table through an atomic pointer
// so checks never contend on a lock.
type Stack struct {
	mu     sync.Mutex
	table  atomic.Pointer[hookTable]
	frozen atomic.Bool

	// metrics collects per-hook call counts and latency histograms.
	metrics *Metrics
}

// NewStack returns an empty module stack.
func NewStack() *Stack {
	s := &Stack{metrics: NewMetrics()}
	s.table.Store(&hookTable{})
	return s
}

// Register appends a module to the stack. The order of registration is
// the order of consultation (whitelist stacking: first module checked
// first, first deny wins). The module is type-asserted once, here, into
// the dispatch slice of every hook interface it implements.
func (s *Stack) Register(m Module) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		return ErrStackFrozen
	}
	cur := s.table.Load()
	for _, existing := range cur.modules {
		if existing.Name() == m.Name() {
			return fmt.Errorf("lsm: module %q already registered", m.Name())
		}
	}
	next := cur.clone()
	next.add(m)
	s.table.Store(next)
	return nil
}

// Freeze seals the stack: subsequent Register calls fail with
// ErrStackFrozen. The kernel calls this at the end of boot — the same
// point where real LSM hook heads become __ro_after_init — which makes
// "registration after boot isn't supported" an enforced contract rather
// than a convention.
func (s *Stack) Freeze() { s.frozen.Store(true) }

// Frozen reports whether the stack has been sealed.
func (s *Stack) Frozen() bool { return s.frozen.Load() }

// Modules returns the registered module names in consultation order,
// matching the format of /sys/kernel/security/lsm.
func (s *Stack) Modules() []string {
	cur := s.table.Load()
	names := make([]string, len(cur.modules))
	for i, m := range cur.modules {
		names[i] = m.Name()
	}
	return names
}

// String renders the stack like CONFIG_LSM ("sack,apparmor,capability").
func (s *Stack) String() string { return strings.Join(s.Modules(), ",") }

// ModuleList returns the registered module instances in consultation
// order, for callers that need more than names — e.g. the metrics file
// asking each module for its access vector cache counters.
func (s *Stack) ModuleList() []Module {
	cur := s.table.Load()
	return append([]Module(nil), cur.modules...)
}

// Registered reports, in consultation order, the modules wired into the
// given hook's dispatch slice — introspection for tests and the metrics
// file.
func (s *Stack) Registered(h HookID) []string {
	t := s.table.Load()
	collect := func(names []string, n string) []string { return append(names, n) }
	var out []string
	switch h {
	case HookTaskAlloc:
		for _, e := range t.taskAlloc {
			out = collect(out, e.name)
		}
	case HookBprmCheck:
		for _, e := range t.bprmCheck {
			out = collect(out, e.name)
		}
	case HookCapable:
		for _, e := range t.capable {
			out = collect(out, e.name)
		}
	case HookInodePermission:
		for _, e := range t.inodePerm {
			out = collect(out, e.name)
		}
	case HookInodeCreate:
		for _, e := range t.inodeCreate {
			out = collect(out, e.name)
		}
	case HookInodeUnlink:
		for _, e := range t.inodeUnlink {
			out = collect(out, e.name)
		}
	case HookInodeGetattr:
		for _, e := range t.inodeGetattr {
			out = collect(out, e.name)
		}
	case HookFileOpen:
		for _, e := range t.fileOpen {
			out = collect(out, e.name)
		}
	case HookFilePermission:
		for _, e := range t.filePerm {
			out = collect(out, e.name)
		}
	case HookFileIoctl:
		for _, e := range t.fileIoctl {
			out = collect(out, e.name)
		}
	case HookMmapFile:
		for _, e := range t.mmapFile {
			out = collect(out, e.name)
		}
	case HookSocketCreate, HookSocketConnect, HookSocketSendmsg:
		for _, e := range t.socket {
			out = collect(out, e.name)
		}
	}
	return out
}

// Metrics exposes the stack's hook metrics sink.
func (s *Stack) Metrics() *Metrics { return s.metrics }

// Denials reports how many hook calls the named module has denied.
func (s *Stack) Denials(module string) uint64 {
	t := s.table.Load()
	for i, m := range t.modules {
		if m.Name() == module {
			return t.denials[i].Load()
		}
	}
	return 0
}

// Each hook method below walks its dispatch slice in order and returns
// the first error. The loops are written out per hook (rather than
// through a generic closure) to keep the fast path free of allocations;
// each brackets its walk with begin/end so the metrics layer counts the
// call and times a sample of them.

// TaskAlloc invokes the fork hook chain.
func (s *Stack) TaskAlloc(parent, child *sys.Cred) error {
	hm, start := s.metrics.begin(HookTaskAlloc)
	var err error
	for _, e := range s.table.Load().taskAlloc {
		if err = e.h.TaskAlloc(parent, child); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// BprmCheck invokes the exec hook chain.
func (s *Stack) BprmCheck(cred *sys.Cred, path string, node *vfs.Inode) error {
	hm, start := s.metrics.begin(HookBprmCheck)
	var err error
	for _, e := range s.table.Load().bprmCheck {
		if err = e.h.BprmCheck(cred, path, node); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// Capable invokes the capability hook chain.
func (s *Stack) Capable(cred *sys.Cred, c sys.Cap) error {
	hm, start := s.metrics.begin(HookCapable)
	var err error
	for _, e := range s.table.Load().capable {
		if err = e.h.Capable(cred, c); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// InodePermission invokes the path-access hook chain.
func (s *Stack) InodePermission(cred *sys.Cred, path string, node *vfs.Inode, mask sys.Access) error {
	hm, start := s.metrics.begin(HookInodePermission)
	var err error
	for _, e := range s.table.Load().inodePerm {
		if err = e.h.InodePermission(cred, path, node, mask); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// InodeCreate invokes the create hook chain.
func (s *Stack) InodeCreate(cred *sys.Cred, dir *vfs.Inode, path string, mode vfs.Mode) error {
	hm, start := s.metrics.begin(HookInodeCreate)
	var err error
	for _, e := range s.table.Load().inodeCreate {
		if err = e.h.InodeCreate(cred, dir, path, mode); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// InodeUnlink invokes the unlink hook chain.
func (s *Stack) InodeUnlink(cred *sys.Cred, dir *vfs.Inode, path string, node *vfs.Inode) error {
	hm, start := s.metrics.begin(HookInodeUnlink)
	var err error
	for _, e := range s.table.Load().inodeUnlink {
		if err = e.h.InodeUnlink(cred, dir, path, node); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// InodeGetattr invokes the stat hook chain.
func (s *Stack) InodeGetattr(cred *sys.Cred, path string, node *vfs.Inode) error {
	hm, start := s.metrics.begin(HookInodeGetattr)
	var err error
	for _, e := range s.table.Load().inodeGetattr {
		if err = e.h.InodeGetattr(cred, path, node); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// FileOpen invokes the open hook chain.
func (s *Stack) FileOpen(cred *sys.Cred, f *vfs.File) error {
	hm, start := s.metrics.begin(HookFileOpen)
	var err error
	for _, e := range s.table.Load().fileOpen {
		if err = e.h.FileOpen(cred, f); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// FilePermission invokes the per-I/O hook chain.
func (s *Stack) FilePermission(cred *sys.Cred, f *vfs.File, mask sys.Access) error {
	hm, start := s.metrics.begin(HookFilePermission)
	var err error
	for _, e := range s.table.Load().filePerm {
		if err = e.h.FilePermission(cred, f, mask); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// FileIoctl invokes the ioctl hook chain.
func (s *Stack) FileIoctl(cred *sys.Cred, f *vfs.File, cmd uint64) error {
	hm, start := s.metrics.begin(HookFileIoctl)
	var err error
	for _, e := range s.table.Load().fileIoctl {
		if err = e.h.FileIoctl(cred, f, cmd); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// MmapFile invokes the mmap hook chain.
func (s *Stack) MmapFile(cred *sys.Cred, f *vfs.File, prot sys.Access) error {
	hm, start := s.metrics.begin(HookMmapFile)
	var err error
	for _, e := range s.table.Load().mmapFile {
		if err = e.h.MmapFile(cred, f, prot); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// SocketCreate invokes the socket-creation hook chain.
func (s *Stack) SocketCreate(cred *sys.Cred, family, typ int) error {
	hm, start := s.metrics.begin(HookSocketCreate)
	var err error
	for _, e := range s.table.Load().socket {
		if err = e.h.SocketCreate(cred, family, typ); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// SocketConnect invokes the connect hook chain.
func (s *Stack) SocketConnect(cred *sys.Cred, addr string) error {
	hm, start := s.metrics.begin(HookSocketConnect)
	var err error
	for _, e := range s.table.Load().socket {
		if err = e.h.SocketConnect(cred, addr); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}

// SocketSendmsg invokes the sendmsg hook chain.
func (s *Stack) SocketSendmsg(cred *sys.Cred, addr string, n int) error {
	hm, start := s.metrics.begin(HookSocketSendmsg)
	var err error
	for _, e := range s.table.Load().socket {
		if err = e.h.SocketSendmsg(cred, addr, n); err != nil {
			e.denials.Add(1)
			break
		}
	}
	hm.end(start, err != nil)
	return err
}
