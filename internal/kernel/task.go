package kernel

import (
	"sync"
	"sync/atomic"

	"repro/internal/sys"
	"repro/internal/vfs"
)

// MaxFDs bounds a task's descriptor table (RLIMIT_NOFILE analogue).
const MaxFDs = 1024

// fdTable is a descriptor table: index == fd, nil == closed. Writers
// (open, close, fork, exit) hold the task mutex and update slots in
// place; only growth publishes a new, larger copy. The read side — every
// Read/Write/Ioctl/Mmap syscall resolving an fd before LSM dispatch — is
// two atomic loads plus an index, so fd resolution never holds a lock
// across permission checks.
type fdTable struct {
	files []atomic.Pointer[vfs.File]
}

// lookup resolves fd in this table.
func (tab *fdTable) lookup(fd int) *vfs.File {
	if fd < 0 || fd >= len(tab.files) {
		return nil
	}
	return tab.files[fd].Load()
}

// grown returns a copy of tab with at least n slots, doubling its size
// (minimum 8). Caller holds the task mutex.
func (tab *fdTable) grown(n int) *fdTable {
	size := max(8, 2*len(tab.files))
	for size < n {
		size *= 2
	}
	g := &fdTable{files: make([]atomic.Pointer[vfs.File], size)}
	for i := range tab.files {
		g.files[i].Store(tab.files[i].Load())
	}
	return g
}

var emptyFDTable = &fdTable{}

// Task is a simulated process: identity, credentials, and a descriptor
// table. All syscalls are methods on Task so the calling context is
// always explicit, as it is inside the kernel.
type Task struct {
	k    *Kernel
	PID  int
	PPID int
	Comm string // executable path, set by Exec

	Cred *sys.Cred

	mu     sync.Mutex // serialises descriptor-table writers and exit
	fdt    atomic.Pointer[fdTable]
	open   int // non-nil slots in fdt; guarded by mu
	nextFD int
	exited bool
}

// Getpid returns the task's pid.
func (t *Task) Getpid() int { return t.PID }

// installFD assigns the lowest free descriptor to f.
func (t *Task) installFD(f *vfs.File) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.exited {
		return -1, sys.ESRCH
	}
	if t.open >= MaxFDs {
		return -1, sys.EMFILE
	}
	tab := t.fdt.Load()
	fd := t.nextFD
	for tab.lookup(fd) != nil {
		fd++
	}
	if fd >= len(tab.files) {
		tab = tab.grown(fd + 1)
		t.fdt.Store(tab)
	}
	tab.files[fd].Store(f)
	t.open++
	t.nextFD = fd + 1
	return fd, nil
}

// file resolves a descriptor to its open-file description. Lock-free:
// reads the current table, so the hot I/O path never contends
// with opens and closes on other goroutines.
func (t *Task) file(fd int) (*vfs.File, error) {
	if f := t.fdt.Load().lookup(fd); f != nil {
		return f, nil
	}
	return nil, sys.EBADF
}

// Close releases a descriptor.
func (t *Task) Close(fd int) error {
	t.mu.Lock()
	tab := t.fdt.Load()
	f := tab.lookup(fd)
	if f == nil {
		t.mu.Unlock()
		return sys.EBADF
	}
	tab.files[fd].Store(nil)
	t.open--
	if fd < t.nextFD {
		t.nextFD = fd
	}
	t.mu.Unlock()
	releaseEndpoint(f)
	return nil
}

// NumFDs reports how many descriptors are open.
func (t *Task) NumFDs() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open
}

// Fork creates a child task: cloned credentials, copied descriptor table
// (sharing open-file descriptions, as on Linux). The TaskAlloc LSM hook
// runs before the child becomes visible.
func (t *Task) Fork() (*Task, error) {
	childCred := t.Cred.Clone()
	if err := t.k.LSM.TaskAlloc(t.Cred, childCred); err != nil {
		return nil, err
	}
	child := &Task{
		k:    t.k,
		PID:  int(t.k.nextPID.Add(1)),
		PPID: t.PID,
		Comm: t.Comm,
		Cred: childCred,
	}
	t.mu.Lock()
	tab := t.fdt.Load()
	childTab := &fdTable{files: make([]atomic.Pointer[vfs.File], len(tab.files))}
	for i := range tab.files {
		if f := tab.files[i].Load(); f != nil {
			retainEndpoint(f)
			childTab.files[i].Store(f)
		}
	}
	child.fdt.Store(childTab)
	child.open = t.open
	child.nextFD = t.nextFD
	t.mu.Unlock()
	t.k.addTask(child)
	return child, nil
}

// Exec replaces the task image with the program at path. The executable
// must exist and be executable; the BprmCheck hook lets MAC modules veto
// or relabel (AppArmor attaches its profile here).
func (t *Task) Exec(path string) error {
	path, node, err := t.k.FS.Resolve(path)
	if err != nil {
		return err
	}
	if node.Mode().IsDir() {
		return sys.EISDIR
	}
	if err := t.dacCheck(node, sys.MayExec); err != nil {
		return err
	}
	if err := t.k.LSM.InodePermission(t.Cred, path, node, sys.MayExec); err != nil {
		return err
	}
	if err := t.k.LSM.BprmCheck(t.Cred, path, node); err != nil {
		return err
	}
	t.Comm = path
	return nil
}

// Exit terminates the task, closing all descriptors.
func (t *Task) Exit() {
	t.mu.Lock()
	if t.exited {
		t.mu.Unlock()
		return
	}
	t.exited = true
	tab := t.fdt.Load()
	t.fdt.Store(emptyFDTable)
	t.open = 0
	t.mu.Unlock()
	for i := range tab.files {
		if f := tab.files[i].Load(); f != nil {
			releaseEndpoint(f)
		}
	}
	t.k.removeTask(t.PID)
}

// Capable asks the LSM chain whether the task may use a capability.
func (t *Task) Capable(c sys.Cap) error {
	return t.k.LSM.Capable(t.Cred, c)
}

// SetUID changes the task identity; only root (or CAP_SETUID) may do so.
// Dropping from root also drops the full capability set, like setuid(2).
func (t *Task) SetUID(uid, gid int) error {
	if t.Cred.UID != 0 {
		if err := t.Capable(sys.CapSetUID); err != nil {
			return sys.EPERM
		}
	}
	wasRoot := t.Cred.UID == 0
	t.Cred.UID = uid
	t.Cred.GID = gid
	if wasRoot && uid != 0 {
		t.Cred.Caps = 0
	}
	return nil
}

// GrantCap adds a capability to the task (simulating file capabilities or
// an orchestrator granting a service CAP_MAC_ADMIN).
func (t *Task) GrantCap(c sys.Cap) { t.Cred.Caps = t.Cred.Caps.Add(c) }

// dacCheck applies classic owner/group/other permission bits. Root with
// CAP_DAC_OVERRIDE bypasses everything except exec of non-executable
// files (matching Linux behaviour closely enough for the experiments).
func (t *Task) dacCheck(node *vfs.Inode, mask sys.Access) error {
	mode := node.Mode()
	if t.Cred.HasCap(sys.CapDacOverride) {
		if mask.Has(sys.MayExec) && !mode.IsDir() && mode.Perm()&0o111 == 0 {
			return sys.EACCES
		}
		return nil
	}
	uid, gid := node.Owner()
	var shift uint
	switch {
	case t.Cred.UID == uid:
		shift = 6
	case t.Cred.GID == gid:
		shift = 3
	default:
		shift = 0
	}
	bits := vfs.Mode(mode.Perm()>>shift) & 0o7
	if mask.Has(sys.MayRead) && bits&0o4 == 0 {
		return sys.EACCES
	}
	if (mask.Has(sys.MayWrite) || mask.Has(sys.MayAppend)) && bits&0o2 == 0 {
		return sys.EACCES
	}
	if mask.Has(sys.MayExec) && bits&0o1 == 0 {
		return sys.EACCES
	}
	return nil
}
