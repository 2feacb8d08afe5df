// Package kernel is the simulated Linux kernel the SACK reproduction runs
// on: a task table, a syscall layer over the in-memory VFS, pipes, a
// loopback network stack, and the LSM hook chain wired into every syscall
// at the same points the real kernel places security_* calls.
package kernel

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/avc"
	"repro/internal/lsm"
	"repro/internal/securityfs"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// MetricsFile is the securityfs path of the hook metrics view.
const MetricsFile = securityfs.MountPoint + "/sack/metrics"

// Kernel owns the global simulated-kernel state. Create one with New,
// assemble its security modules with Boot (CONFIG_LSM order), then
// obtain the init task with Init and fork user tasks from it.
type Kernel struct {
	FS    *vfs.FS
	LSM   *lsm.Stack
	SecFS *securityfs.FS
	Audit *lsm.AuditLog

	mu      sync.Mutex
	tasks   map[int]*Task
	initT   *Task
	nextPID atomic.Int64

	net *netStack
}

// New boots an empty kernel: fresh filesystem with the standard directory
// skeleton, a mounted securityfs, and an empty LSM stack.
func New() *Kernel {
	k := &Kernel{
		FS:    vfs.New(),
		LSM:   lsm.NewStack(),
		Audit: lsm.NewAuditLog(0),
		tasks: make(map[int]*Task),
		net:   newNetStack(),
	}
	for _, dir := range []string{"/dev", "/dev/vehicle", "/etc", "/tmp", "/usr/bin", "/usr/lib", "/var/log", "/home"} {
		if _, err := k.FS.MkdirAll(dir, 0o755, 0, 0); err != nil {
			panic(fmt.Sprintf("kernel: boot skeleton: %v", err))
		}
	}
	// /tmp is world-writable like on a real system.
	if node, err := k.FS.Lookup("/tmp"); err == nil {
		node.SetPerm(0o1777)
	}
	secfs, err := securityfs.Mount(k.FS)
	if err != nil {
		panic(fmt.Sprintf("kernel: securityfs: %v", err))
	}
	k.SecFS = secfs
	k.registerAuditFS()
	k.registerMetricsFS()
	return k
}

// registerMetricsFS exposes per-hook call/denial counters and latency
// quantiles, plus each module's access vector cache counters, at
// /sys/kernel/security/sack/metrics (world-readable: the view carries no
// policy content, only performance data).
func (k *Kernel) registerMetricsFS() {
	if _, err := k.SecFS.CreateDir("sack"); err != nil {
		panic(fmt.Sprintf("kernel: metrics securityfs: %v", err))
	}
	_, err := k.SecFS.CreateFile("sack", "metrics", 0o444, &securityfs.FuncFile{
		OnRead: func(*sys.Cred) ([]byte, error) {
			return []byte(k.RenderMetrics()), nil
		},
	})
	if err != nil {
		panic(fmt.Sprintf("kernel: metrics securityfs: %v", err))
	}
}

// RenderMetrics formats the hook metrics and per-module AVC counters in
// the flat key=value style of the other securityfs stats files. It backs
// the metrics pseudo-file and the sackctl/sackmon metrics views.
func (k *Kernel) RenderMetrics() string {
	var b strings.Builder
	b.WriteString(k.LSM.Metrics().Render())
	for _, m := range k.LSM.ModuleList() {
		r, ok := m.(interface{ AVCStats() avc.Stats })
		if !ok {
			continue
		}
		st := r.AVCStats()
		if st.Size == 0 {
			continue // cache disabled
		}
		fmt.Fprintf(&b, "avc %-16s hits=%d misses=%d inserts=%d invalidations=%d epoch=%d hit_rate=%.2f\n",
			m.Name(), st.Hits, st.Misses, st.Inserts, st.Invalidations, st.Epoch, st.HitRate())
	}
	return b.String()
}

// registerAuditFS exposes the kernel audit ring at
// /sys/kernel/security/audit/log (root-readable), a dmesg-style view of
// every security module's records.
func (k *Kernel) registerAuditFS() {
	if _, err := k.SecFS.CreateDir("audit"); err != nil {
		panic(fmt.Sprintf("kernel: audit securityfs: %v", err))
	}
	_, err := k.SecFS.CreateFile("audit", "log", 0o400, &securityfs.FuncFile{
		OnRead: func(cred *sys.Cred) ([]byte, error) {
			if cred.UID != 0 && !cred.HasCap(sys.CapAudit) {
				return nil, sys.EPERM
			}
			var b []byte
			for _, rec := range k.Audit.Records() {
				b = append(b, rec.String()...)
				b = append(b, '\n')
			}
			return b, nil
		},
	})
	if err != nil {
		panic(fmt.Sprintf("kernel: audit securityfs: %v", err))
	}
}

// Boot is the one CONFIG_LSM assembly. It registers mods in consultation
// order (whitelist stacking: first module checked first, first deny
// wins, so SACK comes before AppArmor in the paper's configuration),
// mounts the securityfs files of each module that has them, and freezes
// the stack, as the kernel marks the hook heads __ro_after_init: a late
// Register then fails with lsm.ErrStackFrozen instead of racing the
// lock-free dispatch table. Boot with no modules freezes an empty stack,
// the kernel without an LSM framework.
func (k *Kernel) Boot(mods ...lsm.Module) error {
	for _, m := range mods {
		if err := k.LSM.Register(m); err != nil {
			return err
		}
		if fs, ok := m.(interface {
			RegisterSecurityFS(*securityfs.FS) error
		}); ok {
			if err := fs.RegisterSecurityFS(k.SecFS); err != nil {
				return err
			}
		}
	}
	k.LSM.Freeze()
	return nil
}

// Init returns the init task (pid 1, root credentials), creating it on
// first use.
func (k *Kernel) Init() *Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.initT == nil {
		t := &Task{
			k:    k,
			PID:  int(k.nextPID.Add(1)),
			Comm: "/sbin/init",
			Cred: sys.NewCred(0, 0),
		}
		t.fdt.Store(emptyFDTable)
		k.tasks[t.PID] = t
		k.initT = t
	}
	return k.initT
}

// Task looks a task up by pid.
func (k *Kernel) Task(pid int) (*Task, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	t, ok := k.tasks[pid]
	if !ok {
		return nil, sys.ESRCH
	}
	return t, nil
}

// NumTasks reports the live task count.
func (k *Kernel) NumTasks() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.tasks)
}

// RegisterDevice creates a character-device node backed by the handler.
// Vehicle actuators (doors, windows, audio) register through this.
func (k *Kernel) RegisterDevice(path string, perm vfs.Mode, h vfs.NodeHandler) (*vfs.Inode, error) {
	return k.FS.CreateHandler(path, vfs.ModeCharDev|perm.Perm(), 0, 0, h)
}

// WriteFile is a boot-time convenience that creates (or truncates) a
// regular file with the given content, creating missing parent
// directories and bypassing the syscall layer. Use only for populating
// fixtures; tasks must use Open/Write.
func (k *Kernel) WriteFile(path string, perm vfs.Mode, content []byte) error {
	node, err := k.FS.Lookup(path)
	if err != nil {
		dir, _ := vfs.SplitDir(vfs.Clean(path))
		if _, err := k.FS.MkdirAll(dir, 0o755, 0, 0); err != nil {
			return err
		}
		if node, err = k.FS.Create(path, vfs.ModeRegular|perm.Perm(), 0, 0); err != nil {
			return err
		}
	}
	f := vfs.NewFile(node, path, vfs.OWronly|vfs.OTrunc)
	node.SetPerm(perm)
	root := sys.NewCred(0, 0)
	_, err = f.Pwrite(root, content, 0)
	return err
}

func (k *Kernel) addTask(t *Task) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.tasks[t.PID] = t
}

func (k *Kernel) removeTask(pid int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.tasks, pid)
}
