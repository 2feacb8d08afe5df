// Package vfs implements the in-memory virtual filesystem used by the
// simulated kernel: inodes, directory trees, open-file descriptions, and
// handler-backed pseudo-files (devices, securityfs). It deliberately
// mirrors the Linux VFS object model so that LSM hooks attach at the same
// places they do in a real kernel.
package vfs

import (
	"sync"
	"sync/atomic"

	"repro/internal/sys"
)

// Mode holds both the file-type bits and the permission bits, in the same
// layout as Linux's umode_t.
type Mode uint32

// File-type and permission constants (matching stat.h).
const (
	ModeTypeMask Mode = 0o170000
	ModeRegular  Mode = 0o100000
	ModeDir      Mode = 0o040000
	ModeCharDev  Mode = 0o020000
	ModeFIFO     Mode = 0o010000
	ModeSocket   Mode = 0o140000

	PermMask Mode = 0o7777
)

// IsDir reports whether the mode describes a directory.
func (m Mode) IsDir() bool { return m&ModeTypeMask == ModeDir }

// IsRegular reports whether the mode describes a regular file.
func (m Mode) IsRegular() bool { return m&ModeTypeMask == ModeRegular }

// IsDevice reports whether the mode describes a character device.
func (m Mode) IsDevice() bool { return m&ModeTypeMask == ModeCharDev }

// Perm returns only the permission bits.
func (m Mode) Perm() Mode { return m & PermMask }

// NodeHandler gives pseudo-files (devices, securityfs entries) custom I/O
// behaviour. Regular files ignore it and use the inode's data buffer.
// Handlers receive the caller's credentials so that, e.g., the SACK events
// file can demand CAP_MAC_ADMIN.
type NodeHandler interface {
	// ReadAt fills buf starting at off; it returns the byte count and an
	// error (sys.Errno) on failure. Returning 0, nil signals EOF.
	ReadAt(cred *sys.Cred, buf []byte, off int64) (int, error)
	// WriteAt consumes data written at off.
	WriteAt(cred *sys.Cred, data []byte, off int64) (int, error)
	// Ioctl performs a device control call.
	Ioctl(cred *sys.Cred, cmd uint64, arg uint64) (uint64, error)
}

// Inode is a filesystem object. Directory children and regular-file data
// are guarded by mu; immutable identity fields (Ino, type bits) are set at
// creation and never change.
type Inode struct {
	Ino  uint64
	mode atomic.Uint32 // Mode; atomically readable for permission checks

	mu       sync.RWMutex
	uid, gid int
	data     []byte
	children map[string]*Inode
	nlink    int

	// Handler, when non-nil, routes read/write/ioctl to a pseudo-file
	// implementation. Set at creation for devices and securityfs nodes.
	Handler NodeHandler

	// security holds per-LSM inode blobs (i_security).
	secMu    sync.RWMutex
	security map[string]any
}

func newInode(ino uint64, mode Mode, uid, gid int) *Inode {
	n := &Inode{Ino: ino, uid: uid, gid: gid, nlink: 1}
	n.mode.Store(uint32(mode))
	if mode.IsDir() {
		n.children = make(map[string]*Inode)
		n.nlink = 2
	}
	return n
}

// NewAnonInode builds an inode that lives outside any directory tree:
// pipes, sockets, and other anonymous kernel objects. It has no ino
// number (0) and is owned by root.
func NewAnonInode(mode Mode) *Inode {
	return newInode(0, mode, 0, 0)
}

// Mode returns the current mode (type + permission bits).
func (n *Inode) Mode() Mode { return Mode(n.mode.Load()) }

// SetPerm replaces the permission bits, preserving the type bits.
func (n *Inode) SetPerm(perm Mode) {
	for {
		old := n.mode.Load()
		next := old&uint32(ModeTypeMask) | uint32(perm&PermMask)
		if n.mode.CompareAndSwap(old, next) {
			return
		}
	}
}

// Owner returns the owning uid and gid.
func (n *Inode) Owner() (uid, gid int) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.uid, n.gid
}

// Chown changes the owner.
func (n *Inode) Chown(uid, gid int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.uid, n.gid = uid, gid
}

// Size returns the current data length for regular files.
func (n *Inode) Size() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return int64(len(n.data))
}

// Attr is an inode's owner, data length and link count.
type Attr struct {
	UID, GID int
	Size     int64
	Nlink    int
}

// Attr reads the owner, data length and link count under one lock, so
// a stat sees them as one consistent snapshot.
func (n *Inode) Attr() Attr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return Attr{UID: n.uid, GID: n.gid, Size: int64(len(n.data)), Nlink: n.nlink}
}

// SecurityBlob returns the blob stored by the named LSM, or nil.
func (n *Inode) SecurityBlob(lsm string) any {
	n.secMu.RLock()
	defer n.secMu.RUnlock()
	if n.security == nil {
		return nil
	}
	return n.security[lsm]
}

// SetSecurityBlob stores the blob for the named LSM.
func (n *Inode) SetSecurityBlob(lsm string, blob any) {
	n.secMu.Lock()
	defer n.secMu.Unlock()
	if n.security == nil {
		n.security = make(map[string]any)
	}
	n.security[lsm] = blob
}

// readAt copies file content into buf. Used for regular files only.
func (n *Inode) readAt(buf []byte, off int64) (int, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	return copy(buf, n.data[off:]), nil
}

// writeAt stores data at off, growing the file as needed. Growth is
// geometric so sequential small writes do not reallocate per chunk.
func (n *Inode) writeAt(data []byte, off int64) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	end := off + int64(len(data))
	if end > int64(cap(n.data)) {
		newCap := 2 * cap(n.data)
		if int64(newCap) < end {
			newCap = int(end)
		}
		grown := make([]byte, end, newCap)
		copy(grown, n.data)
		n.data = grown
	} else if end > int64(len(n.data)) {
		n.data = n.data[:end]
	}
	copy(n.data[off:], data)
	return len(data), nil
}

// ResetData truncates a regular file's contents to length zero (O_TRUNC).
func (n *Inode) ResetData() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.data = n.data[:0]
}

// Snapshot returns a copy of the file content. Intended for tests and
// pseudo-file dumps, not the I/O fast path.
func (n *Inode) Snapshot() []byte {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]byte, len(n.data))
	copy(out, n.data)
	return out
}

// childNames returns the sorted-unspecified list of directory entries.
func (n *Inode) childNames() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	return out
}
