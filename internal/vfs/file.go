package vfs

import (
	"sync"

	"repro/internal/sys"
)

// OpenFlags mirror the O_* open(2) flags the simulator supports.
type OpenFlags uint32

// Open flag values (matching fcntl.h octal values where meaningful).
const (
	ORdonly OpenFlags = 0
	OWronly OpenFlags = 1
	ORdwr   OpenFlags = 2

	OCreat  OpenFlags = 0o100
	OExcl   OpenFlags = 0o200
	OTrunc  OpenFlags = 0o1000
	OAppend OpenFlags = 0o2000

	accModeMask OpenFlags = 3
)

// Readable reports whether the access mode permits reads.
func (f OpenFlags) Readable() bool {
	m := f & accModeMask
	return m == ORdonly || m == ORdwr
}

// Writable reports whether the access mode permits writes.
func (f OpenFlags) Writable() bool {
	m := f & accModeMask
	return m == OWronly || m == ORdwr
}

// AccessMask converts the open mode into the LSM access-request bits.
func (f OpenFlags) AccessMask() sys.Access {
	var m sys.Access
	if f.Readable() {
		m |= sys.MayRead
	}
	if f.Writable() {
		m |= sys.MayWrite
	}
	if f&OAppend != 0 {
		m |= sys.MayAppend
	}
	return m
}

// File is an open-file description (struct file): an inode reference plus
// position and open mode. The path records the name used at open time for
// path-based MAC modules (AppArmor, SACK).
type File struct {
	Inode *Inode
	Path  string
	Flags OpenFlags

	mu  sync.Mutex
	pos int64
}

// NewFile wraps an inode in an open-file description.
func NewFile(node *Inode, path string, flags OpenFlags) *File {
	return &File{Inode: node, Path: path, Flags: flags}
}

// Read reads from the current position, advancing it.
func (f *File) Read(cred *sys.Cred, buf []byte) (int, error) {
	if !f.Flags.Readable() {
		return 0, sys.EBADF
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.readAtLocked(cred, buf, f.pos)
	f.pos += int64(n)
	return n, err
}

// Pread reads at an explicit offset without moving the position.
func (f *File) Pread(cred *sys.Cred, buf []byte, off int64) (int, error) {
	if !f.Flags.Readable() {
		return 0, sys.EBADF
	}
	return f.readAtLocked(cred, buf, off)
}

func (f *File) readAtLocked(cred *sys.Cred, buf []byte, off int64) (int, error) {
	if h := f.Inode.Handler; h != nil {
		return h.ReadAt(cred, buf, off)
	}
	if f.Inode.Mode().IsDir() {
		return 0, sys.EISDIR
	}
	return f.Inode.readAt(buf, off)
}

// Write writes at the current position (or the end with O_APPEND).
func (f *File) Write(cred *sys.Cred, data []byte) (int, error) {
	if !f.Flags.Writable() {
		return 0, sys.EBADF
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	off := f.pos
	if f.Flags&OAppend != 0 {
		off = f.Inode.Size()
	}
	n, err := f.writeAt(cred, data, off)
	f.pos = off + int64(n)
	return n, err
}

// Pwrite writes at an explicit offset without moving the position.
func (f *File) Pwrite(cred *sys.Cred, data []byte, off int64) (int, error) {
	if !f.Flags.Writable() {
		return 0, sys.EBADF
	}
	return f.writeAt(cred, data, off)
}

func (f *File) writeAt(cred *sys.Cred, data []byte, off int64) (int, error) {
	if h := f.Inode.Handler; h != nil {
		return h.WriteAt(cred, data, off)
	}
	if f.Inode.Mode().IsDir() {
		return 0, sys.EISDIR
	}
	return f.Inode.writeAt(data, off)
}

// Ioctl issues a device-control call; only handler-backed nodes accept it.
func (f *File) Ioctl(cred *sys.Cred, cmd, arg uint64) (uint64, error) {
	if h := f.Inode.Handler; h != nil {
		return h.Ioctl(cred, cmd, arg)
	}
	return 0, sys.ENOTTY
}

// SetPos sets the file position (SEEK_SET semantics; the simulator's
// callers never need SEEK_CUR/SEEK_END arithmetic).
func (f *File) SetPos(off int64) error {
	if off < 0 {
		return sys.EINVAL
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pos = off
	return nil
}
