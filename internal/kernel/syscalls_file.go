package kernel

import (
	"repro/internal/sys"
	"repro/internal/vfs"
)

// Stat mirrors the fields of struct stat the experiments need.
type Stat struct {
	Ino   uint64
	Mode  vfs.Mode
	UID   int
	GID   int
	Size  int64
	Nlink int
}

// Open resolves path and returns a new file descriptor. The sequence of
// checks matches fs/namei.c: creation hook for O_CREAT, DAC bits, the
// InodePermission LSM hook, then FileOpen on the assembled description.
func (t *Task) Open(path string, flags vfs.OpenFlags, perm vfs.Mode) (int, error) {
	path, node, err := t.k.FS.Resolve(path)
	switch {
	case err == nil:
		if flags&(vfs.OCreat|vfs.OExcl) == vfs.OCreat|vfs.OExcl {
			return -1, sys.EEXIST
		}
	case sys.IsErrno(err, sys.ENOENT) && flags&vfs.OCreat != 0:
		node, err = t.create(path, vfs.ModeRegular|perm.Perm())
		if err != nil {
			return -1, err
		}
	default:
		return -1, err
	}

	if node.Mode().IsDir() && flags.Writable() {
		return -1, sys.EISDIR
	}
	mask := flags.AccessMask()
	if err := t.dacCheck(node, mask); err != nil {
		return -1, err
	}
	if err := t.k.LSM.InodePermission(t.Cred, path, node, mask); err != nil {
		return -1, err
	}
	f := vfs.NewFile(node, path, flags)
	if err := t.k.LSM.FileOpen(t.Cred, f); err != nil {
		return -1, err
	}
	if flags&vfs.OTrunc != 0 && flags.Writable() && node.Mode().IsRegular() && node.Handler == nil {
		node.ResetData()
	}
	return t.installFD(f)
}

// create allocates a new filesystem object after passing the directory
// DAC check and the InodeCreate LSM hook.
func (t *Task) create(path string, mode vfs.Mode) (*vfs.Inode, error) {
	dir, path, _, err := t.k.FS.LookupDir(path)
	if err != nil {
		return nil, err
	}
	if err := t.dacCheck(dir, sys.MayWrite); err != nil {
		return nil, err
	}
	if err := t.k.LSM.InodeCreate(t.Cred, dir, path, mode); err != nil {
		return nil, err
	}
	return t.k.FS.Create(path, mode, t.Cred.UID, t.Cred.GID)
}

// Read reads from fd at the current offset, running FilePermission first
// (every read is mediated, as with Linux's security_file_permission).
func (t *Task) Read(fd int, buf []byte) (int, error) {
	f, err := t.file(fd)
	if err != nil {
		return 0, err
	}
	if err := t.k.LSM.FilePermission(t.Cred, f, sys.MayRead); err != nil {
		return 0, err
	}
	return f.Read(t.Cred, buf)
}

// Write writes to fd at the current offset.
func (t *Task) Write(fd int, data []byte) (int, error) {
	f, err := t.file(fd)
	if err != nil {
		return 0, err
	}
	if err := t.k.LSM.FilePermission(t.Cred, f, sys.MayWrite); err != nil {
		return 0, err
	}
	return f.Write(t.Cred, data)
}

// Pread reads at an explicit offset.
func (t *Task) Pread(fd int, buf []byte, off int64) (int, error) {
	f, err := t.file(fd)
	if err != nil {
		return 0, err
	}
	if err := t.k.LSM.FilePermission(t.Cred, f, sys.MayRead); err != nil {
		return 0, err
	}
	return f.Pread(t.Cred, buf, off)
}

// Pwrite writes at an explicit offset.
func (t *Task) Pwrite(fd int, data []byte, off int64) (int, error) {
	f, err := t.file(fd)
	if err != nil {
		return 0, err
	}
	if err := t.k.LSM.FilePermission(t.Cred, f, sys.MayWrite); err != nil {
		return 0, err
	}
	return f.Pwrite(t.Cred, data, off)
}

// Seek repositions fd (SEEK_SET).
func (t *Task) Seek(fd int, off int64) error {
	f, err := t.file(fd)
	if err != nil {
		return err
	}
	return f.SetPos(off)
}

// Ioctl issues a device-control call on fd after the FileIoctl hook — the
// hook SACK uses to gate CONTROL_CAR_DOORS-style operations.
func (t *Task) Ioctl(fd int, cmd, arg uint64) (uint64, error) {
	f, err := t.file(fd)
	if err != nil {
		return 0, err
	}
	if err := t.k.LSM.FileIoctl(t.Cred, f, cmd); err != nil {
		return 0, err
	}
	return f.Ioctl(t.Cred, cmd, arg)
}

// Stat returns file metadata after the InodeGetattr hook.
func (t *Task) Stat(path string) (Stat, error) {
	path, node, err := t.k.FS.Resolve(path)
	if err != nil {
		return Stat{}, err
	}
	if err := t.k.LSM.InodeGetattr(t.Cred, path, node); err != nil {
		return Stat{}, err
	}
	a := node.Attr()
	return Stat{
		Ino:   node.Ino,
		Mode:  node.Mode(),
		UID:   a.UID,
		GID:   a.GID,
		Size:  a.Size,
		Nlink: a.Nlink,
	}, nil
}

// Unlink removes the file at path.
func (t *Task) Unlink(path string) error {
	dir, path, node, err := t.k.FS.LookupDir(path)
	if err != nil {
		return err
	}
	if node == nil {
		return sys.ENOENT
	}
	if err := t.dacCheck(dir, sys.MayWrite); err != nil {
		return err
	}
	if err := t.k.LSM.InodeUnlink(t.Cred, dir, path, node); err != nil {
		return err
	}
	return t.k.FS.Unlink(path)
}

// Mkdir creates a directory.
func (t *Task) Mkdir(path string, perm vfs.Mode) error {
	_, err := t.create(path, vfs.ModeDir|perm.Perm())
	return err
}

// Rmdir removes an empty directory.
func (t *Task) Rmdir(path string) error {
	dir, path, node, err := t.k.FS.LookupDir(path)
	if err != nil {
		return err
	}
	if node == nil {
		return sys.ENOENT
	}
	if err := t.dacCheck(dir, sys.MayWrite); err != nil {
		return err
	}
	if err := t.k.LSM.InodeUnlink(t.Cred, dir, path, node); err != nil {
		return err
	}
	return t.k.FS.Rmdir(path)
}

// Mmap maps length bytes of fd starting at offset 0 with the given
// protection, returning a private copy of the mapped window (MAP_PRIVATE
// semantics). The MmapFile hook runs first.
func (t *Task) Mmap(fd int, length int, prot sys.Access) ([]byte, error) {
	if length <= 0 {
		return nil, sys.EINVAL
	}
	f, err := t.file(fd)
	if err != nil {
		return nil, err
	}
	if err := t.k.LSM.MmapFile(t.Cred, f, prot); err != nil {
		return nil, err
	}
	buf := make([]byte, length)
	if _, err := f.Pread(t.Cred, buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadFileAll opens, fully reads, and closes path — a convenience used by
// daemons and tests.
func (t *Task) ReadFileAll(path string) ([]byte, error) {
	fd, err := t.Open(path, vfs.ORdonly, 0)
	if err != nil {
		return nil, err
	}
	defer t.Close(fd)
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, err := t.Read(fd, buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}

// WriteFileAll opens (creating if needed), writes, and closes path.
func (t *Task) WriteFileAll(path string, data []byte, perm vfs.Mode) error {
	fd, err := t.Open(path, vfs.OCreat|vfs.OWronly|vfs.OTrunc, perm)
	if err != nil {
		return err
	}
	defer t.Close(fd)
	for len(data) > 0 {
		n, err := t.Write(fd, data)
		if err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// Rename moves oldPath to newPath. Linux mediates rename with a single
// security_inode_rename hook; the simulator approximates it with the
// unlink hook on the source and the create hook on the destination,
// which gives MAC modules the same veto points.
func (t *Task) Rename(oldPath, newPath string) error {
	oldDir, oldPath, node, err := t.k.FS.LookupDir(oldPath)
	if err != nil {
		return err
	}
	if node == nil {
		return sys.ENOENT
	}
	newDir, newPath, _, err := t.k.FS.LookupDir(newPath)
	if err != nil {
		return err
	}
	if err := t.dacCheck(oldDir, sys.MayWrite); err != nil {
		return err
	}
	if err := t.dacCheck(newDir, sys.MayWrite); err != nil {
		return err
	}
	if err := t.k.LSM.InodeUnlink(t.Cred, oldDir, oldPath, node); err != nil {
		return err
	}
	if err := t.k.LSM.InodeCreate(t.Cred, newDir, newPath, node.Mode()); err != nil {
		return err
	}
	return t.k.FS.Rename(oldPath, newPath)
}
