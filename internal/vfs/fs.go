package vfs

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sys"
)

// FS is the in-memory filesystem: a single mount rooted at "/". All
// structural operations (lookup, create, unlink) take the tree lock; file
// content I/O locks only the target inode.
type FS struct {
	mu      sync.RWMutex
	root    *Inode
	nextIno atomic.Uint64
}

// New creates an empty filesystem with a root directory owned by root.
func New() *FS {
	fs := &FS{}
	fs.root = newInode(fs.allocIno(), ModeDir|0o755, 0, 0)
	return fs
}

func (fs *FS) allocIno() uint64 { return fs.nextIno.Add(1) }

// Root returns the root directory inode.
func (fs *FS) Root() *Inode { return fs.root }

// Lookup resolves an absolute path to its inode. The whole path is
// validated before the walk, so errors come in SplitPath-then-walk
// order; the walk itself reads the canonical path in place.
func (fs *FS) Lookup(path string) (*Inode, error) {
	path, err := CleanPath(path)
	if err != nil {
		return nil, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.walk(path)
}

// LookupDir resolves the parent directory of path and returns it along
// with the final path component.
func (fs *FS) LookupDir(path string) (*Inode, string, error) {
	path, err := CleanPath(path)
	if err != nil {
		return nil, "", err
	}
	if path == "/" {
		return nil, "", sys.EINVAL
	}
	dirPath, name := SplitDir(path)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	dir, err := fs.walk(dirPath)
	if err != nil {
		return nil, "", err
	}
	if !dir.Mode().IsDir() {
		return nil, "", sys.ENOTDIR
	}
	return dir, name, nil
}

// walk follows the components of a canonical path from the root, in
// place. Caller holds fs.mu.
func (fs *FS) walk(path string) (*Inode, error) {
	cur := fs.root
	for rest, more := path[1:], path != "/"; more; {
		var name string
		name, rest, more = strings.Cut(rest, "/")
		if !cur.Mode().IsDir() {
			return nil, sys.ENOTDIR
		}
		next, ok := cur.children[name]
		if !ok {
			return nil, sys.ENOENT
		}
		cur = next
	}
	return cur, nil
}

// Create makes a new node of the given mode at path. It fails with EEXIST
// if the name is taken and ENOENT if the parent is missing.
func (fs *FS) Create(path string, mode Mode, uid, gid int) (*Inode, error) {
	return fs.CreateHandler(path, mode, uid, gid, nil)
}

// CreateHandler makes a new node backed by a custom handler (device or
// pseudo-file). handler may be nil for plain nodes.
func (fs *FS) CreateHandler(path string, mode Mode, uid, gid int, handler NodeHandler) (*Inode, error) {
	path, err := CleanPath(path)
	if err != nil {
		return nil, err
	}
	if path == "/" {
		return nil, sys.EEXIST // the root itself
	}
	dirPath, name := SplitDir(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, err := fs.walk(dirPath)
	if err != nil {
		return nil, err
	}
	if !dir.Mode().IsDir() {
		return nil, sys.ENOTDIR
	}
	if _, ok := dir.children[name]; ok {
		return nil, sys.EEXIST
	}
	node := newInode(fs.allocIno(), mode, uid, gid)
	node.Handler = handler
	dir.children[name] = node
	if mode.IsDir() {
		dir.mu.Lock()
		dir.nlink++
		dir.mu.Unlock()
	}
	return node, nil
}

// MkdirAll creates the directory path and any missing parents, like
// os.MkdirAll. Existing directories are left untouched.
func (fs *FS) MkdirAll(path string, perm Mode, uid, gid int) (*Inode, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cur := fs.root
	for _, p := range parts {
		if !cur.Mode().IsDir() {
			return nil, sys.ENOTDIR
		}
		next, ok := cur.children[p]
		if !ok {
			next = newInode(fs.allocIno(), ModeDir|perm.Perm(), uid, gid)
			cur.children[p] = next
			cur.mu.Lock()
			cur.nlink++
			cur.mu.Unlock()
		}
		cur = next
	}
	if !cur.Mode().IsDir() {
		return nil, sys.ENOTDIR
	}
	return cur, nil
}

// Unlink removes the node at path. Directories must be removed with Rmdir.
func (fs *FS) Unlink(path string) error {
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	if path == "/" {
		return sys.EISDIR
	}
	dirPath, name := SplitDir(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, err := fs.walk(dirPath)
	if err != nil {
		return err
	}
	node, ok := dir.children[name]
	if !ok {
		return sys.ENOENT
	}
	if node.Mode().IsDir() {
		return sys.EISDIR
	}
	delete(dir.children, name)
	node.mu.Lock()
	node.nlink--
	node.mu.Unlock()
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(path string) error {
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	if path == "/" {
		return sys.EBUSY // can't remove the root
	}
	dirPath, name := SplitDir(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, err := fs.walk(dirPath)
	if err != nil {
		return err
	}
	node, ok := dir.children[name]
	if !ok {
		return sys.ENOENT
	}
	if !node.Mode().IsDir() {
		return sys.ENOTDIR
	}
	if len(node.children) != 0 {
		return sys.ENOTEMPTY
	}
	delete(dir.children, name)
	dir.mu.Lock()
	dir.nlink--
	dir.mu.Unlock()
	return nil
}

// Rename moves oldPath to newPath (same-filesystem move). The destination
// must not exist, and a directory cannot be moved into its own subtree
// (EINVAL, as rename(2) specifies).
func (fs *FS) Rename(oldPath, newPath string) error {
	oldPath, err := CleanPath(oldPath)
	if err != nil {
		return err
	}
	newPath, err = CleanPath(newPath)
	if err != nil {
		return err
	}
	if oldPath == "/" || newPath == "/" {
		return sys.EBUSY
	}
	// Ancestry check: the destination may not live under the source.
	if strings.HasPrefix(newPath, oldPath+"/") {
		return sys.EINVAL
	}
	oldDirPath, oldName := SplitDir(oldPath)
	newDirPath, newName := SplitDir(newPath)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldDir, err := fs.walk(oldDirPath)
	if err != nil {
		return err
	}
	newDir, err := fs.walk(newDirPath)
	if err != nil {
		return err
	}
	if !oldDir.Mode().IsDir() || !newDir.Mode().IsDir() {
		return sys.ENOTDIR
	}
	node, ok := oldDir.children[oldName]
	if !ok {
		return sys.ENOENT
	}
	if _, exists := newDir.children[newName]; exists {
		return sys.EEXIST
	}
	delete(oldDir.children, oldName)
	newDir.children[newName] = node
	return nil
}

// ReadDir lists the entry names of the directory at path.
func (fs *FS) ReadDir(path string) ([]string, error) {
	node, err := fs.Lookup(path)
	if err != nil {
		return nil, err
	}
	if !node.Mode().IsDir() {
		return nil, sys.ENOTDIR
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return node.childNames(), nil
}

// Exists reports whether the path resolves.
func (fs *FS) Exists(path string) bool {
	_, err := fs.Lookup(path)
	return err == nil
}
