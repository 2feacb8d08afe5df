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
//
// Path lookups are served from a dentry cache, the simulation's dcache:
// dcache maps a canonical path to its inode. It is read under mu.RLock
// and written under mu.Lock. Every structural mutation bumps gen and
// clears the cache; a walk publishes its result only if gen is still
// the generation it read before walking, so a walk that raced a
// mutation never caches a stale inode. Only successful lookups are
// cached, so the cache holds at most one entry per existing name.
type FS struct {
	mu      sync.RWMutex
	root    *Inode
	nextIno atomic.Uint64
	dcache  map[string]*Inode // guarded by mu
	gen     uint64            // guarded by mu
}

// New creates an empty filesystem with a root directory owned by root.
func New() *FS {
	fs := &FS{dcache: make(map[string]*Inode)}
	fs.root = newInode(fs.allocIno(), ModeDir|0o755, 0, 0)
	return fs
}

func (fs *FS) allocIno() uint64 { return fs.nextIno.Add(1) }

// Lookup resolves an absolute path to its inode (see Resolve).
func (fs *FS) Lookup(path string) (*Inode, error) {
	_, node, err := fs.Resolve(path)
	return node, err
}

// Resolve resolves an absolute path to its inode and returns the
// canonical path it names, the one CleanPath returns. It is the
// filesystem's only lookup path. A cached path costs one map probe; a
// miss checks and walks each component in one pass and caches what it
// finds. A path that is not canonical is cleaned first, so errors keep
// CleanPath's order: an invalid path fails with EINVAL or ENAMETOOLONG
// (and an empty clean path) before any ENOENT or ENOTDIR from the walk.
// A canonical path resolves without allocating.
func (fs *FS) Resolve(path string) (string, *Inode, error) {
	return fs.resolve(path, true)
}

// resolve is Resolve; fill says whether a successful walk may publish
// its result to the dentry cache.
func (fs *FS) resolve(path string, fill bool) (string, *Inode, error) {
	fs.mu.RLock()
	if node, ok := fs.dcache[path]; ok {
		fs.mu.RUnlock()
		return path, node, nil
	}
	gen := fs.gen
	node, canon, err := fs.walk(path)
	fs.mu.RUnlock()
	if !canon {
		clean, cerr := CleanPath(path)
		if cerr != nil {
			return "", nil, cerr
		}
		return fs.resolve(clean, fill)
	}
	if err != nil || !fill {
		return path, node, err
	}
	fs.mu.Lock()
	if fs.gen == gen {
		fs.dcache[path] = node
	}
	fs.mu.Unlock()
	return path, node, nil
}

// LookupDir resolves path for a syscall about to create, remove or
// rename its final component. It returns the parent directory, the
// canonical path (see Resolve), and the inode the final component names
// now, nil if none. Errors come in Resolve's order; "/" has no parent
// and fails with EINVAL. LookupDir reads the dentry cache but does not
// fill it: the mutation that follows would clear the entry at once.
func (fs *FS) LookupDir(path string) (dir *Inode, clean string, node *Inode, err error) {
	clean, err = CleanPath(path)
	if err != nil {
		return nil, "", nil, err
	}
	if clean == "/" {
		return nil, "", nil, sys.EINVAL
	}
	i := strings.LastIndexByte(clean, '/')
	if _, dir, err = fs.resolve(clean[:max(i, 1)], false); err != nil {
		return nil, "", nil, err
	}
	if !dir.Mode().IsDir() {
		return nil, "", nil, sys.ENOTDIR
	}
	fs.mu.RLock()
	node = dir.children[clean[i+1:]]
	fs.mu.RUnlock()
	return dir, clean, node, nil
}

// walk resolves path from the root in one pass, checking each component
// before it follows it. canon reports whether path is canonical (see
// CleanPath); when it is not, node and err are meaningless. After a
// failed step the remaining components are still checked, so a
// non-canonical tail is reported as such rather than as ENOENT or
// ENOTDIR. Caller holds fs.mu.
func (fs *FS) walk(path string) (node *Inode, canon bool, err error) {
	if path == "/" {
		return fs.root, true, nil
	}
	if path == "" || path[0] != '/' {
		return nil, false, nil
	}
	cur := fs.root
	for rest, more := path[1:], true; more; {
		var name string
		name, rest, more = strings.Cut(rest, "/")
		if !canonicalName(name) {
			return nil, false, nil
		}
		switch {
		case err != nil:
		case !cur.Mode().IsDir():
			err = sys.ENOTDIR
		default:
			next, ok := cur.children[name]
			if !ok {
				err = sys.ENOENT
			}
			cur = next
		}
	}
	if err != nil {
		return nil, true, err
	}
	return cur, true, nil
}

// invalidateLocked starts a new cache generation after a structural
// change. Caller holds fs.mu for writing.
func (fs *FS) invalidateLocked() {
	fs.gen++
	clear(fs.dcache)
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
	dir, _, err := fs.walk(dirPath)
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
	fs.invalidateLocked()
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
			fs.invalidateLocked()
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
	dir, _, err := fs.walk(dirPath)
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
	fs.invalidateLocked()
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
	dir, _, err := fs.walk(dirPath)
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
	fs.invalidateLocked()
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
	oldDir, _, err := fs.walk(oldDirPath)
	if err != nil {
		return err
	}
	newDir, _, err := fs.walk(newDirPath)
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
	fs.invalidateLocked()
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
