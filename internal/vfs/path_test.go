package vfs

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sys"
)

// refClean is the split/join canonicalisation Clean must agree with.
func refClean(path string) string {
	parts, err := SplitPath(path)
	if err != nil || len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}

// refLookup is SplitPath followed by the component walk: validate the
// whole path, then resolve it.
func refLookup(fs *FS, path string) (*Inode, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return nil, err
	}
	return refWalk(fs, parts)
}

// refLookupDir resolves the parent of path the same way and returns it
// with the clean path and the inode the final component names, if any.
func refLookupDir(fs *FS, path string) (*Inode, string, *Inode, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return nil, "", nil, err
	}
	if len(parts) == 0 {
		return nil, "", nil, sys.EINVAL
	}
	dir, err := refWalk(fs, parts[:len(parts)-1])
	if err != nil {
		return nil, "", nil, err
	}
	if !dir.Mode().IsDir() {
		return nil, "", nil, sys.ENOTDIR
	}
	node, _ := refWalk(fs, parts)
	return dir, "/" + strings.Join(parts, "/"), node, nil
}

func refWalk(fs *FS, parts []string) (*Inode, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	cur := fs.root
	for _, p := range parts {
		if !cur.Mode().IsDir() {
			return nil, sys.ENOTDIR
		}
		next, ok := cur.children[p]
		if !ok {
			return nil, sys.ENOENT
		}
		cur = next
	}
	return cur, nil
}

// Property: on random paths mixing duplicate slashes, ".", "..",
// trailing slashes, over-long and empty components and relative
// prefixes, Clean equals the split/join reference and is idempotent,
// CleanPath fails exactly when SplitPath does, and Lookup and LookupDir
// return the same inodes, clean path and errno as SplitPath+walk.
func TestPathResolutionMatchesReference(t *testing.T) {
	long := strings.Repeat("l", MaxNameLen)
	fs := New()
	for _, d := range []string{"/a/b", "/x", "/a/" + long} {
		if _, err := fs.MkdirAll(d, 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/a/b/c", "/a/f", "/a/" + long + "/c"} {
		if _, err := fs.Create(f, ModeRegular|0o644, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	tokens := []string{"", ".", "..", "a", "b", "c", "f", "x", "zz", long, long + "l"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		if rng.Intn(8) != 0 {
			b.WriteByte('/')
		}
		for n := rng.Intn(5); n > 0; n-- {
			b.WriteString(tokens[rng.Intn(len(tokens))])
			for s := rng.Intn(4) / 2; s >= 0 && n > 1; s-- {
				b.WriteByte('/')
			}
		}
		if rng.Intn(4) == 0 {
			b.WriteByte('/')
		}
		p := b.String()

		c := Clean(p)
		if want := refClean(p); c != want {
			t.Fatalf("Clean(%q) = %q, want %q", p, c, want)
		}
		if cc := Clean(c); cc != c {
			t.Fatalf("Clean not idempotent on %q: %q -> %q", p, c, cc)
		}
		_, splitErr := SplitPath(p)
		if cp, err := CleanPath(p); err != splitErr || (err == nil && cp != c) {
			t.Fatalf("CleanPath(%q) = %q, %v; want %q, %v", p, cp, err, c, splitErr)
		}
		node, err := fs.Lookup(p)
		wantNode, wantErr := refLookup(fs, p)
		if node != wantNode || err != wantErr {
			t.Fatalf("Lookup(%q) = %v, %v; want %v, %v", p, node, err, wantNode, wantErr)
		}
		dir, clean, node, err := fs.LookupDir(p)
		wantDir, wantClean, wantNode, wantErr := refLookupDir(fs, p)
		if dir != wantDir || clean != wantClean || node != wantNode || err != wantErr {
			t.Fatalf("LookupDir(%q) = %v, %q, %v, %v; want %v, %q, %v, %v", p, dir, clean, node, err, wantDir, wantClean, wantNode, wantErr)
		}
	}
}

// A canonical path resolves without allocating: Clean returns it as is
// and Lookup walks it in place.
func TestCanonicalPathAllocFree(t *testing.T) {
	fs := New()
	if _, err := fs.MkdirAll("/a/b", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	const p = "/a/b"
	if avg := testing.AllocsPerRun(100, func() {
		if Clean(p) != p {
			t.Fatal("canonical path changed")
		}
		if _, err := fs.Lookup(p); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Lookup("/a/missing"); !sys.IsErrno(err, sys.ENOENT) {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("canonical resolution allocates %.1f objects/op", avg)
	}
}
