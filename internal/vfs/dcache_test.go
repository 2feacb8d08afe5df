package vfs

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sys"
)

// checkCache fails if any dentry-cache entry disagrees with an uncached
// walk of its path.
func checkCache(t *testing.T, fs *FS) {
	t.Helper()
	fs.mu.RLock()
	entries := make(map[string]*Inode, len(fs.dcache))
	for p, n := range fs.dcache {
		entries[p] = n
	}
	fs.mu.RUnlock()
	for p, n := range entries {
		if !canonical(p) {
			t.Fatalf("cache key %q is not canonical", p)
		}
		if want, err := refLookup(fs, p); want != n || err != nil {
			t.Fatalf("cache maps %q to ino %d, walk finds %v, %v", p, n.Ino, want, err)
		}
	}
}

// Property: under random sequences of Create, MkdirAll, WriteFile-style
// creates, Unlink, Rmdir and Rename, every lookup — canonical or not —
// returns the inode or errno, and the clean path, of a fresh uncached
// CleanPath+walk, LookupDir agrees with the uncached parent walk, and no
// cache entry ever names a stale inode.
func TestDcacheDifferential(t *testing.T) {
	names := []string{"a", "b", "c"}
	randPath := func(rng *rand.Rand) string {
		var b strings.Builder
		for n := 1 + rng.Intn(3); n > 0; n-- {
			b.WriteByte('/')
			b.WriteString(names[rng.Intn(len(names))])
		}
		return b.String()
	}
	// noisy spells a canonical path the way callers might: doubled
	// slashes, "." components, a trailing slash.
	noisy := func(rng *rand.Rand, p string) string {
		switch rng.Intn(4) {
		case 0:
			return strings.ReplaceAll(p, "/", "//")
		case 1:
			return strings.Replace(p, "/", "/./", 1)
		case 2:
			return p + "/"
		}
		return p
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := New()
		for step := 0; step < 1500; step++ {
			p, q := randPath(rng), randPath(rng)
			switch rng.Intn(6) {
			case 0:
				mode := ModeRegular | 0o644
				if rng.Intn(2) == 0 {
					mode = ModeDir | 0o755
				}
				fs.Create(p, mode, 0, 0)
			case 1:
				fs.MkdirAll(p, 0o755, 0, 0)
			case 2: // WriteFile: parents as needed, then the file
				dir, _ := SplitDir(p)
				fs.MkdirAll(dir, 0o755, 0, 0)
				if !fs.Exists(p) {
					fs.Create(p, ModeRegular|0o644, 0, 0)
				}
			case 3:
				fs.Unlink(p)
			case 4:
				fs.Rmdir(p)
			case 5:
				fs.Rename(p, q)
			}
			for i := 0; i < 4; i++ {
				in := noisy(rng, randPath(rng))
				clean, node, err := fs.Resolve(in)
				wantNode, wantErr := refLookup(fs, in)
				wantClean, _ := CleanPath(in)
				if node != wantNode || err != wantErr || clean != wantClean {
					t.Fatalf("seed %d step %d: Resolve(%q) = %q, %v, %v; want %q, %v, %v",
						seed, step, in, clean, node, err, wantClean, wantNode, wantErr)
				}
				dir, clean, node, err := fs.LookupDir(in)
				wantDir, wantClean, wantNode, wantErr := refLookupDir(fs, in)
				if dir != wantDir || clean != wantClean || node != wantNode || err != wantErr {
					t.Fatalf("seed %d step %d: LookupDir(%q) = %v, %q, %v, %v; want %v, %q, %v, %v",
						seed, step, in, dir, clean, node, err, wantDir, wantClean, wantNode, wantErr)
				}
			}
			checkCache(t, fs)
		}
	}
}

// A lookup is a single map probe once cached; a mutation clears the
// cache, and neither a lookup that misses nor LookupDir, whose caller
// is about to mutate, fills it.
func TestDcacheFillAndInvalidate(t *testing.T) {
	fs := New()
	if _, err := fs.MkdirAll("/a/b", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/a/b/f", ModeRegular|0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, n, err := fs.LookupDir("/a/b/f"); n != f || err != nil {
		t.Fatalf("LookupDir = %v, %v", n, err)
	}
	if n, err := fs.Lookup("//a/./b/f/"); n != f || err != nil {
		t.Fatalf("Lookup = %v, %v", n, err)
	}
	if _, err := fs.Lookup("/a/b/missing"); !sys.IsErrno(err, sys.ENOENT) {
		t.Fatalf("missing: %v", err)
	}
	fs.mu.RLock()
	got, cached := fs.dcache["/a/b/f"]
	size := len(fs.dcache)
	fs.mu.RUnlock()
	if !cached || got != f || size != 1 {
		t.Fatalf("cache = %d entries, /a/b/f cached=%v; want only the cleaned hit", size, cached)
	}
	if err := fs.Rename("/a/b", "/a/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup("/a/b/f"); !sys.IsErrno(err, sys.ENOENT) {
		t.Fatalf("after rename, old path: %v", err)
	}
	if n, err := fs.Lookup("/a/c/f"); n != f || err != nil {
		t.Fatalf("after rename, new path: %v, %v", n, err)
	}
}

// Race stress: readers resolve paths while mutators create, rename and
// unlink under them. Each mutator owns a directory and cycles a fresh
// inode through it — create /mK/a, rename it to /mK/b, unlink /mK/b; and
// a directory /mK/d holding f, renamed to /mK/e, then emptied and
// removed — publishing the inode number each step moved away. Inode
// numbers only grow, so once a removal has returned, a lookup that
// returns an inode numbered at or below the published one has seen the
// old mapping. Paths no one mutates must always resolve to their inode.
func TestDcacheRaceStress(t *testing.T) {
	fs := New()
	stable, err := fs.MkdirAll("/stable/dir", 0o755, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const mutators, readers, cycles = 2, 4, 1500
	dirs := []string{"/m0", "/m1"}
	for _, d := range dirs {
		if _, err := fs.MkdirAll(d, 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// gone[k][i] is the newest inode number moved away from watched[i]
	// in dirs[k].
	watched := []string{"/a", "/b", "/d/f", "/e/f"}
	var gone [mutators][4]atomic.Uint64
	must := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}

	var done atomic.Bool
	var mwg, rwg sync.WaitGroup
	for k := 0; k < mutators; k++ {
		mwg.Add(1)
		go func(k int) {
			defer mwg.Done()
			d := dirs[k]
			for i := 0; i < cycles && !t.Failed(); i++ {
				x, err := fs.Create(d+"/a", ModeRegular|0o644, 0, 0)
				must(err)
				must(fs.Rename(d+"/a", d+"/b"))
				gone[k][0].Store(x.Ino)
				must(fs.Unlink(d + "/b"))
				gone[k][1].Store(x.Ino)

				_, err = fs.MkdirAll(d+"/d", 0o755, 0, 0)
				must(err)
				f, err := fs.Create(d+"/d/f", ModeRegular|0o644, 0, 0)
				must(err)
				must(fs.Rename(d+"/d", d+"/e"))
				gone[k][2].Store(f.Ino)
				must(fs.Unlink(d + "/e/f"))
				gone[k][3].Store(f.Ino)
				must(fs.Rmdir(d + "/e"))
			}
		}(k)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for !done.Load() && !t.Failed() {
				for k, d := range dirs {
					for i, w := range watched {
						floor := gone[k][i].Load()
						n, err := fs.Lookup(d + w)
						if err == nil && n.Ino <= floor {
							t.Errorf("Lookup(%s%s) = ino %d after ino %d was moved away", d, w, n.Ino, floor)
							return
						}
						if err != nil && !sys.IsErrno(err, sys.ENOENT) {
							t.Errorf("Lookup(%s%s): %v", d, w, err)
							return
						}
					}
				}
				if n, err := fs.Lookup("/stable/dir"); n != stable || err != nil {
					t.Errorf("Lookup(/stable/dir) = %v, %v", n, err)
					return
				}
			}
		}(r)
	}
	mwg.Wait()
	done.Store(true)
	rwg.Wait()
	checkCache(t, fs)
}

// BenchmarkLookup resolves a four-component path. In "churn" another
// goroutine runs a create+unlink loop beside it, so every mutation
// clears the dentry cache: the worst case for the cache, reported with
// the mutations that landed per lookup.
func BenchmarkLookup(b *testing.B) {
	for _, churn := range []bool{false, true} {
		name := "steady"
		if churn {
			name = "churn"
		}
		b.Run(name, func(b *testing.B) {
			fs := New()
			if _, err := fs.MkdirAll("/usr/lib/vehicle", 0o755, 0, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := fs.Create("/usr/lib/vehicle/door.so", ModeRegular|0o644, 0, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := fs.MkdirAll("/tmp", 0o755, 0, 0); err != nil {
				b.Fatal(err)
			}
			var stop atomic.Bool
			var mutations atomic.Uint64
			var wg sync.WaitGroup
			if churn {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						fs.Create("/tmp/churn", ModeRegular|0o644, 0, 0)
						fs.Unlink("/tmp/churn")
						mutations.Add(2)
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fs.Lookup("/usr/lib/vehicle/door.so"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			b.ReportMetric(float64(mutations.Load())/float64(b.N), "mutations/op")
		})
	}
}
