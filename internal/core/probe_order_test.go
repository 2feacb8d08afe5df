package core_test

// probe_order_test pins the order of the independent-mode check: the
// policy trie's root step, then the AVC probe under the snapshot's
// token, and the full trie walk only on a miss. Serving a hit
// without the walk is sound only because a reload that changes coverage
// publishes a new token; these tests change coverage under cached
// entries and check that no verdict outlives it and that nothing
// uncovered is ever cached or counted as a miss.

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// probePolicy builds a one-state policy from rule lines.
func probePolicy(rules ...string) string {
	return `
states { normal = 0 }
initial normal
permissions { APP }
state_per { normal: APP }
per_rules {
  APP {
    ` + strings.Join(rules, "\n    ") + `
  }
}
`
}

func replacePolicy(t *testing.T, s *core.SACK, src string) {
	t.Helper()
	compiled, _, err := policy.Load(src)
	if err != nil {
		t.Fatalf("policy.Load: %v", err)
	}
	if _, err := s.ReplacePolicy(compiled, src); err != nil {
		t.Fatalf("ReplacePolicy: %v", err)
	}
}

func TestReloadProbeFirstCoverageChanges(t *testing.T) {
	cred := sys.NewCred(1000, 1000)
	core.SetSubject(cred, "/usr/bin/app")
	write := func(s *core.SACK, path string) error {
		return s.InodePermission(cred, path, nil, sys.MayWrite)
	}

	t.Run("dropped coverage passes through", func(t *testing.T) {
		_, s := bootIndependent(t, probePolicy(
			"allow read /srv/sack/**",
			"allow read /srv/keep/**"))
		for i := 0; i < 3; i++ { // miss, admitting miss, then a cached denial
			if err := write(s, "/srv/sack/x"); !sys.IsErrno(err, sys.EACCES) {
				t.Fatalf("write %d before reload: %v, want EACCES", i, err)
			}
		}
		if st := s.AVCStats(); st.Hits != 1 || st.Inserts != 1 {
			t.Fatalf("setup: denial not cached and served: %+v", st)
		}
		// /srv stays a covered first segment, so the next check probes.
		replacePolicy(t, s, probePolicy("allow read /srv/keep/**"))
		before := s.AVCStats()
		_, uncovered := s.CheckStats()
		if err := write(s, "/srv/sack/x"); err != nil {
			t.Fatalf("write after the reload dropped its coverage: %v, want pass-through", err)
		}
		after := s.AVCStats()
		if after.Hits != before.Hits || after.Misses != before.Misses || after.Inserts != before.Inserts {
			t.Fatalf("pass-through moved the AVC: %+v -> %+v", before, after)
		}
		if _, u := s.CheckStats(); u != uncovered+1 {
			t.Fatalf("checks_uncovered = %d, want %d", u, uncovered+1)
		}
	})

	t.Run("new coverage decides by the new rules", func(t *testing.T) {
		_, s := bootIndependent(t, probePolicy("allow read /srv/keep/**"))
		for i := 0; i < 2; i++ {
			if err := write(s, "/srv/new/x"); err != nil {
				t.Fatalf("write %d to an uncovered path: %v", i, err)
			}
		}
		replacePolicy(t, s, probePolicy(
			"allow read /srv/keep/**",
			"allow read /srv/new/**"))
		covered, _ := s.CheckStats()
		for i := 0; i < 2; i++ { // miss, then hit: both denied
			if err := write(s, "/srv/new/x"); !sys.IsErrno(err, sys.EACCES) {
				t.Fatalf("write %d after the reload covered it: %v, want EACCES", i, err)
			}
		}
		if err := s.InodePermission(cred, "/srv/new/x", nil, sys.MayRead); err != nil {
			t.Fatalf("read after the reload allowed it: %v", err)
		}
		if c, _ := s.CheckStats(); c != covered+3 {
			t.Fatalf("checks_covered = %d, want %d", c, covered+3)
		}
	})

	t.Run("uncovered under a covered root is never cached", func(t *testing.T) {
		_, s := bootIndependent(t, probePolicy("allow read /srv/sack/**"))
		before := s.AVCStats()
		for i := 0; i < 5; i++ {
			if err := write(s, "/srv/other/x"); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		after := s.AVCStats()
		if after.Inserts != before.Inserts || after.Misses != before.Misses || after.Hits != before.Hits {
			t.Fatalf("uncovered path touched the AVC counters: %+v -> %+v", before, after)
		}
		if covered, uncovered := s.CheckStats(); covered != 0 || uncovered != 5 {
			t.Fatalf("CheckStats = (%d, %d), want (0, 5)", covered, uncovered)
		}
	})
}

const accountingPolicy = `
states { normal = 0 parked = 1 }
initial normal
permissions { APP }
state_per {
  normal: APP
  parked: APP
}
per_rules {
  APP {
    allow read,write /srv/sack/**
    deny write /srv/sack/secret*
  }
}
transitions {
  normal -> parked on park
  parked -> normal on drive
}
`

// TestAVCAccountingInvariant drives a mixed trace through the syscall
// layer — covered hits, misses and denials, root-rejected paths, paths
// under a covered first segment that no rule covers, and transitions
// that empty the cache — and checks the SACKfs stats file: every
// covered check is exactly one AVC hit or miss, and every check is
// covered or uncovered.
func TestAVCAccountingInvariant(t *testing.T) {
	k, s := bootIndependent(t, accountingPolicy)
	for _, p := range []string{"/srv/sack/a", "/srv/sack/b", "/srv/sack/secret1", "/srv/other/c", "/tmp/d"} {
		if err := k.WriteFile(p, 0o666, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	task, err := k.Init().Fork()
	if err != nil {
		t.Fatal(err)
	}
	core.SetSubject(task.Cred, "/usr/bin/app")

	r := rand.New(rand.NewSource(19))
	paths := []string{"/srv/sack/a", "/srv/sack/b", "/srv/sack/secret1", "/srv/other/c", "/tmp/d"}
	denied := 0
	for i := 0; i < 400; i++ {
		if r.Intn(50) == 0 {
			var err error
			if s.CurrentState().Name == "parked" {
				err = s.Deliver("drive")
			} else {
				err = s.Deliver("park")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		flags := vfs.ORdonly
		if r.Intn(2) == 0 {
			flags = vfs.OWronly
		}
		fd, err := task.Open(paths[r.Intn(len(paths))], flags, 0)
		if sys.IsErrno(err, sys.EACCES) {
			denied++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Close(fd); err != nil {
			t.Fatal(err)
		}
	}

	data, err := task.ReadFileAll(core.StatsFile)
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]uint64{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ": "); ok {
			if n, err := strconv.ParseUint(val, 10, 64); err == nil {
				stats[name] = n
			}
		}
	}
	for _, name := range []string{"avc_hits", "avc_misses", "checks_covered", "checks_uncovered", "denials"} {
		if stats[name] == 0 {
			t.Fatalf("trace never produced %s:\n%s", name, data)
		}
	}
	if denied == 0 {
		t.Fatal("trace never produced a denied open")
	}
	if got, want := stats["avc_hits"]+stats["avc_misses"], stats["checks_covered"]; got != want {
		t.Errorf("avc_hits + avc_misses = %d, want checks_covered = %d\n%s", got, want, data)
	}
	if got, want := stats["checks_covered"]+stats["checks_uncovered"], stats["checks"]; got != want {
		t.Errorf("checks_covered + checks_uncovered = %d, want checks = %d\n%s", got, want, data)
	}
	t.Logf("%s", data)
}
