package core_test

import (
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/sys"
)

const detailPolicy = `
states {
  normal = 0
}
initial normal
permissions {
  BASE
}
state_per {
  normal: BASE
}
per_rules {
  BASE {
    allow read,write /srv/**
    deny read /srv/secret/*
    deny write,ioctl,unlink /srv/locked/{a,b}* subject /usr/bin/app*
  }
}
`

// The audit Detail of a SACK denial is part of the decision-log format
// shipped upstream; these strings pin it byte for byte.
func TestDenialDetailGolden(t *testing.T) {
	cases := []struct {
		name, subject, path string
		mask                sys.Access
		want                string
	}{
		{"single-op mask", "/usr/bin/app1", "/srv/secret/key", sys.MayRead,
			`mask=read rule "deny read /srv/secret/*" in state normal`},
		{"multi-op rule with subject", "/usr/bin/app1", "/srv/locked/a1", sys.MayWrite,
			`mask=write rule "deny write,ioctl,unlink /srv/locked/{a,b}* subject /usr/bin/app*" in state normal`},
		{"no matching rule", "/usr/bin/other", "/srv/data", sys.MayRead | sys.MayWrite | sys.MayIoctl,
			`mask=write,read,ioctl no allow rule in state normal`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k, s := bootIndependent(t, detailPolicy)
			cred := sys.NewCred(1000, 1000)
			core.SetSubject(cred, c.subject)
			if err := s.InodePermission(cred, c.path, nil, c.mask); !sys.IsErrno(err, sys.EACCES) {
				t.Fatalf("InodePermission: %v, want EACCES", err)
			}
			k.Audit.Flush()
			recs := k.Audit.Denials()
			if len(recs) != 1 {
				t.Fatalf("%d denial records, want 1", len(recs))
			}
			if got := recs[0].Detail; got != c.want {
				t.Errorf("Detail\n got %s\nwant %s", got, c.want)
			}
		})
	}
}

// A repeated denial is served from the AVC: the first touch misses, the
// second misses and admits it, and the third is a hit. Check reports it
// as a cache hit, and the cached denial still counts and audits as its
// own event, with the same Detail as the evaluated ones.
func TestCachedDenialIsCacheHit(t *testing.T) {
	k, s := bootIndependent(t, detailPolicy)
	cred := sys.NewCred(1000, 1000)
	core.SetSubject(cred, "/usr/bin/app1")
	for i := 0; i < 3; i++ {
		if err := s.InodePermission(cred, "/srv/secret/key", nil, sys.MayRead); !sys.IsErrno(err, sys.EACCES) {
			t.Fatalf("denial %d: %v, want EACCES", i, err)
		}
	}
	d, err := s.Check("/usr/bin/app1", "/srv/secret/key", sys.MayRead)
	if err != nil {
		t.Fatal(err)
	}
	if !d.CacheHit || d.Allowed {
		t.Fatalf("Check = %+v, want a cached denial", d)
	}
	if _, denials, _, _ := s.Stats(); denials != 3 {
		t.Fatalf("denials = %d, want 3", denials)
	}
	if st := s.AVCStats(); st.Hits != 1 || st.Misses != 2 || st.Inserts != 1 {
		t.Fatalf("AVC stats = %+v, want 1 hit, 2 misses, 1 insert", st)
	}
	recs := k.Audit.Denials()
	if len(recs) != 3 || recs[0].Detail != recs[1].Detail || recs[0].Detail != recs[2].Detail {
		t.Fatalf("denial records = %+v, want three with equal Detail", recs)
	}
}

// A storm of one-off denials from one task stores nothing in the AVC,
// so it neither allocates entries nor evicts another key's cached allow:
// the AVC admits a denial only on its second miss in an epoch.
func TestOneOffDenialsKeepCachedAllow(t *testing.T) {
	_, s := bootIndependent(t, detailPolicy)
	reader := sys.NewCred(1000, 1000)
	core.SetSubject(reader, "/usr/bin/reader")
	read := func() {
		t.Helper()
		if err := s.InodePermission(reader, "/srv/data", nil, sys.MayRead); err != nil {
			t.Fatalf("allowed read: %v", err)
		}
	}
	read() // miss: the allow is stored at once
	before := s.AVCStats()
	if before.Inserts != 1 {
		t.Fatalf("allow not cached on its first miss: %+v", before)
	}

	storm := sys.NewCred(1000, 1000)
	core.SetSubject(storm, "/usr/bin/app1")
	for i := 0; i < 10000; i++ {
		path := "/srv/secret/f" + strconv.Itoa(i)
		if err := s.InodePermission(storm, path, nil, sys.MayRead); !sys.IsErrno(err, sys.EACCES) {
			t.Fatalf("denial %d: %v, want EACCES", i, err)
		}
	}
	mid := s.AVCStats()
	if mid.Inserts != before.Inserts || mid.Misses != before.Misses+10000 {
		t.Fatalf("one-off denials moved the AVC: %+v -> %+v, want 10000 misses and no insert", before, mid)
	}
	read()
	if after := s.AVCStats(); after.Hits != mid.Hits+1 || after.Inserts != mid.Inserts {
		t.Fatalf("cached allow did not survive the storm: %+v -> %+v", mid, after)
	}
}
