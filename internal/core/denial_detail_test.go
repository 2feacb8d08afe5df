package core_test

import (
	"testing"

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
			cred.SetBlob("sack", c.subject)
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
