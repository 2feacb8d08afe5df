package apparmor

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/lsm"
	"repro/internal/securityfs"
	"repro/internal/sys"
	"repro/internal/vfs"
)

func mustProfile(t *testing.T, src string) *Profile {
	t.Helper()
	p, err := ParseProfile(src)
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	return p
}

func TestParseProfileBasics(t *testing.T) {
	p := mustProfile(t, `
# door daemon confinement
profile doord /usr/bin/doord {
  /dev/vehicle/door* rwi,
  /etc/doord.conf r,
  deny /home/** rw,
}`)
	if p.Name != "doord" || p.Mode != Enforce {
		t.Fatalf("header = %+v", p)
	}
	if !p.AttachesTo("/usr/bin/doord") || p.AttachesTo("/usr/bin/other") {
		t.Error("attachment wrong")
	}
	if len(p.Rules) != 3 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
	if !p.Rules[2].Deny {
		t.Error("deny flag lost")
	}
}

func TestParsePathNamedProfile(t *testing.T) {
	p := mustProfile(t, "profile /usr/sbin/tcpdump {\n /etc/protocols r,\n}")
	if !p.AttachesTo("/usr/sbin/tcpdump") {
		t.Error("path-named profile should self-attach")
	}
}

func TestParseComplainFlag(t *testing.T) {
	p := mustProfile(t, "profile x /bin/x flags=(complain) {\n /etc/** r,\n}")
	if p.Mode != Complain {
		t.Error("complain flag lost")
	}
}

func TestParseMultipleProfiles(t *testing.T) {
	ps, err := ParseProfiles(`
profile a /bin/a {
  /x r,
}
profile b /bin/b {
  /y w,
}`)
	if err != nil || len(ps) != 2 {
		t.Fatalf("ParseProfiles: %d, %v", len(ps), err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                      // empty
		"profile {\n}",                          // nameless
		"profile x /bin/x {\n /y zz,\n}",        // bad perm letter
		"profile x /bin/x {\n /y r",             // unterminated
		"profile x /bin/x {\n bare,\n}",         // rule without perms
		"notprofile x {\n}",                     // wrong keyword
		"profile x /bin/x flags=(verbose) {\n}", // unknown flag
	}
	for _, src := range cases {
		if _, err := ParseProfiles(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestEvaluateSemantics(t *testing.T) {
	p := mustProfile(t, `
profile t /bin/t {
  /data/** rw,
  deny /data/secret/** w,
  /dev/door* rwi,
}`)
	cases := []struct {
		path string
		mask sys.Access
		want bool
	}{
		{"/data/a", sys.MayRead, true},
		{"/data/a/b", sys.MayWrite, true},
		{"/data/secret/k", sys.MayWrite, false}, // deny wins
		{"/data/secret/k", sys.MayRead, true},   // deny only covers write
		{"/dev/door0", sys.MayIoctl, true},
		{"/dev/window0", sys.MayIoctl, false},          // unmatched
		{"/data/a", sys.MayRead | sys.MayIoctl, false}, // partial grant insufficient
	}
	a := New(nil)
	if err := a.LoadProfile(p); err != nil {
		t.Fatal(err)
	}
	cred := sys.NewCred(1000, 1000)
	SetLabel(cred, "t")
	for _, c := range cases {
		if got := a.InodePermission(cred, c.path, nil, c.mask) == nil; got != c.want {
			t.Errorf("check(%q, %s) allowed = %v, want %v", c.path, c.mask, got, c.want)
		}
	}
}

func TestPermsRoundTrip(t *testing.T) {
	mask, err := ParsePerms("rwi")
	if err != nil {
		t.Fatal(err)
	}
	if !mask.Has(sys.MayRead | sys.MayWrite | sys.MayIoctl) {
		t.Error("mask missing bits")
	}
	if got := FormatPerms(mask); got != "rwi" {
		t.Errorf("FormatPerms = %q", got)
	}
	if _, err := ParsePerms(""); err == nil {
		t.Error("empty perms should fail")
	}
	if _, err := ParsePerms("rz"); err == nil {
		t.Error("unknown letter should fail")
	}
}

// Property: FormatPerms(ParsePerms(x)) is stable under re-parsing.
func TestPropertyPermsCanonicalization(t *testing.T) {
	letters := "rwaxmkicd"
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteByte(letters[int(p)%len(letters)])
		}
		if b.Len() == 0 {
			return true
		}
		m1, err := ParsePerms(b.String())
		if err != nil {
			return false
		}
		canon := FormatPerms(m1)
		m2, err := ParsePerms(canon)
		return err == nil && m1 == m2 && FormatPerms(m2) == canon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProfileStringRoundTrip(t *testing.T) {
	p := mustProfile(t, `
profile doord /usr/bin/doord flags=(complain) {
  /dev/vehicle/door* rwi,
  deny /home/** rw,
}`)
	p2, err := ParseProfile(p.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, p.String())
	}
	if p2.Name != p.Name || p2.Mode != p.Mode || len(p2.Rules) != len(p.Rules) {
		t.Error("round trip changed profile")
	}
}

func TestModuleLoadReplaceRemove(t *testing.T) {
	a := New(nil)
	p1 := mustProfile(t, "profile x /bin/x {\n /etc/** r,\n}")
	if err := a.LoadProfile(p1); err != nil {
		t.Fatal(err)
	}
	if got := a.ProfileNames(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("names = %v", got)
	}
	p2 := mustProfile(t, "profile x /bin/x {\n /etc/** rw,\n}")
	if err := a.LoadProfile(p2); err != nil {
		t.Fatal(err)
	}
	if a.Profile("x") != p2 {
		t.Error("replace did not swap")
	}
	if err := a.RemoveProfile("x"); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveProfile("x"); !sys.IsErrno(err, sys.ENOENT) {
		t.Errorf("double remove: %v", err)
	}
}

func TestBprmAttachAndEnforce(t *testing.T) {
	a := New(nil)
	a.LoadProfile(mustProfile(t, `
profile radio /usr/lib/ivi/radio {
  /dev/audio rwi,
}`))
	cred := sys.NewCred(1000, 1000)

	// Unconfined before exec.
	if err := a.InodePermission(cred, "/etc/shadow", nil, sys.MayRead); err != nil {
		t.Errorf("unconfined access: %v", err)
	}
	if err := a.BprmCheck(cred, "/usr/lib/ivi/radio", nil); err != nil {
		t.Fatal(err)
	}
	if got := LabelFor(cred); got != "radio" {
		t.Fatalf("label = %q", got)
	}
	if err := a.InodePermission(cred, "/dev/audio", nil, sys.MayRead); err != nil {
		t.Errorf("granted path: %v", err)
	}
	if err := a.InodePermission(cred, "/etc/shadow", nil, sys.MayRead); !sys.IsErrno(err, sys.EACCES) {
		t.Errorf("unmatched path for confined task: %v", err)
	}

	// Exec of an unconfined binary drops the label.
	a.BprmCheck(cred, "/usr/bin/sh", nil)
	if got := LabelFor(cred); got != Unconfined {
		t.Fatalf("label after exec = %q", got)
	}
}

func TestComplainModeAuditsButAllows(t *testing.T) {
	audit := lsm.NewAuditLog(0)
	a := New(audit)
	a.LoadProfile(mustProfile(t, `
profile x /bin/x flags=(complain) {
  /allowed r,
}`))
	cred := sys.NewCred(1000, 1000)
	a.BprmCheck(cred, "/bin/x", nil)
	if err := a.InodePermission(cred, "/not/allowed", nil, sys.MayRead); err != nil {
		t.Fatalf("complain mode denied: %v", err)
	}
	recs := audit.Records()
	if len(recs) != 1 || !strings.Contains(recs[0].Detail, "complain") {
		t.Fatalf("audit = %+v", recs)
	}
}

func TestStaleLabelAfterProfileRemoval(t *testing.T) {
	a := New(nil)
	a.LoadProfile(mustProfile(t, "profile x /bin/x {\n /y r,\n}"))
	cred := sys.NewCred(0, 0)
	a.BprmCheck(cred, "/bin/x", nil)
	a.RemoveProfile("x")
	// Stale label must degrade to unconfined, not panic or deny all.
	if err := a.InodePermission(cred, "/anything", nil, sys.MayRead); err != nil {
		t.Fatalf("stale label: %v", err)
	}
}

func TestAnonymousObjectsNotMediated(t *testing.T) {
	a := New(nil)
	a.LoadProfile(mustProfile(t, "profile x /bin/x {\n /y r,\n}"))
	cred := sys.NewCred(0, 0)
	a.BprmCheck(cred, "/bin/x", nil)
	pipe := vfs.NewFile(vfs.NewAnonInode(vfs.ModeFIFO|0o600), "pipe:[r]", vfs.ORdonly)
	if err := a.FilePermission(cred, pipe, sys.MayRead); err != nil {
		t.Fatalf("pipe mediated by path MAC: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	a := New(nil)
	a.LoadProfile(mustProfile(t, "profile x /bin/x {\n /ok r,\n}"))
	cred := sys.NewCred(0, 0)
	a.BprmCheck(cred, "/bin/x", nil)
	a.InodePermission(cred, "/ok", nil, sys.MayRead)
	a.InodePermission(cred, "/nope", nil, sys.MayRead)
	allowed, denied := a.Stats()
	if allowed != 1 || denied != 1 {
		t.Fatalf("stats = %d, %d", allowed, denied)
	}
}

func TestConcurrentCheckDuringReplace(t *testing.T) {
	a := New(nil)
	base := mustProfile(t, "profile x /bin/x {\n /data/** r,\n}")
	a.LoadProfile(base)
	cred := sys.NewCred(0, 0)
	a.BprmCheck(cred, "/bin/x", nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := a.InodePermission(cred, "/data/f", nil, sys.MayRead)
				// Both outcomes are legal mid-replace; crashes are not.
				_ = err
			}
		}()
	}
	for i := 0; i < 200; i++ {
		a.LoadProfile(base.Clone())
	}
	close(stop)
	wg.Wait()
}

func TestSecurityFSInterface(t *testing.T) {
	fs := vfs.New()
	secfs, err := securityfs.Mount(fs)
	if err != nil {
		t.Fatal(err)
	}
	a := New(nil)
	if err := a.RegisterSecurityFS(secfs); err != nil {
		t.Fatal(err)
	}
	root := sys.NewCred(0, 0)
	user := sys.NewCred(1000, 1000)

	loadNode, err := fs.Lookup("/sys/kernel/security/apparmor/.load")
	if err != nil {
		t.Fatal(err)
	}
	f := vfs.NewFile(loadNode, "/sys/kernel/security/apparmor/.load", vfs.OWronly)
	profileText := "profile t /bin/t {\n /x r,\n}\n"
	if _, err := f.Write(root, []byte(profileText)); err != nil {
		t.Fatalf("load via securityfs: %v", err)
	}
	if a.Profile("t") == nil {
		t.Fatal("profile not loaded")
	}
	// CAP_MAC_ADMIN is required even with an open descriptor.
	if _, err := f.Write(user, []byte(profileText)); !sys.IsErrno(err, sys.EPERM) {
		t.Fatalf("unprivileged load: %v", err)
	}

	// profiles listing.
	listNode, _ := fs.Lookup("/sys/kernel/security/apparmor/profiles")
	lf := vfs.NewFile(listNode, "", vfs.ORdonly)
	buf := make([]byte, 256)
	n, _ := lf.Read(root, buf)
	if !strings.Contains(string(buf[:n]), "t (enforce)") {
		t.Fatalf("profiles listing = %q", buf[:n])
	}

	// removal.
	rmNode, _ := fs.Lookup("/sys/kernel/security/apparmor/.remove")
	rf := vfs.NewFile(rmNode, "", vfs.OWronly)
	if _, err := rf.Write(root, []byte("t\n")); err != nil {
		t.Fatal(err)
	}
	if a.Profile("t") != nil {
		t.Fatal("profile not removed")
	}
}
