package core

// detail_memo_test holds the denial-detail memo (policy.RuleSet.Detail,
// rendered once per deciding rule and mask) against a fresh format of
// the exact oracle's deciding rule, over random compiled policies,
// every state, single- and multi-bit masks, deny-rule and no-allow
// denials, AVC-served repeats, reloads and concurrent fillers. Failures
// replay from the seed. `make matcher-diff` runs it under the race
// detector.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/sys"
)

var (
	memoLiterals = []string{"srv", "dev", "vehicle", "door0", "a", "b", "secret", "x.dat"}
	memoPatterns = []string{"*", "door?", "[ab]", "**", "{a,b}", "*.dat"}
	memoSubjects = []string{"/usr/bin/app", "/usr/bin/ivi", "/sbin/sds"}
	memoOps      = sys.AccessNames()
)

func memoSegs(r *rand.Rand, patterns bool) string {
	segs := make([]string, 1+r.Intn(3))
	for i := range segs {
		if patterns && r.Intn(2) == 0 {
			segs[i] = memoPatterns[r.Intn(len(memoPatterns))]
		} else {
			segs[i] = memoLiterals[r.Intn(len(memoLiterals))]
		}
	}
	return "/" + strings.Join(segs, "/")
}

// memoOpsList draws one operation half the time, else two or three.
func memoOpsList(r *rand.Rand) []string {
	n := 1
	if r.Intn(2) == 0 {
		n = 2 + r.Intn(2)
	}
	var ops []string
	for _, i := range r.Perm(len(memoOps))[:n] {
		ops = append(ops, memoOps[i])
	}
	return ops
}

func memoMask(r *rand.Rand) sys.Access {
	var mask sys.Access
	for _, op := range memoOpsList(r) {
		mask |= sys.ParseAccess(op)
	}
	return mask
}

// memoPolicy compiles a random policy over states s0..: permission P0
// is granted in every state, so its rules decide in several states at
// once, and the others in random subsets.
func memoPolicy(t *testing.T, r *rand.Rand) *policy.Compiled {
	t.Helper()
	f := &policy.File{}
	nPerms := 2 + r.Intn(3)
	for p := 0; p < nPerms; p++ {
		name := fmt.Sprintf("P%d", p)
		f.Permissions = append(f.Permissions, policy.PermDecl{Name: name})
		decl := policy.PerRulesDecl{Perm: name}
		for n := 1 + r.Intn(8); n > 0; n-- {
			rd := policy.RuleDecl{Deny: r.Intn(3) == 0, Path: memoSegs(r, true), Ops: memoOpsList(r)}
			if r.Intn(5) == 0 {
				rd.Subject = []string{"/usr/bin/*", "/usr/bin/app"}[r.Intn(2)]
			}
			decl.Rules = append(decl.Rules, rd)
		}
		f.PerRules = append(f.PerRules, decl)
	}
	for s := 0; s < 2+r.Intn(3); s++ {
		name := fmt.Sprintf("s%d", s)
		f.States = append(f.States, policy.StateDecl{Name: name})
		perms := []string{"P0"}
		for p := 1; p < nPerms; p++ {
			if r.Intn(2) == 0 {
				perms = append(perms, fmt.Sprintf("P%d", p))
			}
		}
		f.StatePer = append(f.StatePer, policy.StatePerDecl{State: name, Perms: perms})
	}
	c, _, err := policy.Compile(f)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

type memoKey struct {
	subject, path string
	mask          sys.Access
}

// wantDetail is the fresh format of a denial: the exact oracle's
// deciding rule, rendered now. ok is false when the key is not denied.
func wantDetail(c *policy.Compiled, state string, k memoKey) (detail string, ok bool) {
	if !c.Coverage.CoversWalk(k.path) {
		return "", false
	}
	allowed, matched := c.StateSets[state].Decide(k.subject, k.path, k.mask)
	if allowed {
		return "", false
	}
	return denialDetail(k.mask, matched, state), true
}

// maskOf reads a denial's mask back from the "mask=" prefix of its
// detail.
func maskOf(t *testing.T, detail string) sys.Access {
	t.Helper()
	field, _, _ := strings.Cut(strings.TrimPrefix(detail, "mask="), " ")
	var mask sys.Access
	for _, op := range strings.Split(field, ",") {
		mask |= sys.ParseAccess(op)
	}
	if mask == 0 {
		t.Fatalf("detail %q names no mask", detail)
	}
	return mask
}

func TestDenialDetailMemoDifferential(t *testing.T) {
	var byRule, noAllow int // denials decided by a deny rule, by no allow rule
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := memoPolicy(t, r)
		audit := lsm.NewAuditLog(1 << 16)
		s, err := New(Config{Policy: c, Audit: audit})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]memoKey, 80)
		for i := range keys {
			keys[i] = memoKey{memoSubjects[r.Intn(len(memoSubjects))], memoSegs(r, false), memoMask(r)}
		}
		denials := 0
		// Round 1 reloads a fresh random policy over the same state
		// names: its rule sets must render their own rules' text.
		for round := 0; round < 2; round++ {
			if round == 1 {
				c = memoPolicy(t, r)
				if _, err := s.ReplacePolicy(c, ""); err != nil {
					t.Fatalf("seed %d: reload: %v", seed, err)
				}
			}
			for _, st := range c.StateNames() {
				mustForce(t, s, st)
				for _, temp := range []string{"cold", "warm"} {
					for _, k := range keys {
						cred := sys.NewCred(1000, 1000)
						SetSubject(cred, k.subject)
						cursor := audit.Cursor()
						err := s.check(cred, "inode_permission", k.path, k.mask)
						recs, _, _ := audit.Since(cursor)
						want, denied := wantDetail(c, st, k)
						if !denied {
							if err != nil || len(recs) != 0 {
								t.Fatalf("seed %d round %d %s %s: %+v: err=%v records=%d, want an allow",
									seed, round, st, temp, k, err, len(recs))
							}
							continue
						}
						denials++
						if strings.Contains(want, " no allow rule ") {
							noAllow++
						} else {
							byRule++
						}
						if !sys.IsErrno(err, sys.EACCES) || len(recs) != 1 {
							t.Fatalf("seed %d round %d %s %s: %+v: err=%v records=%d, want one denial",
								seed, round, st, temp, k, err, len(recs))
						}
						if got := recs[0].Detail; got != want {
							t.Fatalf("seed %d round %d %s %s: %+v:\n got %s\nwant %s",
								seed, round, st, temp, k, got, want)
						}
					}
				}
			}
		}
		if denials == 0 {
			t.Fatalf("seed %d: no key was denied", seed)
		}

		// Concurrent fillers: a fresh boot of the reloaded policy, every
		// state's memo filled through the hooks by several goroutines at
		// once; each record must match its fresh format.
		for _, st := range c.StateNames() {
			audit := lsm.NewAuditLog(1 << 16)
			s, err := New(Config{Policy: c, Audit: audit, DisableAVC: true})
			if err != nil {
				t.Fatal(err)
			}
			mustForce(t, s, st)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					cred := sys.NewCred(1000, 1000)
					for i := range keys {
						k := keys[(i*7+g*13)%len(keys)]
						SetSubject(cred, k.subject)
						_ = s.check(cred, "inode_permission", k.path, k.mask)
					}
				}(g)
			}
			wg.Wait()
			for _, rec := range audit.Denials() {
				k := memoKey{rec.Subject, rec.Object, maskOf(t, rec.Detail)}
				if want, _ := wantDetail(c, st, k); rec.Detail != want {
					t.Fatalf("seed %d %s concurrent: %+v:\n got %s\nwant %s", seed, st, k, rec.Detail, want)
				}
			}
		}
	}
	if byRule == 0 || noAllow == 0 {
		t.Fatalf("denials by a deny rule: %d, for want of an allow rule: %d; want both", byRule, noAllow)
	}
	t.Logf("denials by a deny rule: %d, for want of an allow rule: %d", byRule, noAllow)
}

// TestDenialDetailMemoSharesOneString fills fresh rule sets' memos from
// several goroutines at once, for every rank (NoRule included) and a
// set of masks: every filler must get the fresh format, and all of them
// the one string the memo kept.
func TestDenialDetailMemoSharesOneString(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := memoPolicy(t, r)
	masks := []sys.Access{sys.MayRead, sys.MayWrite, sys.MayRead | sys.MayWrite, sys.MayIoctl | sys.MayUnlink}
	type slot struct {
		state string
		rank  int
		mask  sys.Access
	}
	var slots []slot
	for _, st := range c.StateNames() {
		for rank := policy.NoRule; rank < c.StateSets[st].Len(); rank++ {
			for _, m := range masks {
				slots = append(slots, slot{st, rank, m})
			}
		}
	}
	const fillers = 4
	got := make([][]string, fillers)
	var wg sync.WaitGroup
	for g := 0; g < fillers; g++ {
		got[g] = make([]string, len(slots))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(slots)) {
				sl := slots[i]
				got[g][i] = c.StateSets[sl.state].Detail(sl.rank, sl.mask, denialDetail)
			}
		}(g)
	}
	wg.Wait()
	for i, sl := range slots {
		rs := c.StateSets[sl.state]
		want := denialDetail(sl.mask, rs.Matcher().Rule(sl.rank), sl.state)
		for g := range got {
			if got[g][i] != want {
				t.Fatalf("filler %d %+v:\n got %s\nwant %s", g, sl, got[g][i], want)
			}
			if unsafe.StringData(got[g][i]) != unsafe.StringData(got[0][i]) {
				t.Fatalf("%+v: fillers 0 and %d hold different copies of one detail", sl, g)
			}
		}
	}
}

const memoStatesPolicy = `
states {
  normal = 0
  parked = 1
}
initial normal
permissions {
  BASE
}
state_per {
  normal: BASE
  parked: BASE
}
per_rules {
  BASE {
    allow read /srv/**
    deny read /srv/secret/*
  }
}
`

// TestDenialDetailMemoPerStateAndReload: one rule granted in two states
// names each state in its denials, however often the states alternate,
// and after a reload that rewrites the rule no denial carries the old
// rule's text.
func TestDenialDetailMemoPerStateAndReload(t *testing.T) {
	c, _, err := policy.Load(memoStatesPolicy)
	if err != nil {
		t.Fatal(err)
	}
	audit := lsm.NewAuditLog(0)
	s, err := New(Config{Policy: c, Audit: audit})
	if err != nil {
		t.Fatal(err)
	}
	cred := sys.NewCred(1000, 1000)
	SetSubject(cred, "/usr/bin/app")
	deny := func(state, want string) {
		t.Helper()
		mustForce(t, s, state)
		cursor := audit.Cursor()
		if err := s.check(cred, "inode_permission", "/srv/secret/key", sys.MayRead); !sys.IsErrno(err, sys.EACCES) {
			t.Fatalf("%s: %v, want EACCES", state, err)
		}
		recs, _, _ := audit.Since(cursor)
		if len(recs) != 1 || recs[0].Detail != want {
			t.Fatalf("%s: records %+v, want one with detail %s", state, recs, want)
		}
	}
	for i := 0; i < 3; i++ {
		deny("normal", `mask=read rule "deny read /srv/secret/*" in state normal`)
		deny("parked", `mask=read rule "deny read /srv/secret/*" in state parked`)
	}

	reloaded, _, err := policy.Load(strings.Replace(memoStatesPolicy,
		"deny read /srv/secret/*", "deny read,write /srv/secret/*", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReplacePolicy(reloaded, ""); err != nil {
		t.Fatal(err)
	}
	deny("normal", `mask=read rule "deny write,read /srv/secret/*" in state normal`)
	deny("parked", `mask=read rule "deny write,read /srv/secret/*" in state parked`)
}

// mustForce moves s into the named state of its live policy, as a
// SACKfs state write does.
func mustForce(t *testing.T, s *SACK, state string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.forceLocked(state); err != nil {
		t.Fatalf("force %s: %v", state, err)
	}
}
