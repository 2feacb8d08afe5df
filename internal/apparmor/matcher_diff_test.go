package apparmor

// TestAppArmorMatcherDifferential holds the module's decision path —
// AVC probe, compiled matcher, complain-mode handling — against a linear
// scan of the same rules (policy.RuleSet.DecideLinear) over random
// profiles, paths and masks. Failures replay from the seed. `make
// matcher-diff` runs it under the race detector.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/sys"
)

var (
	aaDiffLiterals = []string{"dev", "vehicle", "door0", "door1", "srv", "etc", "a", "b", "file.dat"}
	aaDiffPatterns = []string{"*", "?", "door?", "d*r*", "[ab]", "**", "{a,b}", "file.*", "*0"}
	aaDiffMasks    = []sys.Access{sys.MayRead, sys.MayWrite, sys.MayIoctl, sys.MayAppend, sys.MayExec}
)

func genProfile(r *rand.Rand, name string) *Profile {
	p := &Profile{Name: name, Mode: ProfileMode(r.Intn(2))}
	for n := r.Intn(12); n > 0; n-- {
		segs := make([]string, 1+r.Intn(3))
		for i := range segs {
			if r.Intn(2) == 0 {
				segs[i] = aaDiffLiterals[r.Intn(len(aaDiffLiterals))]
			} else {
				segs[i] = aaDiffPatterns[r.Intn(len(aaDiffPatterns))]
			}
		}
		var perms strings.Builder
		for perms.Len() == 0 {
			for _, c := range "rwaxi" {
				if r.Intn(3) == 0 {
					perms.WriteRune(c)
				}
			}
		}
		if err := p.AddRule("/"+strings.Join(segs, "/"), perms.String(), r.Intn(4) == 0); err != nil {
			panic(err)
		}
	}
	return p
}

func genKey(r *rand.Rand) (string, sys.Access) {
	segs := make([]string, 1+r.Intn(4))
	for i := range segs {
		segs[i] = aaDiffLiterals[r.Intn(len(aaDiffLiterals))]
	}
	var mask sys.Access
	for mask == 0 {
		for _, m := range aaDiffMasks {
			if r.Intn(3) == 0 {
				mask |= m
			}
		}
	}
	return "/" + strings.Join(segs, "/"), mask
}

func TestAppArmorMatcherDifferential(t *testing.T) {
	const rounds, keys = 60, 40
	for seed := int64(1); seed <= rounds; seed++ {
		r := rand.New(rand.NewSource(seed))
		a := New(lsm.NewAuditLog(64))
		names := []string{"p0", "p1", "p2"}
		for _, n := range names {
			if err := a.LoadProfile(genProfile(r, n)); err != nil {
				t.Fatal(err)
			}
		}
		type key struct {
			label, path string
			mask        sys.Access
		}
		ks := make([]key, keys)
		for i := range ks {
			path, mask := genKey(r)
			ks[i] = key{names[r.Intn(len(names))], path, mask}
		}
		// Each pass checks every key cold then warm; between passes one
		// profile is replaced, so the cache must not serve a verdict the
		// replacement revoked.
		for pass := 0; pass < 3; pass++ {
			if pass > 0 {
				if err := a.LoadProfile(genProfile(r, names[r.Intn(len(names))])); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range ks {
				p := a.Profile(k.label)
				want, _ := policy.NewRuleSet(p.Name, p.Rules).DecideLinear("", k.path, k.mask)
				for _, temp := range []string{"cold", "warm"} {
					allowed0, denied0 := a.Stats()
					cred := sys.NewCred(1000, 1000)
					SetLabel(cred, k.label)
					err := a.InodePermission(cred, k.path, nil, k.mask)
					allowed1, denied1 := a.Stats()
					got := allowed1 == allowed0+1 && denied1 == denied0
					if !got && (allowed1 != allowed0 || denied1 != denied0+1) {
						t.Fatalf("seed %d: counters moved by %d/%d on one check", seed,
							allowed1-allowed0, denied1-denied0)
					}
					wantErr := !want && p.Mode == Enforce
					if got != want || (err != nil) != wantErr {
						t.Fatalf("seed %d pass %d %s: %s %s %s: allowed=%v err=%v, DecideLinear=%v\n%s",
							seed, pass, temp, k.label, k.path, k.mask, got, err, want, p)
					}
				}
			}
		}
		if st := a.AVCStats(); st.Hits == 0 {
			t.Fatalf("seed %d: no check was served from the AVC: %+v", seed, st)
		}
	}
}
