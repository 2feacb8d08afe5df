package apparmor

// TestAppArmorDenialDetailMemo holds AppArmor's denial details, served
// from each loaded profile's memo (policy.RuleSet.Detail), against a
// fresh format of the exact oracle's deciding rule over random profiles
// in both modes, single- and multi-bit masks, AVC-served repeats,
// profile rewrites and concurrent fillers. Failures replay from the
// seed. `make matcher-diff` runs it under the race detector.

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/sys"
)

// freshDetail formats a denial of (path, mask) under p now, from the
// exact oracle's deciding rule; ok is false when p allows it.
func freshDetail(p *Profile, path string, mask sys.Access) (detail string, ok bool) {
	allowed, matched := policy.NewRuleSet(p.Name, p.Rules).Decide("", path, mask)
	if allowed {
		return "", false
	}
	if p.Mode == Complain {
		return complainDetail(mask, matched, p.Name), true
	}
	return denialDetail(mask, matched, p.Name), true
}

func TestAppArmorDenialDetailMemo(t *testing.T) {
	names := []string{"p0", "p1", "p2"}
	var byRule, noAllow, complain int
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		audit := lsm.NewAuditLog(1 << 16)
		a := New(audit)
		for _, n := range names {
			if err := a.LoadProfile(genProfile(r, n)); err != nil {
				t.Fatal(err)
			}
		}
		type key struct {
			label, path string
			mask        sys.Access
		}
		keys := make([]key, 40)
		for i := range keys {
			path, mask := genKey(r)
			keys[i] = key{names[r.Intn(len(names))], path, mask}
		}
		// Between passes one profile is rewritten, its mode redrawn: the
		// new rule set must render the new rules and mode.
		for pass := 0; pass < 3; pass++ {
			if pass > 0 {
				if err := a.LoadProfile(genProfile(r, names[r.Intn(len(names))])); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys {
				p := a.Profile(k.label)
				want, denied := freshDetail(p, k.path, k.mask)
				for _, temp := range []string{"cold", "warm"} {
					cred := sys.NewCred(1000, 1000)
					SetLabel(cred, k.label)
					cursor := audit.Cursor()
					_ = a.InodePermission(cred, k.path, nil, k.mask)
					recs, _, _ := audit.Since(cursor)
					if !denied {
						if len(recs) != 0 {
							t.Fatalf("seed %d pass %d %s: %+v: %d records for an allow", seed, pass, temp, k, len(recs))
						}
						continue
					}
					if len(recs) != 1 || recs[0].Detail != want {
						t.Fatalf("seed %d pass %d %s: %+v: records %+v, want one with detail %s\n%s",
							seed, pass, temp, k, recs, want, p)
					}
				}
				switch {
				case !denied:
				case strings.HasSuffix(want, "(complain mode)"):
					complain++
				case strings.Contains(want, " deny rule "):
					byRule++
				default:
					noAllow++
				}
			}
		}

		// Concurrent fillers: the profiles reloaded into a fresh module,
		// every memo filled by several goroutines at once.
		audit = lsm.NewAuditLog(1 << 16)
		fresh := New(audit)
		for _, n := range names {
			if err := fresh.LoadProfile(a.Profile(n)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				cred := sys.NewCred(1000, 1000)
				for i := range keys {
					k := keys[(i*7+g*13)%len(keys)]
					SetLabel(cred, k.label)
					_ = fresh.InodePermission(cred, k.path, nil, k.mask)
				}
			}(g)
		}
		wg.Wait()
		for _, rec := range audit.Records() {
			field, _, _ := strings.Cut(strings.TrimPrefix(rec.Detail, "mask="), " ")
			var mask sys.Access
			for _, op := range strings.Split(field, ",") {
				mask |= sys.ParseAccess(op)
			}
			if want, _ := freshDetail(fresh.Profile(rec.Subject), rec.Object, mask); rec.Detail != want {
				t.Fatalf("seed %d concurrent: %s %s:\n got %s\nwant %s", seed, rec.Subject, rec.Object, rec.Detail, want)
			}
		}
	}
	if byRule == 0 || noAllow == 0 || complain == 0 {
		t.Fatalf("denials by a deny rule %d, for want of an allow rule %d, in complain mode %d; want all three",
			byRule, noAllow, complain)
	}
}
