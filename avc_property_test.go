package sack_test

// avc_property_test checks that the access vector cache is semantically
// invisible: over random drive traces, a cached system and a cache-ablated
// system must return identical verdicts for every probe, and both must
// agree with a fresh evaluation of the active rule set. Failures replay
// deterministically from the seed.

import (
	"fmt"
	"testing"
	"time"

	sack "repro"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/sys"
	"repro/internal/trace"
)

// avcProbe is one (path, mask) decision point. The set mixes covered
// paths whose verdict flips with the situation state, covered paths that
// are always denied, and uncovered paths that pass through.
var avcProbes = []struct {
	path string
	mask sys.Access
}{
	{"/dev/vehicle/door0", sys.MayRead},
	{"/dev/vehicle/door0", sys.MayWrite},
	{"/dev/vehicle/door0", sys.MayIoctl},
	{"/dev/vehicle/door3", sys.MayWrite},
	{"/dev/vehicle/window1", sys.MayRead},
	{"/dev/vehicle/window1", sys.MayWrite},
	{"/tmp/uncovered.dat", sys.MayRead},
	{"/etc/passwd", sys.MayWrite},
}

func TestAVCPropertyCachedEqualsUncached(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			boot := func(opts ...sack.Option) (*sack.System, *sds.Service, *resilience.VirtualClock) {
				t.Helper()
				s, err := sack.New(fuzzPolicy, opts...)
				if err != nil {
					t.Fatal(err)
				}
				clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
				svc, err := s.NewSDS(s.Kernel.Init(), clock,
					sds.DrivingDetector(),
					sds.CrashDetector(8.0),
					sds.AllClearDetector(8.0),
				)
				if err != nil {
					t.Fatal(err)
				}
				return s, svc, clock
			}
			cached, cachedSvc, cachedClock := boot()
			plain, plainSvc, plainClock := boot(sack.WithoutAVC())

			cred := sys.NewCred(0, 0)
			tr := trace.NewGenerator(seed).Generate(150)
			var prev time.Duration
			for step, p := range tr.Points {
				if p.T > prev {
					cachedClock.Advance(p.T - prev)
					plainClock.Advance(p.T - prev)
					prev = p.T
				}
				trace.Apply(p, cached.Vehicle.Dynamics)
				trace.Apply(p, plain.Vehicle.Dynamics)
				if _, err := cachedSvc.Poll(); err != nil {
					t.Fatalf("step %d: cached poll: %v", step, err)
				}
				if _, err := plainSvc.Poll(); err != nil {
					t.Fatalf("step %d: plain poll: %v", step, err)
				}
				if a, b := cached.CurrentState().Name, plain.CurrentState().Name; a != b {
					t.Fatalf("step %d: states diverged: cached=%s plain=%s", step, a, b)
				}

				for _, pr := range avcProbes {
					// Probe each system twice so the cached one answers
					// from the cache on the second call whenever possible.
					for rep := 0; rep < 2; rep++ {
						gotCached := cached.SACK.InodePermission(cred, pr.path, nil, pr.mask)
						gotPlain := plain.SACK.InodePermission(cred, pr.path, nil, pr.mask)
						if (gotCached == nil) != (gotPlain == nil) {
							t.Fatalf("step %d probe %s mask=%v rep %d: cached=%v plain=%v",
								step, pr.path, pr.mask, rep, gotCached, gotPlain)
						}
						// Cross-check against a fresh rule-set evaluation.
						want := true
						if cached.SACK.Policy().Coverage.Covers(pr.path) {
							want, _ = cached.SACK.ActiveRules().Decide("", pr.path, pr.mask)
						}
						if got := gotCached == nil; got != want {
							t.Fatalf("step %d probe %s mask=%v rep %d: verdict %v, fresh Decide says %v",
								step, pr.path, pr.mask, rep, got, want)
						}
					}
				}
			}

			assertSameAuditLedger(t, cached, plain)
			if st := cached.SACK.AVCStats(); st.Hits == 0 {
				t.Errorf("cached system never hit its AVC: %+v", st)
			}
			if st := plain.SACK.AVCStats(); st.Size != 0 {
				t.Errorf("WithoutAVC system has a live cache: %+v", st)
			}
		})
	}
}

// auditEntry is the part of an audit record the AVC must not change:
// everything but the sequence number and the wall-clock stamp.
type auditEntry struct{ Op, Subject, Object, Action, Detail string }

// assertSameAuditLedger checks that serving decisions from the AVC left
// the audit trail and the decision counters exactly as full evaluation
// does: no cached denial may drop, duplicate or alter its record.
func assertSameAuditLedger(t *testing.T, cached, plain *sack.System) {
	t.Helper()
	ledger := func(s *sack.System) []auditEntry {
		var out []auditEntry
		for _, r := range s.Audit.Records() {
			out = append(out, auditEntry{r.Op, r.Subject, r.Object, r.Action, r.Detail})
		}
		return out
	}
	a, b := ledger(cached), ledger(plain)
	if len(a) != len(b) {
		t.Fatalf("audit ledger: cached has %d records, plain %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("audit record %d differs:\ncached %+v\nplain  %+v", i, a[i], b[i])
		}
	}
	if ea, eb := cached.Audit.Emitted(), plain.Audit.Emitted(); ea != eb {
		t.Fatalf("audit records emitted: cached %d, plain %d", ea, eb)
	}
	ca, da, _, _ := cached.SACK.Stats()
	cb, db, _, _ := plain.SACK.Stats()
	if ca != cb || da != db {
		t.Fatalf("SACK.Stats checks/denials: cached %d/%d, plain %d/%d", ca, da, cb, db)
	}
	cova, unca := cached.SACK.CheckStats()
	covb, uncb := plain.SACK.CheckStats()
	if cova != covb || unca != uncb {
		t.Fatalf("CheckStats covered/uncovered: cached %d/%d, plain %d/%d", cova, unca, covb, uncb)
	}
}
