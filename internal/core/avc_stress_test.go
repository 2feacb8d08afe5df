package core_test

// avc_stress_test hammers the AVC-backed decision fast path with checks
// racing situation transitions. Run with -race: the test asserts the
// cache's one correctness property — a cached allow never survives the
// epoch bump of the transition that revoked it — while the race detector
// watches the lock-free table.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/sys"
)

// TestAVCConcurrentRevocation drives the Fig. 3(b) revocation property
// under contention: checker goroutines hit the same (subject, path, mask)
// keys continuously while the main goroutine flips the situation state.
// Immediately after every DeliverEvent returns, a synchronous check must
// reflect the *new* state — a stale cached allow here would be exactly
// the coherence bug the epoch protocol exists to prevent. Every
// iteration also caches reads of keys never seen before, and every
// 25th reloads the policy, so the table doubles several times between
// the transitions and reloads while the checkers race it.
func TestAVCConcurrentRevocation(t *testing.T) {
	_, s := bootIndependent(t, casePolicy)
	const path = "/dev/vehicle/door0"
	compiled, _, err := policy.Load(casePolicy)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cred := sys.NewCred(0, 0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Keep both verdict classes flowing through the cache.
				s.InodePermission(cred, path, nil, sys.MayRead)
				s.InodePermission(cred, path, nil, sys.MayWrite)
			}
		}()
	}

	cred := sys.NewCred(0, 0)
	// first and last are the AVC's slot counts after the first and the
	// last transition.
	var first, last int
	for i := 0; i < 200; i++ {
		for k := 4 * i; k < 4*(i+1); k++ {
			if err := s.InodePermission(cred, fmt.Sprintf("/etc/app%d.conf", k), nil, sys.MayRead); err != nil {
				t.Fatalf("iteration %d: read of /etc/app%d.conf denied: %v", i, k, err)
			}
		}
		if i%25 == 24 {
			if _, err := s.ReplacePolicy(compiled, casePolicy); err != nil {
				t.Fatalf("iteration %d: reload: %v", i, err)
			}
		}
		if i%2 == 0 {
			if err := s.Deliver("crash_detected"); err != nil || s.CurrentState().Name != "emergency" {
				t.Fatalf("iteration %d: crash_detected ignored: %v", i, err)
			}
			if err := s.InodePermission(cred, path, nil, sys.MayWrite); err != nil {
				t.Fatalf("iteration %d: write denied in emergency: %v", i, err)
			}
			// Same key, same epoch: only this goroutine invalidates, so
			// the repeat is a guaranteed cache hit.
			if err := s.InodePermission(cred, path, nil, sys.MayWrite); err != nil {
				t.Fatalf("iteration %d: repeat write denied in emergency: %v", i, err)
			}
		} else {
			if err := s.Deliver("all_clear"); err != nil || s.CurrentState().Name != "normal" {
				t.Fatalf("iteration %d: all_clear ignored: %v", i, err)
			}
			if err := s.InodePermission(cred, path, nil, sys.MayWrite); err == nil {
				t.Fatalf("iteration %d: stale cached allow served after revocation", i)
			}
		}
		last = s.AVCStats().Size
		if i == 0 {
			first = last
		}
	}
	close(stop)
	wg.Wait()
	// Sizes are powers of two: a 4× ratio is two doublings with a
	// transition before and after them.
	if last < 4*first {
		t.Errorf("AVC slot count %d after the first transition, %d after the last: want two doublings between them",
			first, last)
	}

	st := s.AVCStats()
	if st.Invalidations < 200 {
		t.Errorf("expected >= 200 invalidations (one per transition), got %d", st.Invalidations)
	}
	if st.Hits == 0 {
		t.Error("cache never hit — the stress test exercised nothing")
	}
}

// TestAVCDisabledStillEnforces runs the same revocation sequence with the
// cache ablated, pinning that DisableAVC changes performance only.
func TestAVCDisabledStillEnforces(t *testing.T) {
	_, s := bootIndependentNoAVC(t, casePolicy)
	const path = "/dev/vehicle/door0"
	cred := sys.NewCred(0, 0)
	for i := 0; i < 10; i++ {
		s.Deliver("crash_detected")
		if err := s.InodePermission(cred, path, nil, sys.MayWrite); err != nil {
			t.Fatalf("write denied in emergency: %v", err)
		}
		s.Deliver("all_clear")
		if err := s.InodePermission(cred, path, nil, sys.MayWrite); err == nil {
			t.Fatal("write allowed in normal state")
		}
	}
	if st := s.AVCStats(); st.Size != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("disabled cache reported activity: %+v", st)
	}
}
