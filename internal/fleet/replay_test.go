package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestPersistConcurrentIngestDrainReplay races uploaders against a
// draining consumer, restarts the server, and requires the replayed
// ingestion ledger to equal the live one. Replay re-applies records in
// WAL order, so any ingest or drain whose record lands in a different
// order than its change to the buffer puts drained records back (or
// drops queued ones) after a restart.
func TestPersistConcurrentIngestDrainReplay(t *testing.T) {
	dir := t.TempDir()
	st := openStoreAt(t, dir)
	s, err := OpenServer(st)
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	const uploaders, batches, size = 8, 40, 10
	stop := make(chan struct{})
	drainerDone := make(chan struct{})
	go func() {
		defer close(drainerDone)
		for {
			select {
			case <-stop:
				return
			default:
				s.Drain(0)
			}
		}
	}()
	var wg sync.WaitGroup
	for u := 0; u < uploaders; u++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for b := uint64(0); b < batches; b++ {
				if _, err := s.UploadLogs(id, logBatch(b*size+1, size)); err != nil {
					t.Errorf("upload %s: %v", id, err)
					return
				}
			}
		}(fmt.Sprintf("car-%d", u))
	}
	wg.Wait()
	close(stop)
	<-drainerDone

	live := s.Stats().Logs
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st2 := openStoreAt(t, dir)
	defer st2.Close()
	s2, err := OpenServer(st2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := s2.Stats().Logs; got != live {
		t.Fatalf("replayed ledger differs from live:\n live     %+v\n replayed %+v", live, got)
	}
}

// TestPersistDuplicateUploadAcceptedOnce sends one batch twice at the
// same time — a client that gave up on a request retries it while the
// first is still running — and requires the batch to be taken once:
// the two calls' accept counts sum to the batch size and so does the
// vehicle's ledger, live and after a restart.
func TestPersistDuplicateUploadAcceptedOnce(t *testing.T) {
	dir := t.TempDir()
	st := openStoreAt(t, dir)
	s, err := OpenServer(st)
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	const rounds, size = 200, 50
	for r := 0; r < rounds; r++ {
		id := fmt.Sprintf("car-%03d", r)
		batch := logBatch(1, size)
		var (
			wg    sync.WaitGroup
			got   [2]int
			errs  [2]error
			start = make(chan struct{})
		)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i], errs[i] = s.UploadLogs(id, batch)
			}(i)
		}
		close(start)
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("round %d: upload errors %v, %v", r, errs[0], errs[1])
		}
		if got[0]+got[1] != size {
			t.Fatalf("round %d: calls accepted %d + %d, want %d in total", r, got[0], got[1], size)
		}
		if v, _ := s.Vehicle(id); v.Accepted != size {
			t.Fatalf("round %d: vehicle accepted %d, want %d", r, v.Accepted, size)
		}
	}
	live := s.Stats().Logs
	if live.Accepted != rounds*size || live.Duplicates != rounds*size {
		t.Fatalf("ledger accepted=%d duplicates=%d, want %d each", live.Accepted, live.Duplicates, rounds*size)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st2 := openStoreAt(t, dir)
	defer st2.Close()
	s2, err := OpenServer(st2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := s2.Stats().Logs; got != live {
		t.Fatalf("replayed ledger differs from live:\n live     %+v\n replayed %+v", live, got)
	}
}

// replayView is the durable state a store replays to, as the public API
// reports it: the per-group registry, the publish audit log, every
// vehicle, and the fleet stats without the per-process bulkhead view.
type replayView struct {
	Registry   []registryView  `json:"registry"`
	PublishLog []PublishRecord `json:"publish_log"`
	Vehicles   []VehicleState  `json:"vehicles"`
	Stats      FleetStats      `json:"stats"`
}

type registryView struct {
	Group           string         `json:"group"`
	Generation      uint64         `json:"generation"`
	ETag            string         `json:"etag"`
	Checksum        string         `json:"checksum"`
	Invariants      string         `json:"invariants,omitempty"`
	KeyID           string         `json:"key_id,omitempty"`
	SigAlg          string         `json:"sig_alg,omitempty"`
	Signature       string         `json:"sig,omitempty"`
	GroupInvariants string         `json:"group_invariants,omitempty"`
	Rollout         *RolloutStatus `json:"rollout,omitempty"`
}

func viewOf(s *Server) replayView {
	v := replayView{PublishLog: s.PublishLog(), Vehicles: s.Vehicles(), Stats: s.Stats()}
	v.Stats.Ingest = nil
	for _, g := range v.Stats.Groups {
		r := registryView{Group: g.Group, GroupInvariants: s.GroupInvariants(g.Group)}
		if b, err := s.Bundle(g.Group); err == nil {
			r.Generation, r.ETag, r.Checksum = b.Generation, b.ETag(), b.Checksum
			r.Invariants, r.KeyID, r.SigAlg, r.Signature = b.Invariants, b.KeyID, b.SigAlg, b.Signature
		}
		if rs, err := s.RolloutStatus(g.Group); err == nil {
			r.Rollout = &rs
		}
		v.Registry = append(v.Registry, r)
	}
	return v
}

// replayCopy opens a server over a copy of the store directory src, so
// the checked-in fixture is never written to.
func replayCopy(t *testing.T, src string) *Server {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatalf("copy fixture: %v", err)
		}
	}
	st := openStoreAt(t, dir)
	t.Cleanup(func() { st.Close() })
	s, err := OpenServer(st)
	if err != nil {
		t.Fatalf("OpenServer over fixture: %v", err)
	}
	return s
}

// TestPersistReplaysLegacyStore replays testdata/legacy-store — written
// by the server as of commit afad407, before live mutations and replay
// shared one apply function per record kind — and compares the result
// with testdata/legacy-state.json, the state that server replayed the
// same store to. The store holds a snapshot (taken mid-history, with a
// rollout in flight) and a WAL tail covering every record kind:
// accepted, rejected and gate-violating publishes with embedded and
// group invariant sets, status reports, binary ingest frames with
// duplicates, a JSON backpressure rejection, partial drains, and a
// rollout's start, advance and halt.
func TestPersistReplaysLegacyStore(t *testing.T) {
	s := replayCopy(t, filepath.Join("testdata", "legacy-store"))
	got, err := json.MarshalIndent(viewOf(s), "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "legacy-state.json"))
	if err != nil {
		t.Fatalf("read pinned state: %v", err)
	}
	if string(got)+"\n" != string(want) {
		t.Fatalf("legacy store replays to a different state\n got: %s\nwant: %s", got, want)
	}
}
