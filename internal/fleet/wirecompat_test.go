package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet/wire"
	"repro/internal/store"
)

// TestLogUploadLedgerExact drives two binary clients against the same
// fleetd handler, with deliberate duplicate deliveries on both, and
// checks the server ledger is exact: every unique record accepted once,
// dupes dropped by Seq, and the drained values bit-identical to what
// each vehicle emitted.
func TestLogUploadLedgerExact(t *testing.T) {
	s := NewServer(WithLogCapacity(1 << 12))
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	mkBatch := func(base uint64) []LogRecord {
		recs := make([]LogRecord, 8)
		for i := range recs {
			recs[i] = LogRecord{
				Seq:     base + uint64(i),
				When:    time.Unix(1754600000+int64(base), 123456789).UTC(),
				Module:  "sack",
				Op:      "open",
				Subject: "uid:1000",
				Object:  fmt.Sprintf("/dev/can%d", i%2),
				Action:  "DENIED",
				Detail:  "state=lockdown",
			}
		}
		return recs
	}

	vehicles := []string{"veh-a", "veh-b"}
	want := map[string][]LogRecord{}
	for _, name := range vehicles {
		c := NewClient(srv.URL)
		for batch := 0; batch < 4; batch++ {
			recs := mkBatch(uint64(batch*8 + 1))
			n, err := c.UploadLogs(name, recs)
			if err != nil || n != len(recs) {
				t.Fatalf("%s batch %d: n=%d err=%v", name, batch, n, err)
			}
			// At-least-once redelivery: the exact same batch again must
			// accept zero new records.
			if n, err := c.UploadLogs(name, recs); err != nil || n != 0 {
				t.Fatalf("%s dup batch %d: n=%d err=%v, want 0 accepted", name, batch, n, err)
			}
			want[name] = append(want[name], recs...)
		}
		if ws := c.WireStats(); ws.BytesOut == 0 || ws.RawBytesOut == 0 {
			t.Fatalf("%s client wire stats: %+v", name, ws)
		}
	}

	for _, name := range vehicles {
		v, ok := s.Vehicle(name)
		if !ok || v.Accepted != 32 || v.LastLogSeq != 32 {
			t.Fatalf("%s ledger: accepted=%d lastSeq=%d (ok=%v), want 32/32", name, v.Accepted, v.LastLogSeq, ok)
		}
	}

	// Value fidelity: what the server drained is exactly what was sent,
	// field for field.
	got := map[string][]LogRecord{}
	for {
		recs := s.Drain(64)
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			got[r.Vehicle] = append(got[r.Vehicle], r.Record)
		}
	}
	for name, wrecs := range want {
		grecs := got[name]
		if len(grecs) != len(wrecs) {
			t.Fatalf("%s drained %d records, want %d", name, len(grecs), len(wrecs))
		}
		for i := range wrecs {
			w, g := wrecs[i], grecs[i]
			if g.Seq != w.Seq || !g.When.Equal(w.When) || g.Module != w.Module ||
				g.Op != w.Op || g.Subject != w.Subject || g.Object != w.Object ||
				g.Action != w.Action || g.Detail != w.Detail {
				t.Fatalf("%s record %d mismatch:\n got %+v\nwant %+v", name, i, g, w)
			}
		}
	}

	// Every batch, duplicates included, crossed the wire as a frame.
	if w := s.Stats().Wire; w.BinaryBatches != 16 || w.BinaryBytes == 0 {
		t.Fatalf("server wire counters: %+v, want 16 binary batches", w)
	}
}

// TestUploadLogsErrorDoesNotLatch: a 400 from the server (here a
// closed WAL failing the ingest append) comes back from UploadLogs as
// an error after exactly one POST, and the next call posts a binary
// frame again — no resend in another encoding, no sticky mode.
func TestUploadLogsErrorDoesNotLatch(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.WithNoFsync())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	s, err := OpenServer(st)
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	st.Close()

	inner := Handler(s)
	var posts []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts = append(posts, r.Header.Get("Content-Type"))
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	for call := 1; call <= 2; call++ {
		n, err := c.UploadLogs("veh-closed", []LogRecord{{Seq: uint64(call), Op: "open", Action: "DENIED"}})
		if err == nil || !strings.Contains(err.Error(), "store: closed") || n != 0 {
			t.Fatalf("call %d: n=%d err=%v, want the 400 from the closed store", call, n, err)
		}
		if len(posts) != call || posts[call-1] != wire.ContentTypeLogs {
			t.Fatalf("call %d: POSTs so far %q, want one %s per call", call, posts, wire.ContentTypeLogs)
		}
	}
	if ws := c.WireStats(); ws.BytesOut != 0 {
		t.Fatalf("failed uploads counted as sent: %+v", ws)
	}
}

// TestJSONLogUploadRejected: ingest speaks only the binary frame; a
// JSON batch gets 415 and nothing is ingested.
func TestJSONLogUploadRejected(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	body := `[{"seq":1,"op":"open","action":"DENIED"}]`
	resp, err := http.Post(srv.URL+"/v1/logs/veh-json", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON upload: status %d, want 415", resp.StatusCode)
	}
	if v, ok := s.Vehicle("veh-json"); ok && v.Accepted != 0 {
		t.Fatalf("JSON upload ingested: %+v", v)
	}
	if st := s.Stats(); st.Logs.Accepted != 0 || st.Logs.BatchesAccepted != 0 || st.Wire.BinaryBatches != 0 {
		t.Fatalf("JSON upload reached ingest: logs=%+v wire=%+v", st.Logs, st.Wire)
	}
}

// TestDeltaPullEndToEnd exercises the O(edit) distribution path over
// real HTTP: a vehicle holding generation N polls with its ETag and
// must receive generation N+1 as a delta, reconstruct a byte-identical
// bundle, and both sides must account the pull as a delta.
func TestDeltaPullEndToEnd(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL)

	b1, err := c.Push("default", testPolicy)
	if err != nil {
		t.Fatalf("push v1: %v", err)
	}
	// Full pull seeds the client's delta base.
	got1, modified, err := c.FetchBundle("veh-d", "default", "", 0)
	if err != nil || !modified || got1.Generation != 1 {
		t.Fatalf("full pull: gen=%d modified=%v err=%v", got1.Generation, modified, err)
	}
	if _, err := c.Push("default", testPolicyV2); err != nil {
		t.Fatalf("push v2: %v", err)
	}

	got2, modified, err := c.FetchBundle("veh-d", "default", b1.ETag(), 0)
	if err != nil || !modified {
		t.Fatalf("delta pull: modified=%v err=%v", modified, err)
	}
	full, err := s.Bundle("default")
	if err != nil {
		t.Fatalf("server bundle: %v", err)
	}
	if got2.Source != full.Source || got2.Checksum != full.Checksum ||
		got2.Generation != full.Generation || got2.ETag() != full.ETag() ||
		got2.Invariants != full.Invariants {
		t.Fatalf("delta reconstruction not byte-identical:\n got %+v\nwant %+v", got2, full)
	}

	if ws := c.WireStats(); ws.DeltaPulls != 1 || ws.FullPulls != 1 {
		t.Fatalf("client pull accounting: %+v, want 1 delta + 1 full", ws)
	}
	w := s.Stats().Wire
	if w.DeltaPulls != 1 || w.DeltaBytes == 0 {
		t.Fatalf("server pull accounting: %+v, want 1 delta pull", w)
	}
	if w.DeltaBytes >= uint64(len(full.Source)) {
		t.Fatalf("delta not O(edit): %d delta bytes vs %d full source bytes", w.DeltaBytes, len(full.Source))
	}
}

// TestDeltaStaleBaseFallsBackToFull: a vehicle two generations behind
// advertises a base the server no longer holds a delta for; the server
// must serve the full bundle and the client must still converge.
func TestDeltaStaleBaseFallsBackToFull(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL)

	b1, err := c.Push("default", testPolicy)
	if err != nil {
		t.Fatalf("push v1: %v", err)
	}
	if _, _, err := c.FetchBundle("veh-s", "default", "", 0); err != nil {
		t.Fatalf("seed pull: %v", err)
	}
	if _, err := c.Push("default", testPolicyV2); err != nil {
		t.Fatalf("push v2: %v", err)
	}
	if _, err := c.Push("default", testPolicy); err != nil {
		t.Fatalf("push v3: %v", err)
	}

	// Client base is generation 1; the cached server delta is 2→3.
	b, modified, err := c.FetchBundle("veh-s", "default", b1.ETag(), 0)
	if err != nil || !modified || b.Generation != 3 {
		t.Fatalf("stale-base pull: gen=%d modified=%v err=%v, want full gen 3", b.Generation, modified, err)
	}
	if ws := c.WireStats(); ws.DeltaPulls != 0 || ws.FullPulls != 2 {
		t.Fatalf("stale base should degrade to full: %+v", ws)
	}
}

// TestDeltaApplyFailureFallsBack corrupts the client's cached base out
// from under it; the delta then cannot apply and the client must
// silently refetch the full bundle instead of surfacing an error.
func TestDeltaApplyFailureFallsBack(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL)

	b1, err := c.Push("default", testPolicy)
	if err != nil {
		t.Fatalf("push v1: %v", err)
	}
	if _, _, err := c.FetchBundle("veh-c", "default", "", 0); err != nil {
		t.Fatalf("seed pull: %v", err)
	}
	if _, err := c.Push("default", testPolicyV2); err != nil {
		t.Fatalf("push v2: %v", err)
	}

	// Rot the cached base: its checksum no longer matches its source,
	// so BundleDelta.Apply must refuse it.
	c.baseMu.Lock()
	base := c.bases["default"]
	base.Source += "\n# rotted\n"
	c.bases["default"] = base
	c.baseMu.Unlock()

	b, modified, err := c.FetchBundle("veh-c", "default", b1.ETag(), 0)
	if err != nil || !modified || b.Generation != 2 {
		t.Fatalf("pull with rotten base: gen=%d modified=%v err=%v, want silent full fallback", b.Generation, modified, err)
	}
	full, err := s.Bundle("default")
	if err != nil || b.Source != full.Source || b.Checksum != full.Checksum {
		t.Fatalf("fallback bundle mismatch (err=%v)", err)
	}
	// The failed apply dropped the base; the fallback full pull reseeded
	// it, so the *next* generation is delta-eligible again.
	if _, err := c.Push("default", testPolicy); err != nil {
		t.Fatalf("push v3: %v", err)
	}
	if _, _, err := c.FetchBundle("veh-c", "default", b.ETag(), 0); err != nil {
		t.Fatalf("post-recovery pull: %v", err)
	}
	if ws := c.WireStats(); ws.DeltaPulls != 1 {
		t.Fatalf("recovery pull should be a delta again: %+v", ws)
	}
}
