package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/lsm"
	"repro/internal/resilience"
)

// TestHTTPTransportRoundTrip drives a full agent round over loopback
// HTTP: push via Client.Push, sync via the Client transport, then read
// the aggregate view back — the same path cmd/fleetd serves.
func TestHTTPTransportRoundTrip(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL)

	if _, _, err := c.FetchBundle("", "default", "", 0); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("fetch before publish: err = %v, want ErrUnknownGroup", err)
	}
	if _, err := c.Push("default", "not a policy"); err == nil {
		t.Fatal("invalid policy pushed over http")
	}
	b, err := c.Push("default", testPolicy)
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	if b.Generation != 1 {
		t.Fatalf("generation = %d, want 1", b.Generation)
	}

	audit := lsm.NewAuditLog(16)
	audit.Append(lsm.AuditRecord{Op: "open", Action: "DENIED", Object: "/etc/shadow"})
	app := &fakeApplier{}
	a, err := NewAgent(AgentConfig{
		Vehicle: "veh-http", Group: "default",
		Transport: c, Applier: app, Audit: audit,
		PollWait: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	if err := a.SyncOnce(); err != nil {
		t.Fatalf("SyncOnce over http: %v", err)
	}
	if app.count() != 1 {
		t.Fatal("bundle not applied over http")
	}

	// Conditional re-fetch: 304 maps to modified=false.
	if _, modified, err := c.FetchBundle("", "default", b.ETag(), 0); err != nil || modified {
		t.Fatalf("conditional fetch: modified=%v err=%v", modified, err)
	}

	st, err := c.FleetStatus()
	if err != nil {
		t.Fatalf("FleetStatus: %v", err)
	}
	if st.Vehicles != 1 || len(st.Groups) != 1 || st.Groups[0].Converged != 1 {
		t.Fatalf("fleet stats over http: %+v", st)
	}
	v, ok := s.Vehicle("veh-http")
	if !ok || v.Uploaded != 1 || v.Emitted != 1 || v.Accepted != 1 || v.Dropped != 0 {
		t.Fatalf("vehicle ledger over http: %+v (ok=%v)", v, ok)
	}
	if v.WireBytesOut == 0 || v.FullPulls != 1 {
		t.Fatalf("agent wire stats not reported: %+v", v)
	}

	// Duplicate upload over HTTP is deduplicated server-side.
	if n, err := c.UploadLogs("veh-http", []LogRecord{{Seq: 1, Op: "open", Action: "DENIED"}}); err != nil || n != 0 {
		t.Fatalf("duplicate upload over http: n=%d err=%v", n, err)
	}
}

// TestHTTPBackpressureMapsTo429 checks the ErrBackpressure mapping
// both directions through the wire.
func TestHTTPBackpressureMapsTo429(t *testing.T) {
	s := NewServer(WithLogCapacity(1))
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL)

	if n, err := c.UploadLogs("v", []LogRecord{{Seq: 1}, {Seq: 2}}); !errors.Is(err, ErrBackpressure) || n != 0 {
		t.Fatalf("over-capacity upload: n=%d err=%v, want ErrBackpressure", n, err)
	}
	if n, err := c.UploadLogs("v", []LogRecord{{Seq: 1}}); err != nil || n != 1 {
		t.Fatalf("fitting upload: n=%d err=%v", n, err)
	}
}

// TestHTTPLongPoll parks a client poll on the wire and wakes it with a
// publish.
func TestHTTPLongPoll(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL)

	b1, err := c.Push("default", testPolicy)
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	done := make(chan uint64, 1)
	go func() {
		b, modified, err := c.FetchBundle("", "default", "g1-"+b1.Checksum[:12], 10*time.Second)
		if err != nil || !modified {
			done <- 0
			return
		}
		done <- b.Generation
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := c.Push("default", testPolicyV2); err != nil {
		t.Fatalf("push v2: %v", err)
	}
	select {
	case gen := <-done:
		if gen != 2 {
			t.Fatalf("long-poll over http returned generation %d, want 2", gen)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("http long-poll did not wake on publish")
	}
}

// TestClientTimeoutIsRetryable: a fleetd that hangs past a request's
// deadline costs the caller one failed request, and the failure
// surfaces as resilience.ErrTimeout, not context.DeadlineExceeded, so
// the agent's retry retries it and its breaker counts it. An operator
// call's expiry surfaces the same way.
func TestClientTimeoutIsRetryable(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: only then does the server watch the
		// connection and cancel r's context when the client hangs up.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.HTTP = &http.Client{Timeout: 50 * time.Millisecond}

	_, _, fetchErr := c.FetchBundle("veh", "default", "", time.Millisecond)
	statusErr := c.ReportStatus(VehicleStatus{Vehicle: "veh", Group: "default"})
	_, uploadErr := c.UploadLogs("veh", []LogRecord{{Seq: 1, Action: "DENIED"}})
	errs := map[string]error{"fetch": fetchErr, "status": statusErr, "upload": uploadErr}
	for name, call := range operatorCalls(c) {
		errs[name] = call()
	}
	for name, err := range errs {
		if !errors.Is(err, resilience.ErrTimeout) || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s past its deadline: %v, want ErrTimeout without DeadlineExceeded", name, err)
		}
	}
}

// deadlineRecorder is a RoundTripper that records how far off each
// request's context deadline lies, then fails the request.
type deadlineRecorder struct{ left map[string]time.Duration }

func (d *deadlineRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if dl, ok := req.Context().Deadline(); ok {
		d.left[req.Method+" "+req.URL.Path] = time.Until(dl)
	}
	return nil, errors.New("recorded")
}

// operatorCalls runs each of the client's operator calls once, each
// request on its own path.
func operatorCalls(c *Client) map[string]func() error {
	const src = "states { a = 0 }\ninitial a\n"
	return map[string]func() error{
		"push":       func() error { _, err := c.Push("push", src); return err },
		"push-inv":   func() error { _, err := c.PushWithInvariants("inv", src, "never a"); return err },
		"fleet":      func() error { _, err := c.FleetStatus(); return err },
		"rollout":    func() error { _, err := c.StartRollout("default", src, "", RolloutPlan{}); return err },
		"tick":       func() error { _, err := c.RolloutTick("default"); return err },
		"abort":      func() error { return c.AbortRollout("default") },
		"rollout-st": func() error { _, err := c.RolloutStatus("default"); return err },
	}
}

// TestClientRequestDeadlines: the production client (no
// http.Client.Timeout) bounds every request by its own context
// deadline — a fetch by its long-poll wait + requestTimeout, a status,
// upload or operator request by requestTimeout — so a hung fleetd
// cannot block an agent's attempt or an operator's command forever.
func TestClientRequestDeadlines(t *testing.T) {
	rec := &deadlineRecorder{left: map[string]time.Duration{}}
	c := NewClient("http://fleetd.invalid")
	c.HTTP.Transport = rec
	const wait = 2 * time.Second

	c.FetchBundle("veh", "default", "", wait)
	c.ReportStatus(VehicleStatus{Vehicle: "veh", Group: "default"})
	c.UploadLogs("veh", []LogRecord{{Seq: 1, Action: "DENIED"}})
	for _, call := range operatorCalls(c) {
		call()
	}
	want := map[string]time.Duration{
		"GET /v1/bundle/default":        wait + requestTimeout,
		"POST /v1/status":               requestTimeout,
		"POST /v1/logs/veh":             requestTimeout,
		"POST /v1/bundle/push":          requestTimeout,
		"POST /v1/bundle/inv":           requestTimeout,
		"GET /v1/fleet":                 requestTimeout,
		"POST /v1/rollout/default":      requestTimeout,
		"POST /v1/rollout/default/tick": requestTimeout,
		"DELETE /v1/rollout/default":    requestTimeout,
		"GET /v1/rollout/default":       requestTimeout,
	}
	if len(rec.left) != len(want) {
		t.Fatalf("requests with a deadline: %v, want %v", rec.left, want)
	}
	for req, bound := range want {
		if left, ok := rec.left[req]; !ok || left > bound || left < bound-time.Second {
			t.Errorf("%s: deadline %v away, want about %v", req, left, bound)
		}
	}
}

// TestWireErrorsRoundTrip sends every typed error of wireErrors through
// Handler and Client: each Client call that meets it must return an
// error errors.Is still matches, carried by its row's status.
func TestWireErrorsRoundTrip(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL)
	// A second server whose log buffer holds one record and whose groups
	// admit one upload at a time, for the two sheds.
	shed := NewServer(WithLogCapacity(1), WithGroupBulkhead(1, -1))
	shedSrv := httptest.NewServer(Handler(shed))
	defer shedSrv.Close()
	sc := NewClient(shedSrv.URL)

	if _, err := s.Publish("g", testPolicy); err != nil {
		t.Fatal(err)
	}
	canary, _ := canaryAndBystander(t, 40)
	halting := RolloutPlan{Stages: []RolloutStage{{Percent: 40}, {Percent: 100}},
		MinSamples: 10, MaxDenialRate: 0.2, MaxPinnedFrac: -1}
	if _, err := shed.Publish("g", testPolicy); err != nil {
		t.Fatal(err)
	}
	if err := shed.ReportStatus(VehicleStatus{Vehicle: "v", Group: "g"}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		want error
		call func() error
	}{
		{"push violating invariants", ErrInvariantViolation, func() error {
			_, err := c.PushWithInvariants("canbus", actuatorPolicy, actuatorNever)
			return err
		}},
		{"rollout violating invariants", ErrInvariantViolation, func() error {
			_, err := c.StartRollout("g", actuatorPolicy, actuatorNever, halting)
			return err
		}},
		{"fetch unknown group", ErrUnknownGroup, func() error {
			_, _, err := c.FetchBundle("", "nope", "", 0)
			return err
		}},
		{"rollout on unknown group", ErrUnknownGroup, func() error {
			_, err := c.StartRollout("nope", testPolicyV2, "", halting)
			return err
		}},
		{"tick without rollout", ErrNoRollout, func() error { _, err := c.RolloutTick("g"); return err }},
		{"abort without rollout", ErrNoRollout, func() error { return c.AbortRollout("g") }},
		{"status without rollout", ErrNoRollout, func() error { _, err := c.RolloutStatus("g"); return err }},
		{"start rollout", nil, func() error {
			st, err := c.StartRollout("g", testPolicyV2, "", halting)
			if err == nil {
				err = s.ReportStatus(VehicleStatus{Vehicle: canary, Group: "g", AppliedGeneration: st.CandidateGen})
			}
			if err == nil {
				_, err = s.UploadLogs(canary, denialBatch(1, 10, 10))
			}
			return err
		}},
		{"push during rollout", ErrRolloutActive, func() error { _, err := c.Push("g", testPolicy); return err }},
		{"second rollout", ErrRolloutActive, func() error {
			_, err := c.StartRollout("g", testPolicyV2, "", halting)
			return err
		}},
		{"tick tripping the brake", ErrRolloutHalted, func() error {
			st, err := c.RolloutTick("g")
			if err != nil && (!st.Halted || st.HaltReason == "") {
				t.Errorf("halted tick lost its status body: %+v", st)
			}
			return err
		}},
		{"upload past the log buffer", ErrBackpressure, func() error {
			_, err := sc.UploadLogs("v", []LogRecord{{Seq: 1}, {Seq: 2}})
			return err
		}},
		{"upload into a full group", resilience.ErrBulkheadFull, func() error {
			release, occupied := make(chan struct{}), make(chan struct{})
			go shed.gates.Get("g").Do(context.Background(), func(context.Context) error {
				close(occupied)
				<-release
				return nil
			})
			<-occupied
			defer close(release)
			_, err := sc.UploadLogs("v", []LogRecord{{Seq: 1}})
			return err
		}},
	}
	seen := map[error]bool{}
	for _, tc := range cases {
		err := tc.call()
		if tc.want == nil {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		seen[tc.want] = true
	}
	for _, e := range wireErrors {
		if !seen[e.err] {
			t.Errorf("no case sends %v through the wire", e.err)
		}
	}
}
