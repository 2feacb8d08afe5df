package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet/wire"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sign"
)

// logScratch pools the []LogRecord the binary upload handler converts
// decoded wire records into; ingest does not retain the slice.
type logScratch struct{ recs []LogRecord }

var logScratchPool = sync.Pool{New: func() any { return new(logScratch) }}

// wireErrors is the one mapping between the fleet's typed errors and
// their HTTP form. Handler answers an error with its row's status and
// header, and Client turns a response carrying that status and header
// back into the typed error, so errors.Is matches on both sides of the
// wire. X-Fleet-Reject marks a refused request, X-Fleet-Shed a request
// shed under load; both sheds are 429, told apart by the header.
var wireErrors = []struct {
	err    error
	status int
	header string
	value  string
}{
	{ErrInvariantViolation, http.StatusUnprocessableEntity, "X-Fleet-Reject", "invariant-violation"},
	{ErrRolloutActive, http.StatusConflict, "X-Fleet-Reject", "rollout-active"},
	{ErrRolloutHalted, http.StatusConflict, "X-Fleet-Reject", "rollout-halted"},
	{ErrUnknownGroup, http.StatusNotFound, "X-Fleet-Reject", "unknown-group"},
	{ErrNoRollout, http.StatusNotFound, "X-Fleet-Reject", "no-rollout"},
	{ErrBackpressure, http.StatusTooManyRequests, "X-Fleet-Shed", "log-buffer"},
	{resilience.ErrBulkheadFull, http.StatusTooManyRequests, "X-Fleet-Shed", "group-bulkhead"},
}

// markError sets the header of err's wireErrors row and returns its
// status, or returns fallback for an untyped error.
func markError(w http.ResponseWriter, err error, fallback int) int {
	for _, e := range wireErrors {
		if errors.Is(err, e.err) {
			w.Header().Set(e.header, e.value)
			return e.status
		}
	}
	return fallback
}

// writeError answers err with its typed status and header, or with
// fallback; the body carries the error text.
func writeError(w http.ResponseWriter, err error, fallback int) {
	http.Error(w, err.Error(), markError(w, err, fallback))
}

// typedError is a typed fleet error as the server reported it: it
// prints the server's text and matches its sentinel under errors.Is.
type typedError struct {
	sentinel error
	msg      string
}

func (e *typedError) Error() string { return e.msg }
func (e *typedError) Unwrap() error { return e.sentinel }

// responseSentinel finds the typed error a response's status and
// header carry, or nil.
func responseSentinel(resp *http.Response) error {
	for _, e := range wireErrors {
		if resp.StatusCode == e.status && resp.Header.Get(e.header) == e.value {
			return e.err
		}
	}
	return nil
}

// httpError turns a failed response into its typed error, carrying the
// server's text, or into an untyped error naming the status.
func httpError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 8192))
	msg = bytes.TrimSpace(msg)
	if sentinel := responseSentinel(resp); sentinel != nil {
		return &typedError{sentinel, string(msg)}
	}
	return fmt.Errorf("fleet: http %d: %s", resp.StatusCode, msg)
}

// Handler exposes a Server over HTTP — the wire protocol cmd/fleetd
// serves and Client speaks:
//
//	GET  /v1/bundle/{group}   download the group's bundle (wire format);
//	                          If-None-Match + ?wait= give ETag long-poll;
//	                          ?vehicle= identifies the caller for staged
//	                          rollout cohorting
//	POST /v1/bundle/{group}   publish policy source (optionally followed
//	                          by "--- invariants ---" and an invariant
//	                          set) as the next generation; 422 with the
//	                          witness trace when the verifier refuses it
//	POST /v1/rollout/{group}  start a staged rollout: JSON {source,
//	                          invariants, plan}; 409 when one is active
//	POST /v1/rollout/{group}/tick   judge the active stage (advance /
//	                          halt / promote); 409 + X-Fleet-Reject:
//	                          rollout-halted, with the status as the
//	                          body, when the brake trips
//	DELETE /v1/rollout/{group}      abort the rollout
//	GET  /v1/rollout/{group}  rollout status (JSON)
//	POST /v1/status           report one VehicleStatus (JSON)
//	POST /v1/logs/{vehicle}   upload a decision-log batch (binary
//	                          wire frame, wire.ContentTypeLogs); 415 for
//	                          any other content type, 429 =
//	                          backpressure, nothing taken
//	GET  /v1/fleet            aggregate FleetStats (JSON)
//	GET  /v1/fleet/render     aggregate FleetStats (text, Render format)
//
// A typed error is answered with its wireErrors status and header.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /v1/bundle/{group}", func(w http.ResponseWriter, r *http.Request) {
		group := r.PathValue("group")
		var wait time.Duration
		if ws := r.URL.Query().Get("wait"); ws != "" {
			d, err := time.ParseDuration(ws)
			if err != nil {
				http.Error(w, "bad wait duration", http.StatusBadRequest)
				return
			}
			wait = d
		}
		etag := r.Header.Get("If-None-Match")
		b, delta, modified, err := s.FetchBundleDelta(r.URL.Query().Get("vehicle"), group, etag, wait)
		if err != nil {
			writeError(w, err, http.StatusNotFound)
			return
		}
		if !modified {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", b.ETag())
		// Delta negotiation: the If-None-Match tag advertises the base
		// revision the vehicle holds; when the Accept header also opts
		// into deltas and the server's cached edit script applies to
		// exactly that base, the response is the O(edit) script instead
		// of the full body, discriminated by Content-Type. Clients that
		// do not send the Accept value always get the full bundle.
		if delta != nil && strings.Contains(r.Header.Get("Accept"), wire.ContentTypeDelta) {
			body := delta.Encode()
			s.wireOut.deltaPulls.Add(1)
			s.wireOut.deltaBytes.Add(uint64(len(body)))
			w.Header().Set("Content-Type", wire.ContentTypeDelta)
			w.Write(body)
			return
		}
		body := b.Encode()
		s.wireOut.fullPulls.Add(1)
		s.wireOut.fullBytes.Add(uint64(len(body)))
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(body)
	})

	mux.HandleFunc("POST /v1/bundle/{group}", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The body may carry an invariant set after the bundle section
		// separator; both halves go through the publish gate.
		src, inv := policy.SplitSourceInvariants(string(body))
		b, err := s.PublishBundle(r.PathValue("group"), src, inv)
		if err != nil {
			// An invariant violation's witness trace rides in the body.
			writeError(w, err, http.StatusUnprocessableEntity)
			return
		}
		w.Header().Set("ETag", b.ETag())
		writeJSON(w, map[string]any{
			"group": b.Group, "generation": b.Generation, "checksum": b.Checksum, "etag": b.ETag(),
		})
	})

	mux.HandleFunc("POST /v1/rollout/{group}", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Source     string      `json:"source"`
			Invariants string      `json:"invariants,omitempty"`
			Plan       RolloutPlan `json:"plan"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 2<<20)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		st, err := s.StartRollout(r.PathValue("group"), req.Source, req.Invariants, req.Plan)
		if err != nil {
			writeError(w, err, http.StatusUnprocessableEntity)
			return
		}
		writeJSON(w, st)
	})

	mux.HandleFunc("POST /v1/rollout/{group}/tick", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.RolloutTick(r.PathValue("group"))
		if errors.Is(err, ErrRolloutHalted) {
			// The halt is a legitimate outcome, not a transport failure:
			// the status (with the halt reason) rides in the body under
			// the typed error's status, which the client inverts back
			// into ErrRolloutHalted.
			status := markError(w, err, http.StatusConflict)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(st)
			return
		}
		if err != nil {
			writeError(w, err, http.StatusInternalServerError)
			return
		}
		writeJSON(w, st)
	})

	mux.HandleFunc("DELETE /v1/rollout/{group}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.AbortRollout(r.PathValue("group")); err != nil {
			writeError(w, err, http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /v1/rollout/{group}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.RolloutStatus(r.PathValue("group"))
		if err != nil {
			writeError(w, err, http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	})

	mux.HandleFunc("POST /v1/status", func(w http.ResponseWriter, r *http.Request) {
		var st VehicleStatus
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&st); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.ReportStatus(st); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/logs/{vehicle}", func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentTypeLogs) {
			http.Error(w, "decision logs must be "+wire.ContentTypeLogs, http.StatusUnsupportedMediaType)
			return
		}
		// Pooled zero-alloc frame decode, then hand the records (copied
		// into a pooled scratch — ingest does not retain them) to the
		// admission path.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		d := wire.GetDecoder()
		wrecs, err := d.Decode(body)
		if err != nil {
			wire.PutDecoder(d)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sc := logScratchPool.Get().(*logScratch)
		recs := sc.recs[:0]
		for _, wr := range wrecs {
			recs = append(recs, LogRecord(wr))
		}
		sc.recs = recs
		wire.PutDecoder(d)
		defer logScratchPool.Put(sc)
		s.wireIn.binBatches.Add(1)
		s.wireIn.binBytes.Add(uint64(len(body)))
		accepted, err := s.UploadLogsContext(r.Context(), r.PathValue("vehicle"), recs)
		if err != nil {
			writeError(w, err, http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]int{"accepted": accepted})
	})

	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})

	mux.HandleFunc("GET /v1/fleet/render", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, s.Stats().Render())
	})

	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Client speaks the Handler protocol; it implements Transport, so an
// Agent works identically over loopback HTTP and in-process.
//
// Log uploads use the binary batch frame (wire.ContentTypeLogs), and
// bundle fetches opt into delta responses whenever the client holds the
// base revision the server's edit script applies to; any delta that
// fails to decode or apply is retried as a full-bundle fetch.
type Client struct {
	Base string // e.g. "http://127.0.0.1:7443"
	HTTP *http.Client
	// Keyring, when non-empty, verifies every downloaded bundle's
	// detached signature at the transport boundary (in addition to any
	// agent-side keyring): a bundle failing verification surfaces the
	// typed sign error and never reaches the caller.
	Keyring *sign.Keyring

	// Wire accounting (WireStatser).
	bytesOut    atomic.Uint64 // upload bytes on the wire
	rawBytesOut atomic.Uint64 // same uploads before compression
	bytesIn     atomic.Uint64 // bundle/delta bytes off the wire
	deltaPulls  atomic.Uint64
	fullPulls   atomic.Uint64

	// Per-group base bundles for delta reconstruction: the last full
	// (or reconstructed) bundle the client verified, keyed by group.
	baseMu sync.Mutex
	bases  map[string]policy.Bundle
}

// requestTimeout bounds a status, upload or operator request, and how
// long a bundle fetch may run past its long-poll wait. A hung fleetd
// then tears its request down instead of stalling the agent's attempt
// or an operator's command.
const requestTimeout = 5 * time.Second

// timedOut turns an error caused by a request's own deadline into
// resilience.ErrTimeout. It does not wrap context.DeadlineExceeded,
// which the retry and breaker read as a caller abort: a Transport call
// takes no context, so every deadline it hits is its own, and a
// timed-out request must be retried and counted like any failure.
func timedOut(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %v", resilience.ErrTimeout, err)
	}
	return err
}

// call sends one request bounded by requestTimeout and hands its
// response to read; a nil body sends none. An expiry, in the round trip
// or while read decodes the body, comes back as resilience.ErrTimeout.
func (c *Client) call(method, path, contentType string, body []byte, read func(*http.Response) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return timedOut(err)
	}
	defer resp.Body.Close()
	return timedOut(read(resp))
}

// NewClient builds a client for a fleetd base URL.
func NewClient(base string) *Client {
	return &Client{Base: base, HTTP: &http.Client{}}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// FetchBundle implements Transport over HTTP. When the client holds
// the base revision the etag names, it advertises delta acceptance; a
// delta response is decoded, applied onto the cached base into a
// byte-identical bundle, and then verified exactly like a full body
// (checksum inside Apply, signature below). Any delta failure falls
// back to one full-bundle fetch. The whole call, refetch included, is
// bounded by wait + requestTimeout.
func (c *Client) FetchBundle(vehicle, group, etag string, wait time.Duration) (policy.Bundle, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), wait+requestTimeout)
	defer cancel()
	base, haveBase := c.baseFor(group, etag)
	b, modified, err := c.fetchBundle(ctx, vehicle, group, etag, wait, haveBase, base)
	if err != nil && haveBase && errors.Is(err, errDeltaApply) {
		// The server's edit script didn't fit what we hold (stale base,
		// corrupt transfer): drop the cache entry and refetch in full.
		c.dropBase(group)
		b, modified, err = c.fetchBundle(ctx, vehicle, group, etag, wait, false, policy.Bundle{})
	}
	return b, modified, timedOut(err)
}

// errDeltaApply marks a delta response that failed to decode or apply;
// FetchBundle inverts it into a full-bundle retry.
var errDeltaApply = errors.New("fleet: delta apply failed")

func (c *Client) baseFor(group, etag string) (policy.Bundle, bool) {
	if etag == "" {
		return policy.Bundle{}, false
	}
	c.baseMu.Lock()
	defer c.baseMu.Unlock()
	b, ok := c.bases[group]
	if !ok || b.ETag() != etag {
		return policy.Bundle{}, false
	}
	return b, true
}

func (c *Client) storeBase(group string, b policy.Bundle) {
	b.Compiled = nil // the cache is for byte-level reconstruction only
	c.baseMu.Lock()
	if c.bases == nil {
		c.bases = make(map[string]policy.Bundle)
	}
	c.bases[group] = b
	c.baseMu.Unlock()
}

func (c *Client) dropBase(group string) {
	c.baseMu.Lock()
	delete(c.bases, group)
	c.baseMu.Unlock()
}

func (c *Client) fetchBundle(ctx context.Context, vehicle, group, etag string, wait time.Duration, tryDelta bool, base policy.Bundle) (policy.Bundle, bool, error) {
	u := fmt.Sprintf("%s/v1/bundle/%s", c.Base, group)
	q := url.Values{}
	if wait > 0 {
		q.Set("wait", wait.String())
	}
	if vehicle != "" {
		q.Set("vehicle", vehicle)
	}
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return policy.Bundle{}, false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	if tryDelta {
		req.Header.Set("Accept", wire.ContentTypeDelta+", text/plain")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return policy.Bundle{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return policy.Bundle{}, false, nil
	case http.StatusOK:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return policy.Bundle{}, false, err
		}
		c.bytesIn.Add(uint64(len(data)))
		var b policy.Bundle
		if strings.HasPrefix(resp.Header.Get("Content-Type"), wire.ContentTypeDelta) {
			d, derr := policy.DecodeBundleDelta(data)
			if derr != nil {
				return policy.Bundle{}, false, fmt.Errorf("%w: %v", errDeltaApply, derr)
			}
			b, derr = d.Apply(base)
			if derr != nil {
				return policy.Bundle{}, false, fmt.Errorf("%w: %v", errDeltaApply, derr)
			}
			c.deltaPulls.Add(1)
		} else {
			b, err = policy.DecodeBundle(data)
			if err != nil {
				return policy.Bundle{}, false, err
			}
			c.fullPulls.Add(1)
		}
		if !c.Keyring.Empty() {
			if err := c.Keyring.Verify(b.KeyID, b.SigAlg, b.SignedPayload(), b.SignatureBytes()); err != nil {
				return policy.Bundle{}, false, fmt.Errorf("fleet: bundle %s refused: %w", b.ETag(), err)
			}
		}
		c.storeBase(group, b)
		return b, true, nil
	default:
		return policy.Bundle{}, false, httpError(resp)
	}
}

// ReportStatus implements Transport over HTTP, bounded by
// requestTimeout.
func (c *Client) ReportStatus(st VehicleStatus) error {
	body, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return c.call(http.MethodPost, "/v1/status", "application/json", body, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusNoContent {
			return httpError(resp)
		}
		return nil
	})
}

// UploadLogs implements Transport over HTTP: one binary wire frame per
// call, bounded by requestTimeout. A shed comes back as its typed
// error (ErrBackpressure for a full log buffer,
// resilience.ErrBulkheadFull for a shed group compartment), so agent
// retry logic is transport-agnostic.
func (c *Client) UploadLogs(vehicle string, recs []LogRecord) (int, error) {
	e := wire.GetEncoder()
	wrecs := make([]wire.Record, len(recs))
	for i, r := range recs {
		wrecs[i] = wire.Record(r)
	}
	body := e.Encode(nil, wrecs, true)
	raw := e.RawSize()
	wire.PutEncoder(e)
	var out struct {
		Accepted int `json:"accepted"`
	}
	err := c.call(http.MethodPost, "/v1/logs/"+vehicle, wire.ContentTypeLogs, body, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return httpError(resp)
		}
		return json.NewDecoder(resp.Body).Decode(&out)
	})
	if err != nil {
		return 0, err
	}
	c.bytesOut.Add(uint64(len(body)))
	c.rawBytesOut.Add(uint64(raw))
	return out.Accepted, nil
}

// WireStats implements WireStatser: the client's cumulative wire
// accounting, folded into VehicleStatus by the agent.
func (c *Client) WireStats() AgentWireStats {
	return AgentWireStats{
		BytesOut:    c.bytesOut.Load(),
		RawBytesOut: c.rawBytesOut.Load(),
		BytesIn:     c.bytesIn.Load(),
		DeltaPulls:  c.deltaPulls.Load(),
		FullPulls:   c.fullPulls.Load(),
	}
}

// Push publishes policy source as the group's next bundle generation.
func (c *Client) Push(group, src string) (policy.Bundle, error) {
	return c.PushWithInvariants(group, src, "")
}

// PushWithInvariants publishes policy source together with an invariant
// set the server must prove before installing the bundle (and every
// future bundle of the group keeps carrying). A verifier refusal comes
// back as ErrInvariantViolation with the witness trace in the message.
func (c *Client) PushWithInvariants(group, src, invariants string) (policy.Bundle, error) {
	body := policy.JoinSourceInvariants(src, invariants)
	var out struct {
		Group      string `json:"group"`
		Generation uint64 `json:"generation"`
		Checksum   string `json:"checksum"`
	}
	err := c.call(http.MethodPost, "/v1/bundle/"+group, "text/plain", []byte(body), func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return httpError(resp)
		}
		return json.NewDecoder(resp.Body).Decode(&out)
	})
	if err != nil {
		return policy.Bundle{}, err
	}
	return policy.Bundle{Group: out.Group, Generation: out.Generation, Checksum: out.Checksum, Source: src}, nil
}

// FleetStatus fetches the server's aggregate view.
func (c *Client) FleetStatus() (FleetStats, error) {
	var st FleetStats
	err := c.call(http.MethodGet, "/v1/fleet", "", nil, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return httpError(resp)
		}
		return json.NewDecoder(resp.Body).Decode(&st)
	})
	if err != nil {
		return FleetStats{}, err
	}
	return st, nil
}

// StartRollout begins a staged canary rollout of new policy source for
// the group. The server verify-gates the candidate exactly like a direct
// publish; refusals invert into the same typed errors.
func (c *Client) StartRollout(group, src, invariants string, plan RolloutPlan) (RolloutStatus, error) {
	body, err := json.Marshal(struct {
		Source     string      `json:"source"`
		Invariants string      `json:"invariants,omitempty"`
		Plan       RolloutPlan `json:"plan"`
	}{src, invariants, plan})
	if err != nil {
		return RolloutStatus{}, err
	}
	var st RolloutStatus
	err = c.call(http.MethodPost, "/v1/rollout/"+group, "application/json", body, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return httpError(resp)
		}
		return json.NewDecoder(resp.Body).Decode(&st)
	})
	if err != nil {
		return RolloutStatus{}, err
	}
	return st, nil
}

// RolloutTick evaluates the canary window once: advance, halt, or
// promote. A halt comes back as ErrRolloutHalted alongside the status
// carrying the brake reason.
func (c *Client) RolloutTick(group string) (RolloutStatus, error) {
	var st RolloutStatus
	halted := false
	err := c.call(http.MethodPost, "/v1/rollout/"+group+"/tick", "application/json", nil, func(resp *http.Response) error {
		halted = responseSentinel(resp) == ErrRolloutHalted
		if !halted && resp.StatusCode != http.StatusOK {
			return httpError(resp)
		}
		return json.NewDecoder(resp.Body).Decode(&st)
	})
	if err != nil {
		return RolloutStatus{}, err
	}
	if halted {
		return st, fmt.Errorf("%w: %s", ErrRolloutHalted, st.HaltReason)
	}
	return st, nil
}

// AbortRollout cancels the group's rollout and pins everyone to stable.
func (c *Client) AbortRollout(group string) error {
	return c.call(http.MethodDelete, "/v1/rollout/"+group, "", nil, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusNoContent {
			return httpError(resp)
		}
		return nil
	})
}

// RolloutStatus fetches the group's rollout state.
func (c *Client) RolloutStatus(group string) (RolloutStatus, error) {
	var st RolloutStatus
	err := c.call(http.MethodGet, "/v1/rollout/"+group, "", nil, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return httpError(resp)
		}
		return json.NewDecoder(resp.Body).Decode(&st)
	})
	if err != nil {
		return RolloutStatus{}, err
	}
	return st, nil
}
