// The control plane: an HTTP/JSON API over the session farm. Create,
// list, inspect, start, stop, and delete sessions; attach a livewire UDP
// relay to a session; and serve the farm's obs registry on the same mux
// (/metrics, /healthz, /debug/...). The surface is deliberately plain —
// net/http, no framework — so the daemon stays stdlib-only.
package emud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/emud/idem"
	"tracemod/internal/emud/pressure"
	"tracemod/internal/faults"
	"tracemod/internal/livewire"
	"tracemod/internal/obs"
	"tracemod/internal/obs/span"
	"tracemod/internal/replay"
)

// HTTP-hardening defaults for the control-plane server.
const (
	// DefaultMaxBodyBytes caps a request body (inline traces included);
	// larger bodies get 413.
	DefaultMaxBodyBytes = 8 << 20

	httpReadTimeout  = 30 * time.Second
	httpWriteTimeout = 60 * time.Second // must exceed the longest ?drain= wait
	httpIdleTimeout  = 2 * time.Minute
)

// API serves the control plane for one Manager.
type API struct {
	m   *Manager
	reg *obs.Registry // may be nil

	faultSlow, faultErr *faults.Point // control-plane chaos (nil when no injector)

	// idem deduplicates session creates by Idempotency-Key: a retried
	// create (a client resending after a lost response, or a cluster
	// coordinator's backoff retry) returns the original session instead of
	// minting a second one. Values are created session IDs.
	idem *idem.Table[string]
}

// NewAPI builds the control plane. reg may be nil; when it is non-nil the
// obs debug surface is mounted alongside the session routes.
//
// The trailing arguments are ignored. They are transitional: they keep
// callers written against the former (m, reg, tracer) signature
// compiling, and go once those callers pass two arguments.
func NewAPI(m *Manager, reg *obs.Registry, _ ...any) *API {
	a := &API{m: m, reg: reg, idem: idem.New[string](nil)}
	if inj := m.opts.Faults; inj != nil {
		a.faultSlow = inj.Point("control.slow")
		a.faultErr = inj.Point("control.error")
	}
	return a
}

// Mux returns the control-plane routes.
func (a *API) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", a.createSession)
	mux.HandleFunc("GET /v1/sessions", a.listSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", a.getSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", a.deleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/start", a.startSession)
	mux.HandleFunc("POST /v1/sessions/{id}/stop", a.stopSession)
	mux.HandleFunc("GET /v1/sessions/{id}/flight", a.flightDump)
	mux.HandleFunc("POST /v1/sessions/{id}/handoff", a.handoffSession)
	mux.HandleFunc("GET /v1/snapshot", a.snapshotDump)
	mux.HandleFunc("POST /v1/restore", a.restoreSnapshot)
	mux.HandleFunc("POST /v1/drain", a.beginDrain)
	mux.HandleFunc("POST /v1/streams", a.createStream)
	mux.HandleFunc("GET /v1/streams", a.listStreams)
	mux.HandleFunc("GET /v1/streams/{name}", a.getStream)
	mux.HandleFunc("PATCH /v1/streams/{name}", a.resumeStream)
	mux.HandleFunc("GET /v1/streams/{name}/offset", a.streamOffset)
	mux.HandleFunc("DELETE /v1/streams/{name}", a.deleteStream)
	mux.HandleFunc("GET /v1/farm", a.farmInfo)
	mux.HandleFunc("GET /v1/slo", a.sloReport)
	mux.HandleFunc("GET /v1/health", a.health)
	mux.HandleFunc("GET /v1/faults", a.getFaults)
	mux.HandleFunc("POST /v1/faults", a.setFault)
	mux.HandleFunc("DELETE /v1/faults", a.resetFaults)
	if a.reg != nil {
		// The obs debug surface on the same listener: /metrics, /healthz,
		// /debug/pprof/...
		for pattern, h := range muxRoutes(obs.Mux(a.reg)) {
			mux.Handle(pattern, h)
		}
	} else {
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
	}
	return mux
}

// Handler returns the hardened control plane: the Mux routes behind
// W3C trace-context ingest/emit, body-size limits, control-plane fault
// points, and a JSON error envelope (plain-text errors like the mux's
// own 404/405 become {"error": ..., "status": ...}).
func (a *API) Handler() http.Handler {
	mux := a.Mux()
	return a.trace(a.envelope(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Live-ingest uploads (initial POST and resumed PATCH) are exempt
		// from the body cap: a collected trace is unbounded by design, and
		// the stream path consumes it chunk-by-chunk without ever holding
		// the body in memory.
		// /v1/restore is exempt too: a failover snapshot embeds whole
		// traces and may legitimately exceed the inline-trace cap.
		upload := (r.Method == http.MethodPost && r.URL.Path == "/v1/streams") ||
			(r.Method == http.MethodPatch && strings.HasPrefix(r.URL.Path, "/v1/streams/")) ||
			(r.Method == http.MethodPost && r.URL.Path == "/v1/restore")
		if !upload {
			r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
		}
		// The fault-control endpoint is exempt from control-plane fault
		// injection: arming control.error at rate 1 must not brick the
		// only switch that can disarm it.
		if r.URL.Path != "/v1/faults" {
			a.faultSlow.Stall()
			if a.faultErr.Fire() {
				writeErr(w, http.StatusInternalServerError, errors.New("injected control-plane fault"))
				return
			}
		}
		mux.ServeHTTP(w, r)
	})))
}

// statusWriter records the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// trace is the outermost control-plane middleware: it ingests an incoming
// `traceparent` header (a sampled remote parent forces sampling, so
// external callers can always stitch a full tree), starts the request's
// server span, emits the span's own traceparent on the response, carries
// the span in the request context for handlers to hang children on, and
// writes one structured request log line (trace ID attached when
// sampled).
func (a *API) trace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		log := a.m.log
		if a.m.spans.Enabled() {
			parent, _ := span.ParseTraceParent(r.Header.Get(span.TraceParentHeader))
			if sp := a.m.spans.StartRemote(parent, "http.request"); sp != nil {
				sp.AttrStr("method", r.Method)
				sp.AttrStr("path", r.URL.Path)
				w.Header().Set(span.TraceParentHeader, sp.Context().TraceParent())
				r = r.WithContext(span.NewContext(r.Context(), sp))
				log = log.With("trace", sp.TraceID().String(), "span", sp.Context().Span.String())
				defer sp.End()
			}
		}
		next.ServeHTTP(sw, r)
		log.Debug("control request", "method", r.Method, "path", r.URL.Path, "status", sw.status)
	})
}

// envelopeWriter buffers non-JSON error responses so envelope can
// rewrite them as the control plane's JSON error shape.
type envelopeWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
	intercept   bool
	buf         bytes.Buffer
}

func (w *envelopeWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	w.status = code
	if code >= 400 && !strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		w.intercept = true
		return // held back; envelope writes the JSON version
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *envelopeWriter) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.intercept {
		return w.buf.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// envelope makes every error response JSON, including ones produced
// outside our handlers (ServeMux 404/405, MaxBytesReader's 413).
func (a *API) envelope(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ew := &envelopeWriter{ResponseWriter: w}
		next.ServeHTTP(ew, r)
		if ew.intercept {
			msg := strings.TrimSpace(ew.buf.String())
			if msg == "" {
				msg = http.StatusText(ew.status)
			}
			writeErr(w, ew.status, errors.New(msg))
		}
	})
}

// FaultRequest arms one fault point via POST /v1/faults.
type FaultRequest struct {
	// Name is the fault point ("store.parse", "wheel.stall", ...; GET
	// /v1/faults lists the registered menu).
	Name string `json:"name"`
	// Rate is the fire probability in [0, 1]; 0 disarms.
	Rate float64 `json:"rate"`
	// DelayMS configures stall-type points.
	DelayMS float64 `json:"delay_ms,omitempty"`
}

func (a *API) getFaults(w http.ResponseWriter, _ *http.Request) {
	inj := a.m.opts.Faults
	if inj == nil {
		writeErr(w, http.StatusNotFound, errors.New("no fault injector configured"))
		return
	}
	st := inj.Snapshot()
	if st == nil {
		st = []faults.State{}
	}
	writeJSON(w, http.StatusOK, st)
}

func (a *API) setFault(w http.ResponseWriter, r *http.Request) {
	inj := a.m.opts.Faults
	if inj == nil {
		writeErr(w, http.StatusNotFound, errors.New("no fault injector configured"))
		return
	}
	var req FaultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, decodeStatus(err), fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, errors.New("fault name is required"))
		return
	}
	inj.Set(req.Name, faults.Config{
		Rate:  req.Rate,
		Delay: time.Duration(req.DelayMS * float64(time.Millisecond)),
	})
	writeJSON(w, http.StatusOK, inj.Snapshot())
}

func (a *API) resetFaults(w http.ResponseWriter, _ *http.Request) {
	inj := a.m.opts.Faults
	if inj == nil {
		writeErr(w, http.StatusNotFound, errors.New("no fault injector configured"))
		return
	}
	inj.Reset()
	w.WriteHeader(http.StatusNoContent)
}

// muxRoutes lists the obs debug mux's patterns so they can be re-homed
// onto the control-plane mux (http.ServeMux has no route enumeration).
func muxRoutes(h http.Handler) map[string]http.Handler {
	routes := map[string]http.Handler{}
	for _, p := range []string{
		"/metrics", "/healthz",
		"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile",
		"/debug/pprof/symbol", "/debug/pprof/trace",
	} {
		routes[p] = h
	}
	return routes
}

// SessionRequest is the create-session body.
type SessionRequest struct {
	// Name labels the session (optional).
	Name string `json:"name,omitempty"`
	// Exactly one trace source: a file path (replay or collected format,
	// resolved through the trace store), a synthetic trace name
	// ("wavelan", "slow", "step" or "impulse", sized by DurationSec),
	// inline tuples, or the name of a live-ingest stream (POST
	// /v1/streams) — the session then modulates against the growing
	// trace, waiting at the live edge.
	TracePath string      `json:"trace_path,omitempty"`
	Synthetic string      `json:"synthetic,omitempty"`
	Inline    []TupleJSON `json:"inline,omitempty"`
	Stream    string      `json:"stream,omitempty"`
	// DurationSec sizes synthetic traces (default 3600).
	DurationSec float64 `json:"duration_sec,omitempty"`
	// Loop replays the trace forever (default true).
	Loop *bool `json:"loop,omitempty"`
	// TickUS is the engine quantization in microseconds: 0 = the default
	// 10 ms tick, negative = exact scheduling.
	TickUS int64 `json:"tick_us,omitempty"`
	// Seed drives the session's drop lottery.
	Seed int64 `json:"seed,omitempty"`
	// InboundExtraNS and CompensationNS are per-byte costs in ns/byte.
	InboundExtraNS float64 `json:"inbound_extra_ns_per_byte,omitempty"`
	CompensationNS float64 `json:"compensation_ns_per_byte,omitempty"`
	// Start launches the session immediately (default true).
	Start *bool `json:"start,omitempty"`
	// Relay, if set, attaches a UDP relay after start.
	Relay *RelaySpec `json:"relay,omitempty"`
}

// RelaySpec asks for a livewire relay on the session.
type RelaySpec struct {
	// Listen is the client-facing UDP address ("127.0.0.1:0" picks a
	// free port, reported back).
	Listen string `json:"listen"`
	// Target is the server the relay forwards toward.
	Target string `json:"target"`
}

// TupleJSON is one inline replay tuple.
type TupleJSON struct {
	DurationSec float64 `json:"duration_sec"`
	LatencyMS   float64 `json:"latency_ms"`
	VbNSPerByte float64 `json:"vb_ns_per_byte"`
	VrNSPerByte float64 `json:"vr_ns_per_byte"`
	Loss        float64 `json:"loss"`
}

// SessionInfo is the wire representation of a session.
type SessionInfo struct {
	ID        string  `json:"id"`
	Name      string  `json:"name,omitempty"`
	State     string  `json:"state"`
	TraceRef  string  `json:"trace_ref,omitempty"`
	Live      bool    `json:"live,omitempty"`
	Tuples    int     `json:"trace_tuples"`
	TraceSec  float64 `json:"trace_duration_sec"`
	Loop      bool    `json:"loop"`
	TickUS    int64   `json:"tick_us"`
	Seed      int64   `json:"seed"`
	RelayAddr string  `json:"relay_addr,omitempty"`
	IdleSec   float64 `json:"idle_sec"`

	Submitted   int64 `json:"submitted"`
	Delivered   int64 `json:"delivered"`
	Dropped     int64 `json:"dropped"`
	Rejected    int64 `json:"rejected"`
	Shed        int64 `json:"shed"`
	InFlight    int64 `json:"in_flight"`
	Cursor      int64 `json:"cursor"`
	Quarantined bool  `json:"quarantined,omitempty"`

	// Relay holds the live data-plane counters when a relay is attached.
	Relay *RelayStats `json:"relay,omitempty"`

	// Error carries a restore-time fault (e.g. a stream the session was
	// attached to that no longer exists after -recover).
	Error string `json:"error,omitempty"`
}

// RelayStats is the wire representation of a relay's data-plane counters
// plus throughput rates derived from the relay's uptime.
type RelayStats struct {
	Sharded      bool    `json:"sharded"`
	ReadPackets  int64   `json:"read_packets"`
	ReadBytes    int64   `json:"read_bytes"`
	SentBytes    int64   `json:"sent_bytes"`
	SendErrors   int64   `json:"send_errors"`
	SocketErrors int64   `json:"socket_errors"`
	ReadBatches  int64   `json:"read_batches"`
	AvgBatch     float64 `json:"avg_batch"`
	FlushFull    int64   `json:"flush_full"`
	FlushBurst   int64   `json:"flush_burst"`
	DirectSends  int64   `json:"direct_sends"`
	PPS          float64 `json:"pps"`
	BytesPerSec  float64 `json:"bytes_per_sec"`
}

func relayStats(r *livewire.Relay) *RelayStats {
	if r == nil {
		return nil
	}
	st := r.Stats()
	up := r.Uptime().Seconds()
	rs := &RelayStats{
		Sharded:      r.Sharded(),
		ReadPackets:  st.ReadPackets,
		ReadBytes:    st.ReadBytes,
		SentBytes:    st.SentBytes,
		SendErrors:   st.SendErrors,
		SocketErrors: st.SocketErrors,
		ReadBatches:  st.Batches,
		AvgBatch:     st.AvgBatch(),
		FlushFull:    st.FlushFull,
		FlushBurst:   st.FlushBurst,
		DirectSends:  st.DirectSends,
	}
	if up > 0 {
		rs.PPS = float64(st.ReadPackets) / up
		rs.BytesPerSec = float64(st.ReadBytes) / up
	}
	return rs
}

// FarmInfo summarizes the daemon.
type FarmInfo struct {
	Sessions      int           `json:"sessions"`
	MaxSessions   int           `json:"max_sessions"`
	Draining      bool          `json:"draining,omitempty"`
	WheelShards   int           `json:"wheel_shards"`
	GranularityUS int64         `json:"wheel_granularity_us"`
	TimersPending int64         `json:"timers_pending"`
	CachedTraces  int           `json:"cached_traces"`
	Streams       int           `json:"streams"`
	IdleTimeout   time.Duration `json:"idle_timeout_ns"`
	Shed          int64         `json:"shed"`
	Quarantined   int64         `json:"quarantined"`
	InFlightBytes int64         `json:"in_flight_bytes"`
	WheelPanics   int64         `json:"wheel_panics"`

	// Data-plane shape and farm-wide relay aggregates.
	PumpShards      int   `json:"pump_shards"`
	RelayPackets    int64 `json:"relay_read_packets"`
	RelayReadBytes  int64 `json:"relay_read_bytes"`
	RelaySentBytes  int64 `json:"relay_sent_bytes"`
	RelaySendErrors int64 `json:"relay_send_errors"`
}

func sessionInfo(s *Session) SessionInfo {
	cfg := s.Config()
	st := s.Stats()
	tuples, traceSec := len(cfg.Trace), cfg.Trace.TotalDuration().Seconds()
	if cfg.Live != nil {
		tuples, traceSec = cfg.Live.Len(), cfg.Live.Duration().Seconds()
	}
	var errStr string
	if err := s.RestoreError(); err != nil {
		errStr = err.Error()
	}
	return SessionInfo{
		ID:          s.ID,
		Name:        cfg.Name,
		State:       s.State().String(),
		TraceRef:    cfg.TraceRef,
		Live:        cfg.Live != nil,
		Tuples:      tuples,
		TraceSec:    traceSec,
		Loop:        cfg.Loop,
		TickUS:      cfg.Tick.Microseconds(),
		Seed:        cfg.Seed,
		RelayAddr:   s.RelayAddr(),
		IdleSec:     s.IdleFor().Seconds(),
		Submitted:   st.Submitted,
		Delivered:   st.Delivered,
		Dropped:     st.Dropped,
		Rejected:    st.Rejected,
		Shed:        st.Shed,
		InFlight:    st.InFlight,
		Cursor:      s.Cursor(),
		Quarantined: s.Quarantined(),
		Relay:       relayStats(s.Relay()),
		Error:       errStr,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errorEnvelope is the control plane's uniform error shape.
type errorEnvelope struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorEnvelope{Error: err.Error(), Status: code})
}

// decodeStatus maps a JSON decode failure to its status: an oversized
// body (MaxBytesReader) is 413, everything else 400.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// resolveTrace turns a request's trace spec into a shared core.Trace, or
// — for a stream source — the growing LiveTrace backing it.
func (a *API) resolveTrace(req *SessionRequest) (core.Trace, *LiveTrace, string, error) {
	sources := 0
	for _, set := range []bool{req.TracePath != "", req.Synthetic != "", len(req.Inline) > 0, req.Stream != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, nil, "", errors.New("exactly one of trace_path, synthetic, inline, stream is required")
	}
	switch {
	case req.Stream != "":
		lt, ok := a.m.Store().LookupLive(req.Stream)
		if !ok {
			return nil, nil, "", fmt.Errorf("no such stream %q", req.Stream)
		}
		return nil, lt, "stream:" + req.Stream, nil
	case req.TracePath != "":
		tr, err := a.m.Store().Load(req.TracePath)
		return tr, nil, req.TracePath, err
	case req.Synthetic != "":
		dur := time.Duration(req.DurationSec * float64(time.Second))
		if dur <= 0 {
			dur = time.Hour
		}
		tr, err := replay.Synthetic(req.Synthetic, dur)
		return tr, nil, "synthetic:" + req.Synthetic, err
	default:
		tr := make(core.Trace, 0, len(req.Inline))
		for _, t := range req.Inline {
			tr = append(tr, core.Tuple{
				D: time.Duration(t.DurationSec * float64(time.Second)),
				DelayParams: core.DelayParams{
					F:  time.Duration(t.LatencyMS * float64(time.Millisecond)),
					Vb: core.PerByte(t.VbNSPerByte),
					Vr: core.PerByte(t.VrNSPerByte),
				},
				L: t.Loss,
			})
		}
		if err := tr.Validate(); err != nil {
			return nil, nil, "", err
		}
		// The ref carries a content hash: two different inline traces must
		// not alias in the snapshot's deduplicated trace table.
		h := fnv.New64a()
		for _, t := range req.Inline {
			fmt.Fprintf(h, "%v|%v|%v|%v|%v;", t.DurationSec, t.LatencyMS, t.VbNSPerByte, t.VrNSPerByte, t.Loss)
		}
		return tr, nil, fmt.Sprintf("inline:%d-%016x", len(tr), h.Sum64()), nil
	}
}

// createSession is POST /v1/sessions. With an Idempotency-Key header the
// create is exactly-once per key: a concurrent or later retry of the same
// key waits for (or replays) the first attempt's session instead of
// creating a second one — the guarantee a retrying client or proxying
// cluster coordinator relies on.
func (a *API) createSession(w http.ResponseWriter, r *http.Request) {
	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		a.doCreateSession(w, r)
		return
	}
	for {
		e, owner := a.idem.Claim(key)
		if owner {
			id, ok := a.doCreateSession(w, r)
			a.idem.Resolve(e, id, ok)
			return
		}
		id, ok, err := a.idem.Wait(r.Context(), e)
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		if ok {
			if s, found := a.m.Get(id); found {
				writeJSON(w, http.StatusCreated, sessionInfo(s))
				return
			}
			writeErr(w, http.StatusConflict,
				fmt.Errorf("idempotency key replay: session %s no longer exists", id))
			return
		}
		// The first attempt failed and was forgotten; this retry executes.
	}
}

// doCreateSession performs the create and reports the new session's ID on
// success (for idempotency bookkeeping).
func (a *API) doCreateSession(w http.ResponseWriter, r *http.Request) (string, bool) {
	sp := span.FromContext(r.Context())
	var req SessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, decodeStatus(err), fmt.Errorf("bad request body: %w", err))
		return "", false
	}
	rsp := sp.Child("trace.resolve")
	trace, live, ref, err := a.resolveTrace(&req)
	if rsp != nil {
		rsp.AttrStr("ref", ref)
		rsp.Attr("tuples", int64(len(trace)))
		rsp.End()
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return "", false
	}
	loop := req.Loop == nil || *req.Loop
	tick := time.Duration(req.TickUS) * time.Microsecond
	csp := sp.Child("session.create")
	defer csp.End()
	s, err := a.m.Create(SessionConfig{
		Name:         req.Name,
		Trace:        trace,
		Live:         live,
		TraceRef:     ref,
		Loop:         loop,
		Tick:         tick,
		Seed:         req.Seed,
		InboundExtra: core.PerByte(req.InboundExtraNS),
		Compensation: core.PerByte(req.CompensationNS),
	})
	if err != nil {
		code := http.StatusConflict
		if errors.Is(err, ErrOverload) {
			code = http.StatusTooManyRequests
		}
		if errors.Is(err, ErrDraining) {
			code = http.StatusServiceUnavailable
		}
		// writeStreamErr upgrades a typed BrownoutError to 429 with a
		// Retry-After hint — session admission rides the same ladder as
		// stream admission.
		writeStreamErr(w, code, err)
		return "", false
	}
	csp.AttrStr("session", s.ID)
	if req.Start == nil || *req.Start {
		if err := s.Start(); err != nil {
			a.m.Delete(s.ID)
			writeErr(w, http.StatusInternalServerError, err)
			return "", false
		}
		if req.Relay != nil {
			if _, err := s.AttachRelay(req.Relay.Listen, req.Relay.Target); err != nil {
				a.m.Delete(s.ID)
				writeErr(w, http.StatusBadRequest, err)
				return "", false
			}
		}
	} else if req.Relay != nil {
		a.m.Delete(s.ID)
		writeErr(w, http.StatusBadRequest, errors.New("relay requires start"))
		return "", false
	}
	writeJSON(w, http.StatusCreated, sessionInfo(s))
	return s.ID, true
}

func (a *API) listSessions(w http.ResponseWriter, _ *http.Request) {
	sessions := a.m.List()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, sessionInfo(s))
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) getSession(w http.ResponseWriter, r *http.Request) {
	s, ok := a.m.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(s))
}

func (a *API) deleteSession(w http.ResponseWriter, r *http.Request) {
	if !a.m.Delete(r.PathValue("id")) {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *API) startSession(w http.ResponseWriter, r *http.Request) {
	s, ok := a.m.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	if err := s.Start(); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(s))
}

// stopSession stops a session; with ?drain=DURATION it drains gracefully
// first (e.g. ?drain=2s).
func (a *API) stopSession(w http.ResponseWriter, r *http.Request) {
	s, ok := a.m.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	if d := r.URL.Query().Get("drain"); d != "" {
		timeout, err := time.ParseDuration(d)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad drain duration: %w", err))
			return
		}
		s.Drain(timeout)
	} else {
		s.Stop()
	}
	writeJSON(w, http.StatusOK, sessionInfo(s))
}

// snapshotDump is GET /v1/snapshot: the farm's current durable state as
// one self-contained FarmSnapshot — the same shape WriteSnapshot persists.
// A cluster coordinator polls it so a worker's latest state is already in
// hand when the worker dies.
func (a *API) snapshotDump(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.m.Snapshot())
}

// RestoreResult is the POST /v1/restore payload: how many sessions were
// rebuilt, and the first per-session failure when any session could not
// be fully brought back (parked sessions still count as restored).
type RestoreResult struct {
	Restored int    `json:"restored"`
	Error    string `json:"error,omitempty"`
}

// restoreSnapshot is POST /v1/restore: rebuild the sessions of a posted
// FarmSnapshot in this farm under their original IDs — the receiving half
// of failover and live migration. Per-session failures park or skip that
// session; the call only errors wholesale on an unreadable body.
func (a *API) restoreSnapshot(w http.ResponseWriter, r *http.Request) {
	var snap FarmSnapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		writeErr(w, decodeStatus(err), fmt.Errorf("bad snapshot body: %w", err))
		return
	}
	n, err := a.m.Restore(&snap)
	res := RestoreResult{Restored: n}
	code := http.StatusOK
	if err != nil {
		res.Error = err.Error()
		if n == 0 {
			code = http.StatusConflict
		}
	}
	writeJSON(w, code, res)
}

// handoffSession is POST /v1/sessions/{id}/handoff?drain=2s: quiesce one
// session and return it as a single-session snapshot for live migration.
// The session is deleted from this farm once extracted; the caller
// restores the snapshot on the destination.
func (a *API) handoffSession(w http.ResponseWriter, r *http.Request) {
	drain := a.m.opts.DrainTimeout
	if d := r.URL.Query().Get("drain"); d != "" {
		timeout, err := time.ParseDuration(d)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad drain duration: %w", err))
			return
		}
		drain = timeout
	}
	snap, err := a.m.Handoff(r.PathValue("id"), drain)
	if err != nil {
		code := http.StatusConflict
		if errors.Is(err, ErrNoSession) {
			code = http.StatusNotFound
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// beginDrain is POST /v1/drain: flip the farm into planned-shutdown mode.
// New session creates are refused with 503, /v1/health fails readiness
// with status "draining" (liveness at /healthz stays up), and a cluster
// coordinator responds by live-migrating this worker's sessions away
// instead of declaring it dead.
func (a *API) beginDrain(w http.ResponseWriter, r *http.Request) {
	a.m.BeginDrain()
	a.health(w, r)
}

// streamLiveEdgeTimeout is the longest an in-flight upload may sit idle
// at the live edge before the daemon cuts it: the rolling per-chunk read
// deadline POST /v1/streams re-arms between chunks. A paused collector
// is tolerated up to this long; a dead one does not pin the stream
// forever.
const streamLiveEdgeTimeout = 30 * time.Second

// writeStreamErr maps the ingest path's typed errors onto the wire:
// brownout rejections become 429 with a Retry-After hint, offset
// mismatches 409 with the committed offset in Upload-Offset, quota
// overruns 413. Anything untyped falls back to the caller's code.
func writeStreamErr(w http.ResponseWriter, fallback int, err error) {
	var be *BrownoutError
	if errors.As(err, &be) {
		secs := int(be.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeErr(w, http.StatusTooManyRequests, err)
		return
	}
	var oe *OffsetError
	if errors.As(err, &oe) {
		w.Header().Set("Upload-Offset", strconv.FormatInt(oe.Committed, 10))
		writeErr(w, http.StatusConflict, err)
		return
	}
	var qe *QuotaError
	if errors.As(err, &qe) {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeErr(w, fallback, err)
}

// pauseIngest reports whether the brownout ladder has reached the rung
// where live-edge reads stop. When it has, the typed error to send the
// uploader is returned: the connection is released, the stream stays
// receiving, and the collector comes back after Retry-After.
func (a *API) pauseIngest() *BrownoutError {
	p := a.m.Pressure()
	if lvl := p.Level(); lvl >= pressure.PauseIngest {
		return &BrownoutError{Level: lvl, RetryAfter: p.RetryAfter()}
	}
	return nil
}

// uploadBufPool recycles the read buffer createStream and resumeStream
// consume an upload body through; the stream copies what it keeps, so a
// buffer is free again once its handler returns.
var uploadBufPool = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

// createStream is POST /v1/streams?name=N: a chunked collected-trace
// upload consumed through the streaming distiller. The stream (and its
// growing replay trace) is registered before the first byte is read, so
// sessions can attach while the upload is still in flight. Query params
// window, step, settle (Go durations) tune the distiller; strict=true
// refuses damaged input instead of salvaging around it; resumable=true
// keeps the stream open across connection loss — EOF parks it instead
// of sealing, and PATCH /v1/streams/{name} picks up at the committed
// offset (finalize with ?complete=true there).
func (a *API) createStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cfg := StreamConfig{
		Name:      q.Get("name"),
		Strict:    q.Get("strict") == "true",
		Resumable: q.Get("resumable") == "true",
	}
	for _, p := range []struct {
		key string
		dst *time.Duration
	}{{"window", &cfg.Window}, {"step", &cfg.Step}, {"settle", &cfg.Settle}} {
		if v := q.Get(p.key); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", p.key, err))
				return
			}
			*p.dst = d
		}
	}
	st, err := a.m.Streams().Create(cfg)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrStreamExists) {
			code = http.StatusConflict
		}
		writeStreamErr(w, code, err)
		return
	}
	if err := st.acquireUpload(); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	defer st.releaseUpload()
	// Consume the upload chunk by chunk, rolling the connection deadlines
	// forward each time: the request lives as long as the collector keeps
	// sending, however slowly, without ever disabling timeouts outright.
	rc := http.NewResponseController(w)
	bp := uploadBufPool.Get().(*[]byte)
	defer uploadBufPool.Put(bp)
	buf := *bp
	for {
		if be := a.pauseIngest(); be != nil {
			if !cfg.Resumable {
				st.abort(fmt.Errorf("emud: stream %q upload shed: %w", st.Name, be))
			}
			writeStreamErr(w, http.StatusTooManyRequests, be)
			return
		}
		_ = rc.SetReadDeadline(time.Now().Add(streamLiveEdgeTimeout))
		_ = rc.SetWriteDeadline(time.Now().Add(streamLiveEdgeTimeout + httpWriteTimeout))
		n, rerr := r.Body.Read(buf)
		if n > 0 {
			if werr := st.Write(buf[:n]); werr != nil {
				writeStreamErr(w, http.StatusUnprocessableEntity, werr)
				return
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			if cfg.Resumable {
				// The stream survives the dead connection: everything up to
				// the committed offset is in the WAL, and the collector
				// resumes from GET .../offset + PATCH.
				writeErr(w, http.StatusBadRequest,
					fmt.Errorf("upload interrupted at offset %d; resume with PATCH: %w", st.Offset(), rerr))
				return
			}
			st.abort(fmt.Errorf("emud: stream %q upload interrupted: %w", st.Name, rerr))
			writeErr(w, http.StatusBadRequest, rerr)
			return
		}
	}
	if cfg.Resumable && q.Get("complete") != "true" {
		// Parked, not sealed: the collector ends this request whenever it
		// likes and finalizes later via PATCH ?complete=true.
		writeJSON(w, http.StatusCreated, st.Info())
		return
	}
	if _, err := st.Finish(); err != nil {
		writeStreamErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, st.Info())
}

// parseUploadOffset extracts the resume position from an Upload-Offset
// header (preferred) or a Content-Range "bytes N-..." fallback.
func parseUploadOffset(r *http.Request) (int64, error) {
	if v := r.Header.Get("Upload-Offset"); v != "" {
		off, err := strconv.ParseInt(v, 10, 64)
		if err != nil || off < 0 {
			return 0, fmt.Errorf("bad Upload-Offset %q", v)
		}
		return off, nil
	}
	if v := r.Header.Get("Content-Range"); v != "" {
		s := strings.TrimPrefix(v, "bytes ")
		if i := strings.IndexByte(s, '-'); i > 0 {
			if off, err := strconv.ParseInt(s[:i], 10, 64); err == nil && off >= 0 {
				return off, nil
			}
		}
		return 0, fmt.Errorf("bad Content-Range %q", v)
	}
	return 0, errors.New("Upload-Offset (or Content-Range) header required")
}

// resumeStream is PATCH /v1/streams/{name}: append more collected bytes
// to a receiving stream at a declared offset. The request must carry the
// stream's token (Stream-Token header) and its resume position
// (Upload-Offset). A stale offset gets 409 plus the committed offset to
// retry from; overlapping bytes below the committed offset are discarded
// idempotently, so blind retransmission of the last chunk is safe.
// ?complete=true seals the stream after the body is consumed.
func (a *API) resumeStream(w http.ResponseWriter, r *http.Request) {
	st, ok := a.m.Streams().Get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such stream"))
		return
	}
	if tok := r.Header.Get("Stream-Token"); tok != st.Token() {
		writeErr(w, http.StatusForbidden, errors.New("missing or mismatched Stream-Token"))
		return
	}
	off, err := parseUploadOffset(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := st.acquireUpload(); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	defer st.releaseUpload()
	rc := http.NewResponseController(w)
	bp := uploadBufPool.Get().(*[]byte)
	defer uploadBufPool.Put(bp)
	buf := *bp
	for {
		if be := a.pauseIngest(); be != nil {
			writeStreamErr(w, http.StatusTooManyRequests, be)
			return
		}
		_ = rc.SetReadDeadline(time.Now().Add(streamLiveEdgeTimeout))
		_ = rc.SetWriteDeadline(time.Now().Add(streamLiveEdgeTimeout + httpWriteTimeout))
		n, rerr := r.Body.Read(buf)
		if n > 0 {
			if werr := st.WriteAt(off, buf[:n]); werr != nil {
				writeStreamErr(w, http.StatusUnprocessableEntity, werr)
				return
			}
			off += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			// Connection lost again; the stream stays parked for the next
			// resume from the committed offset.
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("resume interrupted at offset %d: %w", st.Offset(), rerr))
			return
		}
	}
	if r.URL.Query().Get("complete") == "true" {
		if _, err := st.Finish(); err != nil {
			writeStreamErr(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, st.Info())
}

// StreamOffsetInfo is the GET /v1/streams/{name}/offset payload: where a
// resumed upload should pick up. Offset is the committed (ingested)
// position; Durable is the fsynced WAL prefix — after a crash the stream
// restarts from Durable, so a cautious collector resumes there.
type StreamOffsetInfo struct {
	Name      string `json:"name"`
	State     string `json:"state"`
	Offset    int64  `json:"offset"`
	Durable   int64  `json:"durable"`
	Resumable bool   `json:"resumable"`
}

func (a *API) streamOffset(w http.ResponseWriter, r *http.Request) {
	st, ok := a.m.Streams().Get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such stream"))
		return
	}
	writeJSON(w, http.StatusOK, StreamOffsetInfo{
		Name:      st.Name,
		State:     string(st.State()),
		Offset:    st.Offset(),
		Durable:   st.Durable(),
		Resumable: st.Resumable(),
	})
}

func (a *API) listStreams(w http.ResponseWriter, _ *http.Request) {
	streams := a.m.Streams().List()
	out := make([]StreamInfo, 0, len(streams))
	for _, st := range streams {
		out = append(out, st.Info())
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) getStream(w http.ResponseWriter, r *http.Request) {
	st, ok := a.m.Streams().Get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such stream"))
		return
	}
	writeJSON(w, http.StatusOK, st.Info())
}

func (a *API) deleteStream(w http.ResponseWriter, r *http.Request) {
	if !a.m.Streams().Delete(r.PathValue("name")) {
		writeErr(w, http.StatusNotFound, errors.New("no such stream"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *API) farmInfo(w http.ResponseWriter, _ *http.Request) {
	var relayPkts, relayRead, relaySent, relaySendErrs int64
	for _, s := range a.m.List() {
		if r := s.Relay(); r != nil {
			st := r.Stats()
			relayPkts += st.ReadPackets
			relayRead += st.ReadBytes
			relaySent += st.SentBytes
			relaySendErrs += st.SendErrors
		}
	}
	writeJSON(w, http.StatusOK, FarmInfo{
		Sessions:      a.m.Count(),
		MaxSessions:   a.m.opts.MaxSessions,
		Draining:      a.m.Draining(),
		WheelShards:   a.m.wheel.Shards(),
		GranularityUS: a.m.wheel.Granularity().Microseconds(),
		TimersPending: a.m.wheel.Pending(),
		CachedTraces:  a.m.store.Len(),
		Streams:       a.m.Streams().Count(),
		IdleTimeout:   a.m.opts.IdleTimeout,
		Shed:          a.m.Shed(),
		Quarantined:   a.m.Quarantined(),
		InFlightBytes: a.m.InFlightBytes(),
		WheelPanics:   a.m.wheel.Panics(),

		PumpShards:      a.m.Pumps().ShardCount(),
		RelayPackets:    relayPkts,
		RelayReadBytes:  relayRead,
		RelaySentBytes:  relaySent,
		RelaySendErrors: relaySendErrs,
	})
}

// FlightDump is the GET /v1/sessions/{id}/flight payload: the session's
// last-N sampled spans, oldest first.
type FlightDump struct {
	Session  string           `json:"session"`
	Capacity int              `json:"capacity"`
	Total    uint64           `json:"total"`
	Spans    []*span.SpanData `json:"spans"`
}

// flightDump serves a session's flight recorder. Default is the JSON
// span dump (the same wire shape as span JSONL records, in an array);
// ?format=tree renders the human-readable span forest instead.
func (a *API) flightDump(w http.ResponseWriter, r *http.Request) {
	s, ok := a.m.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	f := s.Flight()
	if f == nil {
		writeErr(w, http.StatusNotFound, errors.New("span tracing disabled; no flight recorder"))
		return
	}
	spans := f.Snapshot()
	if r.URL.Query().Get("format") == "tree" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = span.RenderTree(w, spans)
		return
	}
	writeJSON(w, http.StatusOK, FlightDump{
		Session:  s.ID,
		Capacity: f.Capacity(),
		Total:    f.Total(),
		Spans:    spans,
	})
}

func (a *API) sloReport(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.m.SLOReport())
}

// HealthInfo is the GET /v1/health payload: a readiness verdict (every
// critical objective met) and the overall SLO score.
type HealthInfo struct {
	Ready bool `json:"ready"`
	// Status classifies an unready farm so a poller can react correctly:
	// "ok" (ready), "draining" (planned shutdown in progress — stop
	// routing new work here and migrate, the process is alive), or
	// "overloaded" (brownout ladder at reject-streams or deeper — back
	// off and retry, the 429 path) / "degraded" (a critical SLO unmet for
	// another reason). Only a worker that stops answering entirely should
	// be treated as dead.
	Status   string  `json:"status"`
	Draining bool    `json:"draining,omitempty"`
	Score    float64 `json:"score"`
	Sessions int     `json:"sessions"`
	// Pressure is the brownout ladder's current rung ("normal" when the
	// farm is healthy); anything past reject-streams also fails the
	// critical ingest-brownout objective and flips Ready.
	Pressure string `json:"pressure"`
}

// health serves a readiness score derived from the SLO engine: 200 when
// every critical objective is met and the farm is not draining, 503
// otherwise — with Status distinguishing a draining worker (migrate its
// sessions) from an overloaded one (retry later). Load balancers, the
// cluster coordinator's heartbeat probe, and the load-smoke CI job poll
// this; liveness stays on /healthz, which a draining worker still passes.
func (a *API) health(w http.ResponseWriter, _ *http.Request) {
	rep := a.m.slos.Evaluate()
	lvl := a.m.Pressure().Level()
	status := "ok"
	ready := rep.Ready
	if !ready {
		status = "degraded"
		if lvl >= pressure.RejectStreams {
			status = "overloaded"
		}
	}
	if a.m.Draining() {
		status = "draining"
		ready = false
	}
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthInfo{
		Ready:    ready,
		Status:   status,
		Draining: a.m.Draining(),
		Score:    rep.Score,
		Sessions: a.m.Count(),
		Pressure: lvl.String(),
	})
}

// Serve binds addr and serves the control plane until the listener is
// closed; it returns the bound address.
func (a *API) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("emud: control listener: %w", err)
	}
	srv := &http.Server{
		Handler:           a.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
	s := &Server{ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Server is a running control-plane listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *Server) Close() error { return s.srv.Close() }
