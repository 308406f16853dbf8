// The coordinator's HTTP surface: the same /v1 control plane the workers
// speak, proxied. Session and stream creates are placed on the ring and
// forwarded with an Idempotency-Key — supplied by the client or minted
// here — and single-flighted per key, so a client retry (or the
// coordinator's own backoff retry after a transport error) lands on the
// same worker and replays the same response instead of double-creating.
// Reads fan out and merge; per-resource routes follow the placement map.
// /v1/farm, /v1/health and /v1/slo aggregate across workers.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"tracemod/internal/emud"
)

// proxyMaxBody bounds buffered request bodies. Stream append chunks are
// the largest legitimate payload; they are bounded client-side, and 8 MiB
// leaves generous headroom.
const proxyMaxBody = 8 << 20

// createReply is a successful create's response as the idempotency
// table keeps it: status, exactly-sized body and content type, replayed
// verbatim to later requests carrying the same key.
type createReply struct {
	status int
	body   []byte
	ctype  string
}

// Handler returns the coordinator's control-plane handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

func (c *Coordinator) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/health", c.handleHealth)
	mux.HandleFunc("GET /v1/slo", c.handleSLO)
	mux.HandleFunc("GET /v1/farm", c.handleFarm)
	mux.HandleFunc("GET /v1/cluster", c.handleCluster)
	mux.HandleFunc("POST /v1/cluster/register", c.handleRegister)
	mux.HandleFunc("POST /v1/cluster/workers/{name}/drain", c.handleDrain)

	mux.HandleFunc("POST /v1/sessions", c.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", c.handleListSessions)
	mux.HandleFunc("/v1/sessions/{id}", c.handleSessionRoute)
	mux.HandleFunc("/v1/sessions/{id}/{rest...}", c.handleSessionRoute)

	mux.HandleFunc("POST /v1/streams", c.handleCreateStream)
	mux.HandleFunc("GET /v1/streams", c.handleListStreams)
	mux.HandleFunc("/v1/streams/{name}", c.handleStreamRoute)
	mux.HandleFunc("/v1/streams/{name}/{rest...}", c.handleStreamRoute)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// --- placement-aware forwarding ---------------------------------------

// workerAddr resolves a placeable worker's address. Dead workers are
// unroutable; suspect and draining ones still serve their existing
// resources.
func (c *Coordinator) workerAddr(name string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	if w == nil || w.state == WorkerDead {
		return "", false
	}
	return w.addr, true
}

// forwarded is one proxied response, buffered so retries and idempotent
// replays can reuse it.
type forwarded struct {
	status int
	body   []byte
	header http.Header
}

// forwardedRequestHeaders are the request headers a worker acts on. The
// last three carry a resumable upload: Stream-Token authorizes the
// PATCH, Upload-Offset (or its Content-Range fallback) places the bytes.
var forwardedRequestHeaders = []string{"Content-Type", "Idempotency-Key", "Stream-Token", "Upload-Offset", "Content-Range"}

// forward proxies r to the named worker, buffering the request body so a
// transport error can be retried under the coordinator's backoff policy.
// Responses — including worker-side errors like 429 or 409 — pass
// through verbatim; only transport failures (no HTTP response at all)
// are retried, and the cluster.proxy fault point can inject those.
func (c *Coordinator) forward(r *http.Request, workerName string) (*forwarded, error) {
	addr, ok := c.workerAddr(workerName)
	if !ok {
		return nil, fmt.Errorf("worker %q unroutable", workerName)
	}
	body, err := readBody(r.Body, r.ContentLength, proxyMaxBody)
	if err != nil {
		return nil, err
	}
	url := addr + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var out *forwarded
	attempt := 0
	err = c.opts.Retry.Do(func() error {
		if attempt++; attempt > 1 {
			c.proxyRetries.Inc()
		}
		if pt := c.inj.Point("cluster.proxy"); pt != nil && pt.Fire() {
			pt.Stall()
			if ferr := pt.Err(); ferr != nil {
				return ferr
			}
			return fmt.Errorf("cluster.proxy: injected transport error")
		}
		req, rerr := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
		if rerr != nil {
			return rerr
		}
		for _, h := range forwardedRequestHeaders {
			if v := r.Header.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
		res, derr := c.client.Do(req)
		if derr != nil {
			return derr
		}
		defer res.Body.Close()
		rb, berr := readBody(res.Body, res.ContentLength, math.MaxInt64)
		if berr != nil {
			return berr
		}
		out = &forwarded{status: res.StatusCode, body: rb, header: res.Header}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.proxied.Inc()
	return out, nil
}

// readBody reads a body of declared length n (-1 when unknown), at most
// limit bytes: into an exactly-sized slice when n is known, otherwise by
// io.ReadAll.
func readBody(body io.Reader, n, limit int64) ([]byte, error) {
	if n < 0 || n > limit {
		return io.ReadAll(io.LimitReader(body, limit))
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(body, b); err != nil {
		return nil, err
	}
	return b, nil
}

func (f *forwarded) write(w http.ResponseWriter) {
	for _, h := range []string{"Content-Type", "Retry-After", "Upload-Offset"} {
		if v := f.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(f.status)
	_, _ = w.Write(f.body)
}

// --- idempotent placement-keyed creates -------------------------------

// idemKey returns the request's idempotency key, minting one when the
// client did not send one so the coordinator's own retries are still
// safe against double-creation on the worker. minted reports the latter:
// no client can ever replay a minted key, so it is not cached here.
func (c *Coordinator) idemKey(r *http.Request) (key string, minted bool) {
	if k := r.Header.Get("Idempotency-Key"); k != "" {
		return k, false
	}
	return fmt.Sprintf("coord-%d-%d", time.Now().UnixNano(), c.idemSeq.Add(1)), true
}

// createPlaced handles a placement-keyed, idempotent create: place it
// (on the named stream's worker, or by key on the ring), single-flight
// the key, forward with the key attached, and record the placement via
// record() on success. A client key's 2xx response replays for idem.TTL;
// a minted key is forwarded without touching the table.
func (c *Coordinator) createPlaced(w http.ResponseWriter, r *http.Request, stream string, record func(body []byte, workerName string)) {
	key, minted := c.idemKey(r)
	r.Header.Set("Idempotency-Key", key)
	if minted {
		if f := c.forwardCreate(w, r, key, stream, record); f != nil {
			f.write(w)
		}
		return
	}
	for {
		e, owner := c.idem.Claim(key)
		if owner {
			f := c.forwardCreate(w, r, key, stream, record)
			var rp createReply
			ok := f != nil && f.status >= 200 && f.status < 300
			if ok {
				// Held for idem.TTL: keep no io.ReadAll growth slack.
				body := f.body
				if cap(body) != len(body) {
					body = append(make([]byte, 0, len(body)), body...)
				}
				rp = createReply{status: f.status, body: body, ctype: f.header.Get("Content-Type")}
			}
			c.idem.Resolve(e, rp, ok)
			if f != nil {
				f.write(w)
			}
			return
		}
		rp, ok, err := c.idem.Wait(r.Context(), e)
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("canceled waiting on idempotent create"))
			return
		}
		if !ok {
			// The owner failed and forgot the entry; take ownership on
			// the next lap and re-execute.
			continue
		}
		if rp.ctype != "" {
			w.Header().Set("Content-Type", rp.ctype)
		}
		w.WriteHeader(rp.status)
		_, _ = w.Write(rp.body)
		return
	}
}

// errUnknownStream is the 404 for a create naming a stream no worker
// holds.
var errUnknownStream = errors.New("stream not found on any worker")

// forwardCreate places the create — on stream's worker when stream is
// set, otherwise by key on the ring — and forwards it, recording a 2xx's
// placement. When it cannot be placed or no worker answers it writes the
// error response itself and returns nil.
func (c *Coordinator) forwardCreate(w http.ResponseWriter, r *http.Request, key, stream string, record func(body []byte, workerName string)) *forwarded {
	var target string
	if stream != "" {
		c.mu.Lock()
		owner, ok := c.streamPlace[stream]
		c.mu.Unlock()
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("%w: %q", errUnknownStream, stream))
			return nil
		}
		target = owner
	} else if owner, ok := c.ring.Get(key); ok {
		target = owner
	} else {
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("no alive workers"))
		return nil
	}
	f, err := c.forward(r, target)
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("worker %s: %w", target, err))
		return nil
	}
	if f.status >= 200 && f.status < 300 {
		record(f.body, target)
	}
	return f
}

// handleCreateSession places a stream-fed session on its stream's
// worker, where the live trace it modulates against exists; every other
// session is placed by its idempotency key.
func (c *Coordinator) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r.Body, r.ContentLength, proxyMaxBody)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	// A malformed body is the worker's to reject; it places by key.
	var src struct {
		Stream string `json:"stream"`
	}
	_ = json.Unmarshal(body, &src)
	c.createPlaced(w, r, src.Stream, func(body []byte, workerName string) {
		var si emud.SessionInfo
		if json.Unmarshal(body, &si) == nil && si.ID != "" {
			c.mu.Lock()
			c.place[si.ID] = workerName
			c.mu.Unlock()
		}
	})
}

func (c *Coordinator) handleCreateStream(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	c.createPlaced(w, r, "", func(_ []byte, workerName string) {
		if name != "" {
			c.mu.Lock()
			c.streamPlace[name] = workerName
			c.mu.Unlock()
		}
	})
}

// --- per-resource routes ----------------------------------------------

func (c *Coordinator) handleSessionRoute(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	owner, ok := c.place[id]
	c.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("session %s not found on any worker", id))
		return
	}
	f, err := c.forward(r, owner)
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("worker %s: %w", owner, err))
		return
	}
	if f.status < 300 && (r.Method == http.MethodDelete ||
		(r.Method == http.MethodPost && r.PathValue("rest") == "handoff")) {
		// The session no longer exists on its worker (deleted, or handed
		// off to the caller as a snapshot); drop the placement.
		c.mu.Lock()
		delete(c.place, id)
		c.mu.Unlock()
	}
	f.write(w)
}

func (c *Coordinator) handleStreamRoute(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	c.mu.Lock()
	owner, ok := c.streamPlace[name]
	c.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("stream %s not found on any worker", name))
		return
	}
	f, err := c.forward(r, owner)
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("worker %s: %w", owner, err))
		return
	}
	if r.Method == http.MethodDelete && f.status < 300 {
		c.mu.Lock()
		delete(c.streamPlace, name)
		c.mu.Unlock()
	}
	f.write(w)
}

// --- fan-out reads and aggregates -------------------------------------

// routable lists workers whose resources are still reachable.
func (c *Coordinator) routable() []WorkerSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerSpec, 0, len(c.workers))
	for _, w := range c.workers {
		if w.state != WorkerDead {
			out = append(out, WorkerSpec{Name: w.name, Addr: w.addr})
		}
	}
	return out
}

// fanGET issues GET path on every routable worker concurrently and
// returns the decoded bodies that answered 200.
func fanGET[T any](c *Coordinator, path string) map[string]T {
	workers := c.routable()
	var mu sync.Mutex
	out := make(map[string]T, len(workers))
	var wg sync.WaitGroup
	for _, ws := range workers {
		wg.Add(1)
		go func(ws WorkerSpec) {
			defer wg.Done()
			res, err := c.client.Get(ws.Addr + path)
			if err != nil {
				return
			}
			defer res.Body.Close()
			if res.StatusCode != http.StatusOK {
				return
			}
			var v T
			if json.NewDecoder(res.Body).Decode(&v) != nil {
				return
			}
			mu.Lock()
			out[ws.Name] = v
			mu.Unlock()
		}(ws)
	}
	wg.Wait()
	return out
}

func (c *Coordinator) handleListSessions(w http.ResponseWriter, _ *http.Request) {
	lists := fanGET[[]emud.SessionInfo](c, "/v1/sessions")
	merged := make([]emud.SessionInfo, 0)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	writeJSON(w, http.StatusOK, merged)
}

func (c *Coordinator) handleListStreams(w http.ResponseWriter, _ *http.Request) {
	lists := fanGET[[]json.RawMessage](c, "/v1/streams")
	merged := make([]json.RawMessage, 0)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	writeJSON(w, http.StatusOK, merged)
}

// WorkerFarm is one worker's farm view inside the aggregate.
type WorkerFarm struct {
	Name  string         `json:"name"`
	State string         `json:"state"`
	Farm  *emud.FarmInfo `json:"farm,omitempty"`
}

// ClusterFarmInfo is the /v1/farm aggregate across the cluster.
type ClusterFarmInfo struct {
	Workers  []WorkerFarm `json:"workers"`
	Alive    int          `json:"alive_workers"`
	Sessions int          `json:"sessions"`
	Streams  int          `json:"streams"`
	Placed   int          `json:"placed_sessions"`
	// RelayPackets aggregates the data-plane read counters farm-wide.
	RelayPackets int64 `json:"relay_read_packets"`
}

func (c *Coordinator) handleFarm(w http.ResponseWriter, _ *http.Request) {
	farms := fanGET[emud.FarmInfo](c, "/v1/farm")
	info := ClusterFarmInfo{Workers: make([]WorkerFarm, 0, len(c.workers))}
	for _, wi := range c.Workers() {
		wf := WorkerFarm{Name: wi.Name, State: wi.State}
		if f, ok := farms[wi.Name]; ok {
			fc := f
			wf.Farm = &fc
			info.Sessions += f.Sessions
			info.Streams += f.Streams
			info.RelayPackets += f.RelayPackets
		}
		if wi.State == WorkerAlive.String() {
			info.Alive++
		}
		info.Workers = append(info.Workers, wf)
	}
	c.mu.Lock()
	info.Placed = len(c.place)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// ClusterHealth is the /v1/health aggregate: the cluster is ready while
// at least one worker holds an alive lease and every critical
// coordinator SLO (worker availability) is met.
type ClusterHealth struct {
	Ready   bool              `json:"ready"`
	Status  string            `json:"status"`
	Score   float64           `json:"score"`
	Workers map[string]string `json:"workers"`
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rep := c.slos.Evaluate()
	ch := ClusterHealth{Score: rep.Score, Workers: make(map[string]string)}
	alive := 0
	c.mu.Lock()
	for n, wk := range c.workers {
		ch.Workers[n] = wk.state.String()
		if wk.state == WorkerAlive {
			alive++
		}
	}
	c.mu.Unlock()
	ch.Ready = alive > 0 && rep.Ready
	switch {
	case ch.Ready:
		ch.Status = "ok"
	case alive == 0:
		ch.Status = "no-alive-workers"
	default:
		ch.Status = "degraded"
	}
	code := http.StatusOK
	if !ch.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, ch)
}

func (c *Coordinator) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.slos.Evaluate())
}

func (c *Coordinator) handleCluster(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": c.Workers()})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var spec WorkerSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad register body: %w", err))
		return
	}
	if err := c.Register(spec.Name, spec.Addr); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"workers": c.Workers()})
}

func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	moved, skipped, err := c.DrainWorker(name)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"worker": name, "migrated": moved, "skipped": skipped,
	})
}
