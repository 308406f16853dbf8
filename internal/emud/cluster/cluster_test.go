package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tracemod/internal/emud"
	"tracemod/internal/faults"
	"tracemod/internal/obs"
)

// testWorker is one in-process emud worker: a manager plus its HTTP API.
type testWorker struct {
	name string
	m    *emud.Manager
	srv  *httptest.Server
}

func newTestWorker(t *testing.T, name string) *testWorker {
	t.Helper()
	reg := obs.NewRegistry()
	m := emud.NewManager(emud.Options{
		Metrics:         reg,
		Granularity:     time.Millisecond,
		SessionIDPrefix: name + "-",
	})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(emud.NewAPI(m, reg).Handler())
	t.Cleanup(srv.Close)
	return &testWorker{name: name, m: m, srv: srv}
}

// newTestCluster builds a coordinator over the given workers with manual
// heartbeats: the loop period is an hour, so every probe round happens
// via an explicit Tick() and the lease clock is driven by real sleeps
// against small Suspect/Evict windows.
func newTestCluster(t *testing.T, workers ...*testWorker) (*Coordinator, *httptest.Server) {
	t.Helper()
	specs := make([]WorkerSpec, 0, len(workers))
	for _, w := range workers {
		specs = append(specs, WorkerSpec{Name: w.name, Addr: w.srv.URL})
	}
	c := New(Options{
		Workers:           specs,
		HeartbeatInterval: time.Hour, // tests call Tick() explicitly
		ProbeTimeout:      2 * time.Second,
		SuspectAfter:      150 * time.Millisecond,
		EvictAfter:        400 * time.Millisecond,
		RevivalProbes:     2,
		DrainTimeout:      2 * time.Second,
		Retry:             faults.Backoff{Attempts: 3, Base: time.Millisecond, Max: 5 * time.Millisecond},
		Faults:            faults.New(faults.Options{Seed: 11}),
		Metrics:           obs.NewRegistry(),
	})
	t.Cleanup(c.Close)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

func postJSON(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(http.MethodPost, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, _ := io.ReadAll(res.Body)
	return res, raw
}

func inlineSession(name string, seed int64) emud.SessionRequest {
	return emud.SessionRequest{
		Name: name,
		Inline: []emud.TupleJSON{
			{DurationSec: 3600, Loss: 0.3},
		},
		TickUS: -1, // exact scheduling: no quantization battles in tests
		Seed:   seed,
	}
}

func TestProxyCreateRouteDelete(t *testing.T) {
	w1 := newTestWorker(t, "w1")
	w2 := newTestWorker(t, "w2")
	c, srv := newTestCluster(t, w1, w2)

	var made []emud.SessionInfo
	for i := 0; i < 6; i++ {
		res, raw := postJSON(t, srv.URL+"/v1/sessions", inlineSession(fmt.Sprintf("s%d", i), int64(i)), nil)
		if res.StatusCode != http.StatusCreated {
			t.Fatalf("create %d = %d: %s", i, res.StatusCode, raw)
		}
		var si emud.SessionInfo
		if err := json.Unmarshal(raw, &si); err != nil {
			t.Fatal(err)
		}
		made = append(made, si)
	}
	if n := w1.m.Count() + w2.m.Count(); n != 6 {
		t.Fatalf("farm holds %d sessions, want 6", n)
	}

	// Worker-prefixed IDs prove which farm each create landed on, and the
	// placement map must agree.
	for _, si := range made {
		c.mu.Lock()
		owner := c.place[si.ID]
		c.mu.Unlock()
		if !strings.HasPrefix(si.ID, owner+"-") {
			t.Fatalf("session %s placed on %q", si.ID, owner)
		}
		res, err := http.Get(srv.URL + "/v1/sessions/" + si.ID)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s via proxy = %d", si.ID, res.StatusCode)
		}
	}

	var list []emud.SessionInfo
	res, err := http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 6 {
		t.Fatalf("aggregate list has %d sessions, want 6: %s", len(list), raw)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+made[0].ID, nil)
	dres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dres.Body.Close()
	if dres.StatusCode != http.StatusNoContent {
		t.Fatalf("proxied delete = %d", dres.StatusCode)
	}
	c.mu.Lock()
	_, still := c.place[made[0].ID]
	c.mu.Unlock()
	if still {
		t.Fatal("placement survived delete")
	}
}

func TestIdempotentCreateNeverDoubleCreates(t *testing.T) {
	w1 := newTestWorker(t, "w1")
	w2 := newTestWorker(t, "w2")
	_, srv := newTestCluster(t, w1, w2)

	hdr := map[string]string{"Idempotency-Key": "client-key-1"}
	ids := make([]string, 0, 10)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, raw := postJSON(t, srv.URL+"/v1/sessions", inlineSession("dup", 1), hdr)
			if res.StatusCode != http.StatusCreated {
				t.Errorf("idempotent create = %d: %s", res.StatusCode, raw)
				return
			}
			var si emud.SessionInfo
			if err := json.Unmarshal(raw, &si); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			ids = append(ids, si.ID)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(ids) != 10 {
		t.Fatalf("%d successful creates, want 10", len(ids))
	}
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("retries returned different IDs: %v", ids)
		}
	}
	if n := w1.m.Count() + w2.m.Count(); n != 1 {
		t.Fatalf("farm holds %d sessions after 10 retried creates, want 1", n)
	}
}

func TestProxyRetriesTransportFaults(t *testing.T) {
	w1 := newTestWorker(t, "w1")
	c, srv := newTestCluster(t, w1)

	// Every forward attempt fails: the create must exhaust its backoff
	// budget and surface a 502, leaving nothing on the worker.
	c.inj.Set("cluster.proxy", faults.Config{Rate: 1})
	res, raw := postJSON(t, srv.URL+"/v1/sessions", inlineSession("r", 1),
		map[string]string{"Idempotency-Key": "retry-key"})
	if res.StatusCode != http.StatusBadGateway {
		t.Fatalf("create under total fault = %d: %s", res.StatusCode, raw)
	}
	if w1.m.Count() != 0 {
		t.Fatalf("worker holds %d sessions after failed create", w1.m.Count())
	}
	if c.proxyRetries.Load() == 0 {
		t.Fatal("no retries recorded under injected transport faults")
	}

	// Heal the path and retry the same key: the failure must have been
	// forgotten (not cached), so this attempt executes and succeeds.
	c.inj.Reset()
	res, raw = postJSON(t, srv.URL+"/v1/sessions", inlineSession("r", 1),
		map[string]string{"Idempotency-Key": "retry-key"})
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create after heal = %d: %s", res.StatusCode, raw)
	}
	if w1.m.Count() != 1 {
		t.Fatalf("worker holds %d sessions, want 1", w1.m.Count())
	}
}

// TestMintedKeysAreNotCached: a key-less create is forwarded under a key
// the coordinator mints, which no client can ever replay, so it must not
// occupy the replay table — while client keys still do.
func TestMintedKeysAreNotCached(t *testing.T) {
	w1 := newTestWorker(t, "w1")
	w2 := newTestWorker(t, "w2")
	c, srv := newTestCluster(t, w1, w2)

	const n = 12
	for i := 0; i < n; i++ {
		res, raw := postJSON(t, srv.URL+"/v1/sessions", inlineSession(fmt.Sprintf("m%d", i), int64(i)), nil)
		if res.StatusCode != http.StatusCreated {
			t.Fatalf("key-less create %d = %d: %s", i, res.StatusCode, raw)
		}
	}
	if got := w1.m.Count() + w2.m.Count(); got != n {
		t.Fatalf("farm holds %d sessions after %d key-less creates", got, n)
	}
	if got := c.idem.Len(); got != 0 {
		t.Fatalf("coordinator holds %d idempotency entries after key-less creates, want 0", got)
	}
	res, raw := postJSON(t, srv.URL+"/v1/sessions", inlineSession("keyed", 99),
		map[string]string{"Idempotency-Key": "client-key"})
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("keyed create = %d: %s", res.StatusCode, raw)
	}
	if got := c.idem.Len(); got != 1 {
		t.Fatalf("coordinator holds %d idempotency entries after one keyed create, want 1", got)
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLeaseSuspectEvictFailover(t *testing.T) {
	w1 := newTestWorker(t, "w1")
	w2 := newTestWorker(t, "w2")
	c, srv := newTestCluster(t, w1, w2)

	// Pick idempotency keys that provably spread across both workers —
	// placement hashes the key, so the test chooses keys whose ring
	// position is known instead of hoping random keys scatter.
	keys := placementKeys(t, c, map[string]int{"w1": 2, "w2": 2})
	ids := make([]string, 0, 4)
	for i, key := range keys {
		res, raw := postJSON(t, srv.URL+"/v1/sessions", inlineSession(fmt.Sprintf("f%d", i), int64(i)),
			map[string]string{"Idempotency-Key": key})
		if res.StatusCode != http.StatusCreated {
			t.Fatalf("create = %d: %s", res.StatusCode, raw)
		}
		var si emud.SessionInfo
		if err := json.Unmarshal(raw, &si); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, si.ID)
	}
	c.Tick() // pull snapshots so the failover cache knows every session

	// Kill w1 (kill -9: the HTTP server vanishes; the manager is simply
	// abandoned, like a dead process).
	w1.srv.Close()
	w1Sessions := make([]string, 0)
	for _, id := range ids {
		if strings.HasPrefix(id, "w1-") {
			w1Sessions = append(w1Sessions, id)
		}
	}
	if len(w1Sessions) == 0 || len(w1Sessions) == len(ids) {
		t.Fatalf("placement did not spread across workers: %v", ids)
	}

	// First missed probe: nothing yet (lastOK is fresh).
	c.Tick()
	if st := c.workerState("w1"); st != WorkerAlive {
		t.Fatalf("w1 = %v right after dying, want alive (hysteresis)", st)
	}
	// Past the suspicion window: no placements, no eviction.
	time.Sleep(200 * time.Millisecond)
	c.Tick()
	if st := c.workerState("w1"); st != WorkerSuspect {
		t.Fatalf("w1 = %v past suspect window, want suspect", st)
	}
	if c.ring.Has("w1") {
		t.Fatal("suspect worker still on the placement ring")
	}
	// Past the eviction window: dead, and its sessions replay on w2 with
	// their exact cursors.
	time.Sleep(250 * time.Millisecond)
	c.Tick()
	if st := c.workerState("w1"); st != WorkerDead {
		t.Fatalf("w1 = %v past evict window, want dead", st)
	}
	waitFor(t, 2*time.Second, "failover to land", func() bool {
		for _, id := range w1Sessions {
			if _, ok := w2.m.Get(id); !ok {
				return false
			}
		}
		return true
	})
	for _, id := range w1Sessions {
		s, _ := w2.m.Get(id)
		if s.State() != emud.StateRunning {
			t.Fatalf("failed-over session %s is %v, want running", id, s.State())
		}
		c.mu.Lock()
		owner := c.place[id]
		c.mu.Unlock()
		if owner != "w2" {
			t.Fatalf("placement for %s is %q after failover", id, owner)
		}
	}
	if c.failedOver.Load() != int64(len(w1Sessions)) {
		t.Fatalf("failed-over counter = %d, want %d", c.failedOver.Load(), len(w1Sessions))
	}
	if c.failoverHist.Count() == 0 {
		t.Fatal("failover histogram saw no observations; the SLO is blind")
	}

	// The aggregate health view: one dead worker of two keeps the
	// cluster ready (availability 0.5 meets the 0.5 target).
	res, err := http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var ch ClusterHealth
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if err := json.Unmarshal(raw, &ch); err != nil {
		t.Fatal(err)
	}
	if !ch.Ready || ch.Workers["w1"] != "dead" || ch.Workers["w2"] != "alive" {
		t.Fatalf("cluster health = %s", raw)
	}

	// The SLO surface must expose failover-time-p99 with samples.
	sres, err := http.Get(srv.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	sraw, _ := io.ReadAll(sres.Body)
	sres.Body.Close()
	if !strings.Contains(string(sraw), "failover-time-p99") {
		t.Fatalf("SLO report lacks failover-time-p99: %s", sraw)
	}
}

// placementKeys finds idempotency keys whose ring placement matches the
// requested per-worker counts, making create spread deterministic.
func placementKeys(t *testing.T, c *Coordinator, want map[string]int) []string {
	t.Helper()
	need := make(map[string]int, len(want))
	for k, v := range want {
		need[k] = v
	}
	keys := make([]string, 0)
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("pk-%d", i)
		m, ok := c.ring.Get(k)
		if !ok {
			t.Fatal("empty ring while picking placement keys")
		}
		if need[m] > 0 {
			need[m]--
			keys = append(keys, k)
		}
		done := true
		for _, n := range need {
			if n > 0 {
				done = false
			}
		}
		if done {
			return keys
		}
	}
	t.Fatalf("could not satisfy placement %v in 10000 candidate keys", want)
	return nil
}

// workerState reads one worker's lease state under the coordinator lock.
func (c *Coordinator) workerState(name string) WorkerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	if w == nil {
		return WorkerDead
	}
	return w.state
}

func TestSuspectRevivesWithHysteresis(t *testing.T) {
	w1 := newTestWorker(t, "w1")
	c, _ := newTestCluster(t, w1)

	// Partition the probe path (the worker itself is healthy).
	c.inj.Set("cluster.probe", faults.Config{Rate: 1})
	time.Sleep(200 * time.Millisecond)
	c.Tick()
	if st := c.workerState("w1"); st != WorkerSuspect {
		t.Fatalf("w1 = %v under partition, want suspect", st)
	}
	// Heal: one good probe is not enough (RevivalProbes = 2)...
	c.inj.Reset()
	c.Tick()
	if st := c.workerState("w1"); st != WorkerSuspect {
		t.Fatalf("w1 = %v after one good probe, want still suspect", st)
	}
	if c.ring.Has("w1") {
		t.Fatal("worker re-entered the ring after a single good probe")
	}
	// ...two are.
	c.Tick()
	if st := c.workerState("w1"); st != WorkerAlive {
		t.Fatalf("w1 = %v after revival streak, want alive", st)
	}
	if !c.ring.Has("w1") {
		t.Fatal("revived worker missing from the placement ring")
	}
}

func TestEvictedWorkerMustReRegister(t *testing.T) {
	w1 := newTestWorker(t, "w1")
	w2 := newTestWorker(t, "w2")
	c, srv := newTestCluster(t, w1, w2)

	c.inj.Set("cluster.probe", faults.Config{Rate: 1})
	time.Sleep(450 * time.Millisecond)
	c.Tick()
	if c.workerState("w1") != WorkerDead || c.workerState("w2") != WorkerDead {
		t.Fatalf("workers = %v/%v past evict window, want dead/dead",
			c.workerState("w1"), c.workerState("w2"))
	}
	c.inj.Reset()

	// Dead is terminal: probes stop, no auto-revival.
	c.Tick()
	c.Tick()
	if st := c.workerState("w1"); st != WorkerDead {
		t.Fatalf("w1 = %v after heal without re-register, want dead", st)
	}
	// With no alive workers the cluster reports unready.
	res, err := http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), "no-alive-workers") {
		t.Fatalf("health with all dead = %d %s", res.StatusCode, raw)
	}

	// Registration brings it back.
	res2, raw2 := postJSON(t, srv.URL+"/v1/cluster/register",
		WorkerSpec{Name: "w1", Addr: w1.srv.URL}, nil)
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("register = %d: %s", res2.StatusCode, raw2)
	}
	if st := c.workerState("w1"); st != WorkerAlive {
		t.Fatalf("w1 = %v after re-register, want alive", st)
	}
	cres, err := http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	cres.Body.Close()
}
