// The cluster coordinator: the control-plane head of a multi-worker emud
// farm. It consistent-hashes sessions across registered workers, probes
// each worker's /v1/health on a heartbeat, and holds a lease state
// machine per worker with hysteresis in both directions: a worker that
// misses probes is suspected (no new placements) before it is evicted
// (sessions failed over), and a suspect must answer several consecutive
// probes before it is trusted again. Eviction replays the dead worker's
// last pulled snapshot onto ring survivors; a planned drain live-migrates
// sessions one at a time via handoff, carrying the replay cursor and the
// drop-lottery draw count so modulation output is byte-identical across
// the move. The coordinator keeps no durable state of its own — if it
// dies, workers keep emulating and a restarted coordinator re-learns the
// farm from registration plus its first snapshot pulls; the only loss is
// placement memory for sessions created before the restart.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tracemod/internal/emud"
	"tracemod/internal/emud/idem"
	"tracemod/internal/faults"
	"tracemod/internal/obs"
)

// Worker lease states. The zero value is Alive so a freshly registered
// worker is placeable immediately; the first missed probes demote it.
type WorkerState int

// The lease state machine: Alive -> Suspect -> Dead on missed probes
// (with Suspect -> Alive revival after RevivalProbes consecutive
// successes), and Alive -> Draining when the worker reports a planned
// shutdown. Dead is terminal: an evicted worker's sessions have already
// been failed over, so it must re-register to rejoin.
const (
	WorkerAlive WorkerState = iota
	WorkerSuspect
	WorkerDraining
	WorkerDead
)

func (s WorkerState) String() string {
	switch s {
	case WorkerAlive:
		return "alive"
	case WorkerSuspect:
		return "suspect"
	case WorkerDraining:
		return "draining"
	case WorkerDead:
		return "dead"
	}
	return fmt.Sprintf("state-%d", int(s))
}

// WorkerSpec names a worker and its base control-plane URL
// (e.g. http://127.0.0.1:7001).
type WorkerSpec struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// Defaults for Options fields left zero.
const (
	DefaultHeartbeatInterval = 1 * time.Second
	DefaultRevivalProbes     = 2
	DefaultFailoverP99       = 5 * time.Second
	DefaultDrainTimeout      = 5 * time.Second
)

// Options configures a Coordinator.
type Options struct {
	// Workers is the initial membership; more can Register later.
	Workers []WorkerSpec

	// HeartbeatInterval is the probe period (default 1s).
	HeartbeatInterval time.Duration
	// SuspectAfter is how long a worker may go unheard before new
	// placements stop (default 3x heartbeat).
	SuspectAfter time.Duration
	// EvictAfter is how long before a silent worker is declared dead and
	// its sessions failed over (default 10x heartbeat). The gap between
	// SuspectAfter and EvictAfter is the hysteresis that keeps a GC pause
	// or transient partition from triggering a full failover.
	EvictAfter time.Duration
	// RevivalProbes is how many consecutive successful probes a suspect
	// needs to be trusted with placements again (default 2).
	RevivalProbes int
	// ProbeTimeout bounds one health probe (default HeartbeatInterval).
	ProbeTimeout time.Duration
	// VirtualNodes per worker on the placement ring (default 64).
	VirtualNodes int
	// DrainTimeout bounds each per-session quiesce during live migration
	// (default 5s).
	DrainTimeout time.Duration
	// FailoverP99 is the failover-time-p99 SLO bound (default 5s).
	FailoverP99 time.Duration

	// Retry shapes coordinator->worker retries (restore, proxy). The
	// idempotency keys the proxy attaches make these safe.
	Retry faults.Backoff

	Faults  *faults.Injector
	Metrics *obs.Registry
	Logger  *slog.Logger
	// Client is the HTTP client for worker calls (default: a dedicated
	// client with sane timeouts).
	Client *http.Client
}

// The coordinator's fault points, all nil-safe no-ops until armed:
// cluster.probe forces heartbeat probes to fail (partition simulation),
// cluster.failover and cluster.migrate stall or mark their paths, and
// cluster.proxy injects transport errors into proxied control calls to
// exercise the retry+idempotency machinery.
var clusterFaultPoints = []string{
	"cluster.probe",
	"cluster.failover",
	"cluster.migrate",
	"cluster.proxy",
}

// worker is one member's lease record.
type worker struct {
	name, addr string
	state      WorkerState
	lastOK     time.Time
	okStreak   int
	// snap is the latest snapshot pulled from the worker; it is what
	// failover replays, so its age bounds how much a crash can lose.
	snap   *emud.FarmSnapshot
	snapAt time.Time
	// migrating guards the drain path against double-starting.
	migrating bool
}

// Coordinator runs the cluster control plane. Create with New, serve
// Handler(), stop with Close.
type Coordinator struct {
	opts   Options
	log    *slog.Logger
	client *http.Client
	inj    *faults.Injector
	ring   *Ring
	mux    *http.ServeMux

	slos         *obs.SLOSet
	failoverHist *obs.Histogram

	stateGauge   *obs.GaugeVec
	sessionGauge *obs.GaugeVec
	probeFails   *obs.CounterVec
	failovers    *obs.Counter
	failedOver   *obs.Counter
	lost         *obs.Counter
	migrated     *obs.Counter
	proxied      *obs.Counter
	proxyRetries *obs.Counter

	mu          sync.Mutex
	workers     map[string]*worker
	place       map[string]string // session ID -> worker name
	streamPlace map[string]string // stream name -> worker name

	idem    *idem.Table[createReply] // client-keyed creates; has its own lock
	idemSeq atomic.Int64

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a coordinator, registers the initial workers, and starts
// the heartbeat loop.
func New(opts Options) *Coordinator {
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = 3 * opts.HeartbeatInterval
	}
	if opts.EvictAfter <= 0 {
		opts.EvictAfter = 10 * opts.HeartbeatInterval
	}
	if opts.EvictAfter < opts.SuspectAfter {
		opts.EvictAfter = opts.SuspectAfter
	}
	if opts.RevivalProbes <= 0 {
		opts.RevivalProbes = DefaultRevivalProbes
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = opts.HeartbeatInterval
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = DefaultDrainTimeout
	}
	if opts.FailoverP99 <= 0 {
		opts.FailoverP99 = DefaultFailoverP99
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	c := &Coordinator{
		opts:        opts,
		log:         opts.Logger.With("comp", "cluster"),
		client:      opts.Client,
		inj:         opts.Faults,
		ring:        NewRing(opts.VirtualNodes),
		workers:     make(map[string]*worker),
		place:       make(map[string]string),
		streamPlace: make(map[string]string),
		idem:        idem.New[createReply](nil),
		done:        make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{Timeout: 60 * time.Second}
	}
	for _, name := range clusterFaultPoints {
		c.inj.Point(name)
	}
	reg := opts.Metrics
	c.failoverHist = reg.Histogram("tracemod_cluster_failover_seconds",
		"Per-session failover latency: eviction decision to restored on a survivor.",
		nil)
	c.stateGauge = reg.GaugeVec("tracemod_cluster_worker_state",
		"Worker lease state (0 alive, 1 suspect, 2 draining, 3 dead).", "worker")
	c.sessionGauge = reg.GaugeVec("tracemod_cluster_worker_sessions",
		"Sessions in the worker's last pulled snapshot.", "worker")
	c.probeFails = reg.CounterVec("tracemod_cluster_probe_failures_total",
		"Heartbeat probes that got no HTTP response.", "worker")
	c.failovers = reg.Counter("tracemod_cluster_failovers_total",
		"Workers evicted and failed over.")
	c.failedOver = reg.Counter("tracemod_cluster_sessions_failed_over_total",
		"Sessions replayed onto a survivor after a worker death.")
	c.lost = reg.Counter("tracemod_cluster_sessions_lost_total",
		"Sessions that could not be recovered during failover (no snapshot or no survivor).")
	c.migrated = reg.Counter("tracemod_cluster_sessions_migrated_total",
		"Sessions live-migrated off a draining worker.")
	c.proxied = reg.Counter("tracemod_cluster_proxied_requests_total",
		"Control-plane requests forwarded to workers.")
	c.proxyRetries = reg.Counter("tracemod_cluster_proxy_retries_total",
		"Proxied requests retried after a transport error.")

	c.slos = obs.NewSLOSet()
	c.slos.Add(&obs.SLO{
		Name:      "failover-time-p99",
		Help:      "99th percentile of per-session failover latency.",
		Kind:      obs.SLOQuantile,
		Hist:      c.failoverHist,
		Quantile:  0.99,
		Threshold: opts.FailoverP99,
	})
	c.slos.Add(&obs.SLO{
		Name:     "worker-availability",
		Help:     "At least half the registered, non-retired workers hold an alive lease.",
		Kind:     obs.SLORatio,
		Critical: true,
		Target:   0.5,
		Ratio:    c.availabilityRatio,
	})

	for _, ws := range opts.Workers {
		c.register(ws.Name, ws.Addr)
	}
	c.mux = c.buildMux()
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c
}

// Close stops the heartbeat loop and waits for in-flight failover or
// migration goroutines.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.done) })
	c.wg.Wait()
}

// Register adds (or re-adds) a worker with an alive lease. A worker
// evicted as dead must come back through here; re-registering an alive
// worker just updates its address.
func (c *Coordinator) Register(name, addr string) error {
	if name == "" || addr == "" {
		return fmt.Errorf("cluster: register needs name and addr")
	}
	c.register(name, addr)
	return nil
}

func (c *Coordinator) register(name, addr string) {
	c.mu.Lock()
	w := c.workers[name]
	if w == nil {
		w = &worker{name: name}
		c.workers[name] = w
	}
	w.addr = addr
	w.state = WorkerAlive
	w.lastOK = time.Now()
	w.okStreak = 0
	w.migrating = false
	c.ring.Add(name)
	c.stateGauge.With(name).Set(int64(WorkerAlive))
	c.mu.Unlock()
	c.log.Info("worker registered", "worker", name, "addr", addr)
}

// WorkerInfo is one worker's lease as reported by /v1/cluster.
type WorkerInfo struct {
	Name  string `json:"name"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	// LastOKSec is seconds since the last successful probe.
	LastOKSec float64 `json:"last_ok_sec"`
	// SnapshotSessions / SnapshotAgeSec describe the cached failover
	// snapshot (what would be replayed if the worker died now).
	SnapshotSessions int     `json:"snapshot_sessions"`
	SnapshotAgeSec   float64 `json:"snapshot_age_sec,omitempty"`
	// Placed is how many sessions the placement map pins to this worker.
	Placed int `json:"placed_sessions"`
}

// Workers reports every known worker's lease.
func (c *Coordinator) Workers() []WorkerInfo {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	placed := make(map[string]int, len(c.workers))
	for _, wn := range c.place {
		placed[wn]++
	}
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		wi := WorkerInfo{
			Name:      w.name,
			Addr:      w.addr,
			State:     w.state.String(),
			LastOKSec: now.Sub(w.lastOK).Seconds(),
			Placed:    placed[w.name],
		}
		if w.snap != nil {
			wi.SnapshotSessions = len(w.snap.Sessions)
			wi.SnapshotAgeSec = now.Sub(w.snapAt).Seconds()
		}
		out = append(out, wi)
	}
	sortWorkerInfos(out)
	return out
}

func sortWorkerInfos(ws []WorkerInfo) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Name < ws[j-1].Name; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

// availabilityRatio is the worker-availability SLO indicator: alive
// leases over registered workers, dead ones included — a dead worker
// drags availability until an operator replaces it or re-registers it.
func (c *Coordinator) availabilityRatio() (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.workers) == 0 {
		return 0, false
	}
	alive := 0
	for _, w := range c.workers {
		if w.state == WorkerAlive {
			alive++
		}
	}
	return float64(alive) / float64(len(c.workers)), true
}

func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.Tick()
		}
	}
}

// Tick runs one heartbeat round: probe every non-dead worker
// concurrently, then fold the results into the lease state machine.
// Exported so tests can drive the clock deterministically.
func (c *Coordinator) Tick() {
	c.mu.Lock()
	targets := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		if w.state != WorkerDead {
			targets = append(targets, w)
		}
	}
	c.mu.Unlock()

	type result struct {
		name     string
		ok       bool
		draining bool
		snap     *emud.FarmSnapshot
	}
	results := make([]result, len(targets))
	var wg sync.WaitGroup
	for i, w := range targets {
		wg.Add(1)
		go func(i int, name, addr string) {
			defer wg.Done()
			ok, draining, snap := c.probe(name, addr)
			results[i] = result{name: name, ok: ok, draining: draining, snap: snap}
		}(i, w.name, w.addr)
	}
	wg.Wait()
	for _, r := range results {
		c.noteProbe(r.name, r.ok, r.draining, r.snap)
	}
}

// probe asks one worker for its health and, when it answers, pulls its
// snapshot so the failover cache stays fresh. Any HTTP response — even a
// 503 from an overloaded or draining farm — counts as alive; only a
// transport failure counts as a missed heartbeat. The cluster.probe
// fault point simulates a partition by failing the probe outright.
func (c *Coordinator) probe(name, addr string) (ok, draining bool, snap *emud.FarmSnapshot) {
	if pt := c.inj.Point("cluster.probe"); pt != nil && pt.Fire() {
		pt.Stall()
		return false, false, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/health", nil)
	if err != nil {
		return false, false, nil
	}
	res, err := c.client.Do(req)
	if err != nil {
		c.probeFails.With(name).Inc()
		return false, false, nil
	}
	var hi emud.HealthInfo
	derr := json.NewDecoder(io.LimitReader(res.Body, 1<<20)).Decode(&hi)
	res.Body.Close()
	if derr == nil {
		draining = hi.Draining || hi.Status == "draining"
	}
	snap = c.pullSnapshot(ctx, addr)
	return true, draining, snap
}

func (c *Coordinator) pullSnapshot(ctx context.Context, addr string) *emud.FarmSnapshot {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/snapshot", nil)
	if err != nil {
		return nil
	}
	res, err := c.client.Do(req)
	if err != nil {
		return nil
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil
	}
	var snap emud.FarmSnapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		return nil
	}
	return &snap
}

// noteProbe folds one probe result into the lease state machine.
func (c *Coordinator) noteProbe(name string, ok, draining bool, snap *emud.FarmSnapshot) {
	now := time.Now()
	var evict, migrate bool
	c.mu.Lock()
	w := c.workers[name]
	if w == nil || w.state == WorkerDead {
		c.mu.Unlock()
		return
	}
	if ok {
		if snap != nil {
			w.snap, w.snapAt = snap, now
			c.sessionGauge.With(name).Set(int64(len(snap.Sessions)))
		}
		w.lastOK = now
		w.okStreak++
		switch {
		case draining && w.state != WorkerDraining:
			w.state = WorkerDraining
			c.ring.Remove(name)
			migrate = true
		case !draining && w.state == WorkerSuspect && w.okStreak >= c.opts.RevivalProbes:
			w.state = WorkerAlive
			c.ring.Add(name)
			c.log.Info("worker revived", "worker", name, "streak", w.okStreak)
		case !draining && w.state == WorkerDraining:
			// The process came back without the draining flag — it was
			// restarted fresh. Trust it again.
			w.state = WorkerAlive
			w.migrating = false
			c.ring.Add(name)
			c.log.Info("worker back from drain", "worker", name)
		}
	} else {
		w.okStreak = 0
		silent := now.Sub(w.lastOK)
		switch {
		case silent >= c.opts.EvictAfter:
			w.state = WorkerDead
			c.ring.Remove(name)
			evict = true
		case silent >= c.opts.SuspectAfter && w.state == WorkerAlive:
			w.state = WorkerSuspect
			c.ring.Remove(name)
			c.log.Warn("worker suspected", "worker", name, "silent", silent)
		}
	}
	c.stateGauge.With(name).Set(int64(w.state))
	c.mu.Unlock()

	if evict {
		c.log.Error("worker evicted", "worker", name)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.failoverWorker(name)
		}()
	}
	if migrate {
		c.log.Info("worker draining: migrating sessions", "worker", name)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.migrateWorker(name)
		}()
	}
}

// singleSnapshot carves session i (and the trace it references) out of a
// farm snapshot so it can be restored alone on another worker. The full
// slice expression caps the sub-snapshot at its one session, so an append
// to it can never overwrite the next session in the cached snapshot.
func singleSnapshot(snap *emud.FarmSnapshot, i int) *emud.FarmSnapshot {
	ref := snap.Sessions[i].TraceRef
	sub := &emud.FarmSnapshot{
		TakenUnixNano: snap.TakenUnixNano,
		Traces:        make(map[string][]emud.TupleJSON, 1),
		Sessions:      snap.Sessions[i : i+1 : i+1],
	}
	if t, ok := snap.Traces[ref]; ok {
		sub.Traces[ref] = t
	}
	return sub
}

// failoverWorker replays a dead worker's cached snapshot onto ring
// survivors, one session at a time, observing per-session latency into
// the failover-time-p99 SLO. Sessions the cache never saw (created after
// the last pull, or the cache is empty) are lost and counted as such;
// sessions whose state restores but cannot run (live streams whose WAL
// died with the worker) park on the survivor with a typed error rather
// than vanishing.
func (c *Coordinator) failoverWorker(name string) {
	if pt := c.inj.Point("cluster.failover"); pt != nil {
		pt.Mark()
		pt.Stall()
	}
	c.failovers.Inc()

	c.mu.Lock()
	var snap *emud.FarmSnapshot
	if w := c.workers[name]; w != nil {
		snap = w.snap
	}
	inSnap := make(map[string]bool)
	if snap != nil {
		for _, ss := range snap.Sessions {
			inSnap[ss.ID] = true
		}
	}
	// Sessions placed here that the cache never saw are lost: forget them.
	lost := 0
	for id, wn := range c.place {
		if wn == name && !inSnap[id] {
			delete(c.place, id)
			lost++
		}
	}
	// The dead worker's streams are gone with its WAL directory; drop
	// their placements so routes 404 instead of 502-ing forever.
	lostStreams := 0
	for sn, wn := range c.streamPlace {
		if wn == name {
			delete(c.streamPlace, sn)
			lostStreams++
		}
	}
	c.mu.Unlock()

	moved := 0
	if snap != nil {
		for i, ss := range snap.Sessions {
			began := time.Now()
			if target, err := c.land(ss.ID, singleSnapshot(snap, i)); err != nil {
				c.log.Error("failover restore failed", "session", ss.ID, "target", target, "err", err)
				lost++
				continue
			}
			moved++
			c.failoverHist.Observe(time.Since(began))
		}
	}
	c.failedOver.Add(int64(moved))
	c.lost.Add(int64(lost))
	c.log.Info("failover complete", "worker", name,
		"moved", moved, "lost", lost, "streams_lost", lostStreams)
}

// errNoSurvivor is land's refusal when the ring has no member left.
var errNoSurvivor = errors.New("cluster: no survivor on the ring")

// land is the one step that places a moved session: it restores snap on
// the session's ring owner and records the placement, or forgets the
// placement on any failure, so placed_sessions never counts a session
// that exists on no worker. Failover and migration both land through it.
func (c *Coordinator) land(id string, snap *emud.FarmSnapshot) (target string, err error) {
	target, addr, ok := c.pickAlive(id)
	if !ok {
		err = errNoSurvivor
	} else {
		err = c.postRestore(addr, snap)
	}
	c.mu.Lock()
	if err == nil {
		c.place[id] = target
	} else {
		delete(c.place, id)
	}
	c.mu.Unlock()
	return target, err
}

// pickAlive places key on the ring and resolves the member's address.
func (c *Coordinator) pickAlive(key string) (name, addr string, ok bool) {
	name, ok = c.ring.Get(key)
	if !ok {
		return "", "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	if w == nil {
		return "", "", false
	}
	return name, w.addr, true
}

// postRestore POSTs a snapshot to a worker's /v1/restore with retries.
// A parked session (RestoreResult.Error set but Restored > 0) counts as
// success: the session exists on the target with a typed error, which is
// the designed degraded outcome for unrecoverable state.
func (c *Coordinator) postRestore(addr string, snap *emud.FarmSnapshot) error {
	body, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	return c.opts.Retry.Do(func() error {
		res, err := c.client.Post(addr+"/v1/restore", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer res.Body.Close()
		var rr emud.RestoreResult
		_ = json.NewDecoder(io.LimitReader(res.Body, 1<<20)).Decode(&rr)
		if rr.Restored == 0 {
			return faults.Permanent(fmt.Errorf("restore rejected (%d): %s", res.StatusCode, rr.Error))
		}
		return nil
	})
}

// DrainWorker live-migrates every session off a worker: tell the worker
// to stop admitting (POST /v1/drain), then hand each session off —
// quiesce, snapshot with cursor and draw count, delete — and restore it
// on a ring survivor. Because the handoff carries both the tuple cursor
// (SkipTuples) and the lottery position (SkipDraws), the migrated
// session's modulation decisions continue exactly where the source
// stopped: byte-identical to never having moved. Live stream-fed
// sessions cannot move (their WAL is the worker's) and are skipped.
func (c *Coordinator) DrainWorker(name string) (moved, skipped int, err error) {
	c.mu.Lock()
	w := c.workers[name]
	if w == nil {
		c.mu.Unlock()
		return 0, 0, fmt.Errorf("cluster: unknown worker %q", name)
	}
	if w.state == WorkerDead {
		c.mu.Unlock()
		return 0, 0, fmt.Errorf("cluster: worker %q is dead", name)
	}
	addr := w.addr
	if w.state != WorkerDraining {
		w.state = WorkerDraining
		c.ring.Remove(name)
		c.stateGauge.With(name).Set(int64(WorkerDraining))
	}
	c.mu.Unlock()

	// Flip the worker's admission gate first so nothing lands behind the
	// migration sweep.
	err = c.opts.Retry.Do(func() error {
		res, derr := c.client.Post(addr+"/v1/drain", "application/json", nil)
		if derr != nil {
			return derr
		}
		res.Body.Close()
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: drain %s: %w", name, err)
	}
	return c.migrateWorker(name)
}

// migrateWorker moves every migratable session off an already-draining
// worker. Also triggered asynchronously when a probe discovers the
// worker drains itself (SIGTERM path).
func (c *Coordinator) migrateWorker(name string) (moved, skipped int, err error) {
	c.mu.Lock()
	w := c.workers[name]
	if w == nil {
		c.mu.Unlock()
		return 0, 0, fmt.Errorf("cluster: unknown worker %q", name)
	}
	if w.migrating {
		c.mu.Unlock()
		return 0, 0, nil
	}
	w.migrating = true
	addr := w.addr
	c.mu.Unlock()

	if pt := c.inj.Point("cluster.migrate"); pt != nil {
		pt.Mark()
		pt.Stall()
	}

	var infos []emud.SessionInfo
	err = c.opts.Retry.Do(func() error {
		res, gerr := c.client.Get(addr + "/v1/sessions")
		if gerr != nil {
			return gerr
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			return faults.Permanent(fmt.Errorf("list sessions: HTTP %d", res.StatusCode))
		}
		return json.NewDecoder(res.Body).Decode(&infos)
	})
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: migrate %s: %w", name, err)
	}

	drain := c.opts.DrainTimeout
	for _, si := range infos {
		if si.Live {
			// A stream-fed session's trace source is the worker's WAL;
			// it cannot hand off. It stays until the worker exits, then
			// parks via the failover path if the stream is gone.
			skipped++
			continue
		}
		snap, herr := c.handoffSession(addr, si.ID, drain)
		if herr != nil {
			c.log.Warn("handoff refused", "session", si.ID, "err", herr)
			skipped++
			continue
		}
		target, lerr := c.land(si.ID, snap)
		if lerr != nil {
			// The session has already been quiesced and deleted from the
			// source, so its state lived only in this snapshot. Count it
			// lost.
			c.lost.Inc()
			c.log.Error("migration restore failed; session lost", "session", si.ID, "target", target, "err", lerr)
			continue
		}
		moved++
		c.migrated.Inc()
		c.log.Info("session migrated", "session", si.ID, "from", name, "to", target)
	}
	return moved, skipped, nil
}

// handoffSession quiesces one session on the source worker and returns
// its single-session snapshot (cursor and draw count included).
func (c *Coordinator) handoffSession(addr, id string, drain time.Duration) (*emud.FarmSnapshot, error) {
	var snap emud.FarmSnapshot
	err := c.opts.Retry.Do(func() error {
		url := fmt.Sprintf("%s/v1/sessions/%s/handoff?drain=%s", addr, id, drain)
		res, err := c.client.Post(url, "application/json", nil)
		if err != nil {
			return err
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(res.Body, 4096))
			return faults.Permanent(fmt.Errorf("handoff HTTP %d: %s", res.StatusCode, b))
		}
		return json.NewDecoder(res.Body).Decode(&snap)
	})
	if err != nil {
		return nil, err
	}
	return &snap, nil
}
