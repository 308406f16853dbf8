// Command emud runs the multi-tenant emulation daemon: a farm of
// trace-modulated sessions behind an HTTP/JSON control plane. Each session
// is one emulated mobile link — a modulation engine replaying a
// network-quality trace — and can front live UDP traffic through an
// attached relay. All sessions share one sharded timer wheel and one trace
// store.
//
// Usage:
//
//	emud [-listen :8091] [-shards 4] [-granularity 10ms] [-tick 10ms]
//	     [-pump-shards 0]
//	     [-max-sessions 4096] [-idle-timeout 0] [-drain-timeout 5s]
//	     [-trace-cache 64]
//	     [-max-session-inflight 0] [-max-inflight-bytes 0]
//	     [-snapshot PATH] [-snapshot-interval 10s] [-recover]
//	     [-wal-dir PATH] [-wal-sync always|interval|none] [-wal-segment 8388608]
//	     [-stream-idle-timeout 0] [-stream-quota 0]
//	     [-spill-dir PATH] [-mem-high 0] [-pinned-budget 0]
//	     [-faults] [-fault-seed 0]
//	     [-trace-sample 0] [-flight 256]
//	     [-log-level info] [-log-format text]
//	     [-role worker -name w1 -coordinator http://coord:8090 [-advertise URL]]
//
//	emud -role coordinator [-listen :8090]
//	     [-workers w1=http://h1:8091,w2=http://h2:8091]
//	     [-heartbeat 1s] [-suspect-after 3s] [-evict-after 10s]
//	     [-revival-probes 2] [-failover-p99 5s] [-vnodes 64]
//	     [-faults] [-fault-seed 0] [-log-level info] [-log-format text]
//
// With -role coordinator the process runs no sessions of its own.
// Instead it consistent-hashes session and stream creation across the
// registered workers, proxies the /v1/sessions and /v1/streams control
// plane (idempotency keys make client retries safe), heartbeats every
// worker's /v1/health, and pulls /v1/snapshot on each healthy probe.
// A worker silent past -suspect-after stops receiving new placements; one
// silent past -evict-after is declared dead and its sessions are replayed
// from the last pulled snapshot onto the survivors, cursor-exact. A
// worker whose health reports draining (SIGTERM, or POST
// /v1/cluster/workers/{name}/drain) is live-migrated instead: each
// session is handed off with its replay cursor and drop-lottery position,
// so its modulation output is byte-identical to never having moved.
// GET /v1/farm aggregates the farm; GET /v1/cluster shows leases.
//
// With -role worker the daemon is a normal single-node emud whose
// session IDs are prefixed by -name, and which registers itself with
// -coordinator on startup. On SIGTERM it begins draining (health turns
// 503 "draining") and keeps serving until the coordinator has migrated
// its sessions away or -drain-timeout passes — a rolling restart loses
// nothing.
//
// The control plane:
//
//	POST   /v1/sessions           create (and by default start) a session
//	GET    /v1/sessions           list sessions
//	GET    /v1/sessions/{id}      inspect one session
//	POST   /v1/sessions/{id}/start
//	POST   /v1/sessions/{id}/stop[?drain=2s]
//	DELETE /v1/sessions/{id}      stop and remove
//	GET    /v1/sessions/{id}/flight  per-session flight-recorder span dump
//	POST   /v1/streams?name=N     live-ingest a collected trace (chunked body,
//	                              tracefmt framing); distilled incrementally,
//	                              sessions can attach mid-upload via {"stream":N};
//	                              resumable=true keeps it open across drops
//	GET    /v1/streams            list live-ingest streams
//	GET    /v1/streams/{name}     inspect one stream (state, lag, tuples)
//	PATCH  /v1/streams/{name}     resume an interrupted upload at Upload-Offset
//	                              (Stream-Token auth; ?complete=true seals)
//	GET    /v1/streams/{name}/offset  committed and durable resume offsets
//	DELETE /v1/streams/{name}     abort/remove a stream (attached sessions keep
//	                              their trace)
//	GET    /v1/farm               farm-wide summary
//	GET    /v1/slo                SLO evaluation (objectives + worst sessions)
//	GET    /v1/health             readiness score (503 when a critical SLO fails)
//	GET    /v1/faults             fault-injection points (with -faults)
//	POST   /v1/faults             arm a point: {"name":..,"rate":..,"delay_ms":..}
//	DELETE /v1/faults             disarm every point
//	GET    /metrics               Prometheus-style export (per-session labels)
//
// With -trace-sample R (e.g. 0.01) the daemon samples end-to-end spans for
// roughly one packet in 1/R across the whole journey — HTTP handler,
// session manager, timer wheel, modulation engine — and keeps
// the last -flight spans per session in a lock-free flight recorder,
// dumped via the control plane and on panic quarantine. The control plane
// honors and emits W3C `traceparent` headers, so external callers can
// stitch daemon spans into their own traces.
//
// Live ingest closes the paper's collect→distill→emulate loop without an
// intermediate file: POST a collected trace to /v1/streams as it is being
// captured and the daemon distills it on the fly (window by window), so a
// session created with {"stream": "name"} starts modulating against the
// growing replay trace before the upload finishes. Distillation lag is
// bounded by the freeze rule and observable as the stream-distill-lag-p99
// objective on /v1/slo.
//
// With -snapshot the daemon periodically writes a crash-recovery file of
// every live session's spec and replay cursor; after a crash, restarting
// with -recover restores those sessions (same IDs, cursors
// fast-forwarded) before the control plane accepts traffic.
//
// With -wal-dir every stream chunk is appended to a per-stream
// write-ahead log before it is interpreted, so -recover also replays the
// WALs: live traces come back at their last durable offset, resumable
// uploads pick up where the fsynced prefix ends, and snapshot-restored
// sessions rebind to their recovered streams (streams are recovered
// first for exactly that reason). -wal-sync trades durability for
// throughput: "always" fsyncs every chunk, "interval" batches fsyncs,
// "none" leaves flushing to the OS.
//
// Under memory pressure (-mem-high heap bytes, -pinned-budget ingest
// bytes) the daemon browns out in stages instead of dying: span sampling
// stops, new streams get 429 + Retry-After, sealed live traces spill to
// -spill-dir, and finally live-edge reads pause. The current rung is on
// /v1/health as "pressure", and past reject-streams the critical
// ingest-brownout SLO flips readiness to 503.
//
// SIGINT/SIGTERM drain every session gracefully before exit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tracemod/internal/emud"
	"tracemod/internal/emud/cluster"
	"tracemod/internal/emud/wal"
	"tracemod/internal/faults"
	"tracemod/internal/obs"
	"tracemod/internal/obs/span"
)

// newLogger builds the daemon's structured logger from the -log-level and
// -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("emud: bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("emud: bad -log-format %q (want text or json)", format)
	}
}

func main() {
	listen := flag.String("listen", ":8091", "control-plane listen address")
	shards := flag.Int("shards", 0, "timer-wheel shards (0 = default)")
	granularity := flag.Duration("granularity", 0, "timer-wheel coalescing tick (0 = paper's 10ms; negative = exact)")
	maxSessions := flag.Int("max-sessions", emud.DefaultMaxSessions, "maximum concurrent sessions")
	idleTimeout := flag.Duration("idle-timeout", 0, "expire sessions idle this long (0 = never)")
	drainTimeout := flag.Duration("drain-timeout", emud.DefaultDrainTimeout, "graceful-drain bound on shutdown")
	traceCache := flag.Int("trace-cache", emud.DefaultStoreCapacity, "trace-store LRU capacity")
	strictTraces := flag.Bool("strict-traces", false, "refuse damaged or dirty trace files instead of salvaging them")
	pumpShards := flag.Int("pump-shards", 0, "relay data-plane event loops (0 = GOMAXPROCS; negative disables sharding)")
	maxInflight := flag.Int("max-session-inflight", 0, "per-session in-flight packet cap (0 = unlimited)")
	maxBytes := flag.Int64("max-inflight-bytes", 0, "farm-wide in-flight byte budget (0 = unlimited)")
	snapshotPath := flag.String("snapshot", "", "crash-recovery snapshot file (empty disables)")
	snapshotEvery := flag.Duration("snapshot-interval", emud.DefaultSnapshotInterval, "periodic snapshot cadence")
	doRecover := flag.Bool("recover", false, "restore streams from -wal-dir and sessions from the -snapshot file on startup")
	walDir := flag.String("wal-dir", "", "per-stream write-ahead log directory (empty disables stream durability)")
	walSyncFlag := flag.String("wal-sync", "always", "WAL fsync policy: always, interval, or none")
	walSegment := flag.Int64("wal-segment", 0, "WAL segment rotation size in bytes (0 = default)")
	streamIdle := flag.Duration("stream-idle-timeout", 0, "seal receiving streams idle this long (0 = never)")
	streamQuota := flag.Int64("stream-quota", 0, "per-stream upload byte cap (0 = unlimited)")
	spillDir := flag.String("spill-dir", "", "directory for spilled sealed live traces under memory pressure")
	memHigh := flag.Int64("mem-high", 0, "heap bytes where brownout shedding starts (0 disables)")
	pinnedBudget := flag.Int64("pinned-budget", 0, "live-ingest pinned byte budget before brownout (0 disables)")
	enableFaults := flag.Bool("faults", false, "enable the fault-injection control plane (/v1/faults)")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the fault injector's deterministic streams")
	traceSample := flag.Float64("trace-sample", 0, "span sampling rate in [0,1] (0 disables tracing; 1 traces everything)")
	flightCap := flag.Int("flight", span.DefaultFlightCapacity, "per-session flight-recorder span capacity")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	role := flag.String("role", "", `cluster role: "" (standalone), "worker", or "coordinator"`)
	workerName := flag.String("name", "", "worker: cluster name (prefixes session IDs; required with -role worker)")
	coordURL := flag.String("coordinator", "", "worker: coordinator base URL to register with (e.g. http://coord:8090)")
	advertise := flag.String("advertise", "", "worker: URL the coordinator reaches this worker at (default http://<listen>)")
	workersFlag := flag.String("workers", "", "coordinator: static worker set, name=url[,name=url...]")
	heartbeat := flag.Duration("heartbeat", cluster.DefaultHeartbeatInterval, "coordinator: heartbeat probe interval")
	suspectAfter := flag.Duration("suspect-after", 0, "coordinator: silence before a worker is suspected (0 = 3x heartbeat)")
	evictAfter := flag.Duration("evict-after", 0, "coordinator: silence before a worker is evicted and failed over (0 = 10x heartbeat)")
	revivalProbes := flag.Int("revival-probes", cluster.DefaultRevivalProbes, "coordinator: consecutive good probes a suspect needs to revive")
	failoverP99 := flag.Duration("failover-p99", cluster.DefaultFailoverP99, "coordinator: failover-time-p99 SLO threshold")
	vnodes := flag.Int("vnodes", 0, "coordinator: virtual nodes per worker on the placement ring (0 = default)")
	flag.Parse()

	log, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch *role {
	case "", "worker":
		if *role == "worker" && *workerName == "" {
			log.Error("-role worker requires -name")
			os.Exit(2)
		}
	case "coordinator":
		runCoordinator(log, coordinatorConfig{
			listen:        *listen,
			workers:       *workersFlag,
			heartbeat:     *heartbeat,
			suspectAfter:  *suspectAfter,
			evictAfter:    *evictAfter,
			revivalProbes: *revivalProbes,
			drainTimeout:  *drainTimeout,
			failoverP99:   *failoverP99,
			vnodes:        *vnodes,
			enableFaults:  *enableFaults,
			faultSeed:     *faultSeed,
		})
		return
	default:
		log.Error("bad -role (want \"\", worker, or coordinator)", "role", *role)
		os.Exit(2)
	}
	walSync, err := wal.ParseSyncPolicy(*walSyncFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	var inj *faults.Injector
	if *enableFaults {
		inj = faults.New(faults.Options{Seed: *faultSeed, Metrics: reg})
	}
	var spans *span.Tracer
	if *traceSample > 0 {
		spans = span.New(span.Config{Sample: *traceSample, Metrics: reg})
	}

	prefix := ""
	if *workerName != "" {
		prefix = *workerName + "-"
	}
	m := emud.NewManager(emud.Options{
		SessionIDPrefix:       prefix,
		Shards:                *shards,
		Granularity:           *granularity,
		MaxSessions:           *maxSessions,
		IdleTimeout:           *idleTimeout,
		DrainTimeout:          *drainTimeout,
		PumpShards:            *pumpShards,
		MaxSessionInFlight:    *maxInflight,
		MaxInFlightBytes:      *maxBytes,
		Store:                 emud.NewStore(emud.StoreOptions{Capacity: *traceCache, Metrics: reg, Faults: inj, StrictTraces: *strictTraces}),
		Faults:                inj,
		SnapshotPath:          *snapshotPath,
		SnapshotInterval:      *snapshotEvery,
		StreamWALDir:          *walDir,
		StreamWALSync:         walSync,
		StreamWALSegmentBytes: *walSegment,
		StreamIdleTimeout:     *streamIdle,
		StreamQuotaBytes:      *streamQuota,
		SpillDir:              *spillDir,
		HeapHighWater:         *memHigh,
		PinnedBudget:          *pinnedBudget,
		Metrics:               reg,
		Spans:                 spans,
		FlightSpans:           *flightCap,
		Logger:                log,
	})

	if *doRecover {
		if *snapshotPath == "" && *walDir == "" {
			log.Error("-recover requires -snapshot and/or -wal-dir")
			os.Exit(1)
		}
		// Streams first: snapshot-restored sessions rebind to live traces
		// by stream name, so the store must know them before m.Recover.
		if *walDir != "" {
			n, err := m.Streams().Recover()
			if err != nil {
				log.Error("stream recovery incomplete", "err", err, "recovered", n)
			} else if n > 0 {
				log.Info("recovered streams from WAL", "streams", n, "dir", *walDir)
			}
		}
		if *snapshotPath != "" {
			n, err := m.Recover(*snapshotPath)
			if err != nil {
				log.Error("recovery failed", "err", err, "restored", n)
			} else if n > 0 {
				log.Info("recovered sessions from snapshot", "sessions", n, "path", *snapshotPath)
			}
		}
	}

	srv, err := emud.NewAPI(m, reg).Serve(*listen)
	if err != nil {
		log.Error("control listener failed", "err", err)
		os.Exit(1)
	}
	log.Info("control plane up",
		"addr", srv.Addr(),
		"shards", m.Wheel().Shards(),
		"granularity", m.Wheel().Granularity(),
		"max_sessions", *maxSessions,
		"trace_sample", *traceSample,
		"role", *role)

	clustered := *role == "worker" && *coordURL != ""
	if clustered {
		self := *advertise
		if self == "" {
			self = "http://" + srv.Addr()
		}
		if err := registerWithCoordinator(*coordURL, *workerName, self); err != nil {
			log.Error("registration with coordinator failed", "coordinator", *coordURL, "err", err)
			_ = srv.Close()
			m.Close()
			os.Exit(1)
		}
		log.Info("registered with coordinator", "coordinator", *coordURL, "name", *workerName, "advertise", self)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Info("draining on signal", "signal", s.String(), "sessions", m.Count(), "timeout", *drainTimeout)
	start := time.Now()
	if clustered {
		// Flip health to "draining" but keep serving: the coordinator's
		// next probe sees it and live-migrates our sessions away. Tear the
		// listener down only once the farm is empty or the bound expires.
		m.BeginDrain()
		deadline := time.Now().Add(*drainTimeout)
		for m.Count() > 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
		if n := m.Count(); n > 0 {
			log.Warn("drain bound expired with sessions still local", "sessions", n)
		} else {
			log.Info("all sessions migrated off")
		}
	}
	_ = srv.Close()
	m.Close()
	log.Info("drained", "took", time.Since(start).Round(time.Millisecond))
}

// registerWithCoordinator announces this worker to the coordinator's
// control plane, retrying while the coordinator is still coming up.
func registerWithCoordinator(coord, name, addr string) error {
	body, err := json.Marshal(cluster.WorkerSpec{Name: name, Addr: addr})
	if err != nil {
		return err
	}
	bo := faults.Backoff{Attempts: 10, Base: 200 * time.Millisecond, Max: 2 * time.Second}
	return bo.Do(func() error {
		res, err := http.Post(strings.TrimSuffix(coord, "/")+"/v1/cluster/register",
			"application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer res.Body.Close()
		if res.StatusCode >= 300 {
			return fmt.Errorf("register: coordinator said %d", res.StatusCode)
		}
		return nil
	})
}

// coordinatorConfig is the flag subset the coordinator role consumes.
type coordinatorConfig struct {
	listen        string
	workers       string
	heartbeat     time.Duration
	suspectAfter  time.Duration
	evictAfter    time.Duration
	revivalProbes int
	drainTimeout  time.Duration
	failoverP99   time.Duration
	vnodes        int
	enableFaults  bool
	faultSeed     int64
}

// runCoordinator runs the cluster control plane: no sessions of its own,
// just placement, health leases, failover, and the aggregated proxy.
func runCoordinator(log *slog.Logger, cfg coordinatorConfig) {
	specs, err := parseWorkers(cfg.workers)
	if err != nil {
		log.Error("bad -workers", "err", err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	var inj *faults.Injector
	if cfg.enableFaults {
		inj = faults.New(faults.Options{Seed: cfg.faultSeed, Metrics: reg})
	} else {
		inj = faults.New(faults.Options{Seed: cfg.faultSeed})
	}
	c := cluster.New(cluster.Options{
		Workers:           specs,
		HeartbeatInterval: cfg.heartbeat,
		SuspectAfter:      cfg.suspectAfter,
		EvictAfter:        cfg.evictAfter,
		RevivalProbes:     cfg.revivalProbes,
		DrainTimeout:      cfg.drainTimeout,
		FailoverP99:       cfg.failoverP99,
		VirtualNodes:      cfg.vnodes,
		Retry:             faults.Backoff{Attempts: 4, Base: 50 * time.Millisecond, Max: time.Second},
		Faults:            inj,
		Metrics:           reg,
		Logger:            log,
	})

	// The cluster routes plus the obs surface (/metrics, /debug/pprof)
	// on one listener; the coordinator's own /healthz wins the overlap.
	mux := http.NewServeMux()
	mux.Handle("/", c.Handler())
	debug := obs.Mux(reg)
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)
	hsrv := &http.Server{Addr: cfg.listen, Handler: mux}
	go func() {
		if err := hsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Error("coordinator listener failed", "err", err)
			os.Exit(1)
		}
	}()
	log.Info("coordinator up",
		"addr", cfg.listen,
		"workers", len(specs),
		"heartbeat", cfg.heartbeat)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Info("coordinator shutting down", "signal", s.String())
	_ = hsrv.Close()
	c.Close()
}

// parseWorkers parses "name=url[,name=url...]" into worker specs.
func parseWorkers(s string) ([]cluster.WorkerSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []cluster.WorkerSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("want name=url, got %q", part)
		}
		specs = append(specs, cluster.WorkerSpec{Name: name, Addr: addr})
	}
	return specs, nil
}
