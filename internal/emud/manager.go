// Package emud is the multi-tenant emulation daemon: a session farm that
// hosts many concurrent modulated links in one process. Where the paper
// modulates one mobile host per kernel, emud serves thousands of emulated
// links from one engine pool — the ERRANT/TheaterQ shape of trace-driven
// emulation as a service.
//
// The subsystem has four parts: the Manager (session lifecycle: create,
// start, stop, idle expiry, graceful drain), a sharded timer wheel
// (internal/emud/wheel) every session schedules through, a trace Store
// that parses each trace file once and shares the immutable result, and
// an HTTP/JSON control plane (http.go) wired into internal/obs with
// per-session metric labels.
package emud

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracemod/internal/emud/pressure"
	"tracemod/internal/emud/wal"
	"tracemod/internal/emud/wheel"
	"tracemod/internal/faults"
	"tracemod/internal/livewire"
	"tracemod/internal/obs"
	"tracemod/internal/obs/span"
)

// Defaults for Options zero values.
const (
	DefaultMaxSessions      = 4096
	DefaultJanitorPeriod    = time.Second
	DefaultDrainTimeout     = 5 * time.Second
	DefaultSnapshotInterval = 10 * time.Second
)

// Fault-point names the farm registers up front, so a chaos controller
// (or /v1/faults) sees the full menu before any point has fired.
var faultPointNames = []string{
	"store.parse",       // trace loads fail as if the file were corrupt
	"store.evict",       // eviction storm: the LRU sheds every cached trace
	"wheel.stall",       // wheel shards sleep before each dispatch round
	"relay.attach",      // relay socket setup fails (retried with backoff)
	"control.slow",      // control-plane handlers stall before responding
	"control.error",     // control-plane handlers fail with HTTP 500
	"session.panic",     // a session delivery callback panics (quarantine path)
	"stream.reap",       // marked when the idle reaper seals a stalled stream
	"pressure.brownout", // marked on every brownout ladder transition
	"pressure.force",    // armed: forces a brownout floor (delay_ms 1..4 = rung)
}

// Options parameterizes a Manager.
type Options struct {
	// Shards is the timer wheel's goroutine count (wheel.DefaultShards
	// if 0).
	Shards int
	// Granularity is the wheel's wakeup coalescing tick. Zero means
	// wheel.DefaultGranularity (the paper's 10 ms); negative means exact
	// scheduling.
	Granularity time.Duration
	// MaxSessions bounds concurrently existing sessions
	// (DefaultMaxSessions if 0).
	MaxSessions int
	// SessionIDPrefix prefixes every minted session ID ("" for the
	// single-node default "s-000001" shape). A cluster worker sets it to
	// its member name ("w1-s-000001") so IDs stay unique across the farm
	// and a failed-over or migrated session keeps its ID on the survivor.
	SessionIDPrefix string
	// IdleTimeout expires sessions that have seen no traffic for this
	// long (0 disables idle expiry).
	IdleTimeout time.Duration
	// JanitorPeriod is the idle-expiry scan interval
	// (DefaultJanitorPeriod if 0).
	JanitorPeriod time.Duration
	// DrainTimeout bounds graceful drains (DefaultDrainTimeout if 0).
	DrainTimeout time.Duration
	// MaxSessionInFlight caps one session's in-flight packets; excess
	// submits are shed with ErrOverload. Zero disables the cap.
	MaxSessionInFlight int
	// MaxInFlightBytes bounds aggregate in-flight payload bytes across
	// the whole farm; submits past the budget are shed. Zero disables.
	MaxInFlightBytes int64
	// Store supplies traces; a private store is created when nil.
	Store *Store
	// Faults is the chaos injector; its points thread through the wheel,
	// the store, relay attach, and the control plane. Nil disables every
	// fault point (the production default).
	Faults *faults.Injector
	// Retry is the backoff policy for relay attach and trace-store loads;
	// the zero value uses the faults package defaults.
	Retry faults.Backoff
	// SnapshotPath, when set, makes the farm crash-safe: session specs and
	// replay cursors are written there periodically and at Close, and
	// Restore replays them after a crash.
	SnapshotPath string
	// SnapshotInterval is the periodic snapshot cadence
	// (DefaultSnapshotInterval if 0; negative disables the periodic
	// writer, leaving only the on-close snapshot).
	SnapshotInterval time.Duration
	// StreamWALDir, when set, makes live-ingest streams durable: every
	// accepted upload chunk is appended to a per-stream write-ahead log
	// under this directory before it is interpreted, and RecoverStreams
	// replays the durable prefix after a crash.
	StreamWALDir string
	// StreamWALSync is the WAL fsync policy (wal.SyncAlways — the zero
	// value — syncs every append).
	StreamWALSync wal.SyncPolicy
	// StreamWALSegmentBytes is the WAL segment rotation size
	// (wal.DefaultSegmentBytes if 0).
	StreamWALSegmentBytes int64
	// StreamIdleTimeout seals receiving streams that have accepted no
	// chunk for this long, freeing their pinned bytes (0 disables the
	// reaper).
	StreamIdleTimeout time.Duration
	// StreamQuotaBytes caps one stream's total upload size; a chunk past
	// the quota fails the stream with a typed QuotaError (0 = unlimited).
	StreamQuotaBytes int64
	// SpillDir is where sealed live traces spill their tuples when the
	// brownout ladder reaches spill-traces ("" disables spilling).
	SpillDir string
	// HeapHighWater is the heap-in-use byte level where the brownout
	// ladder starts shedding (0 disables the heap watermark).
	HeapHighWater int64
	// PinnedBudget bounds the bytes pinned by live ingest before the
	// ladder sheds (0 disables the pinned watermark).
	PinnedBudget int64
	// PressurePeriod is the brownout evaluation cadence
	// (pressure.DefaultPeriod if 0; negative disables the loop — tests
	// drive Evaluate directly).
	PressurePeriod time.Duration
	// PumpShards sizes the shared livewire pump group servicing every
	// attached relay's sockets: 0 means GOMAXPROCS event loops (when the
	// platform's batched socket I/O is available — elsewhere relays keep
	// per-relay pump goroutines), a negative value disables the group
	// outright.
	PumpShards int
	// Metrics, if non-nil, registers the farm's instruments (names under
	// tracemod_emud_*), including per-session labelled counters.
	Metrics *obs.Registry
	// Spans, if non-nil, enables sampled end-to-end packet tracing: each
	// sampled packet gets a "session.packet" root span recorded into the
	// session's flight recorder (and the tracer's default sink), with the
	// modulation engine and timer wheel contributing children and events.
	// The manager rebinds the tracer's clock to the wheel's, so span times
	// share the wheel epoch.
	Spans *span.Tracer
	// FlightSpans is the per-session flight-recorder capacity
	// (span.DefaultFlightCapacity if 0) — only meaningful with Spans set.
	FlightSpans int
	// Logger receives the farm's structured lifecycle log (session
	// created/expired/quarantined, snapshots). Nil discards.
	Logger *slog.Logger
}

// instruments is the farm's metric bundle; nil means observability off
// (every method is nil-safe, mirroring the modulation engine's pattern).
type instruments struct {
	created, expired, deleted *obs.Counter
	shed, quarantined         *obs.Counter
	snapshots, recovered      *obs.Counter
	active                    *obs.Gauge

	submitted *obs.CounterVec // by session
	delivered *obs.CounterVec
	dropped   *obs.CounterVec
	state     *obs.GaugeVec
}

func newInstruments(reg *obs.Registry) *instruments {
	return &instruments{
		created: reg.Counter("tracemod_emud_sessions_created_total", "Sessions created over the daemon's lifetime."),
		expired: reg.Counter("tracemod_emud_sessions_expired_total", "Sessions stopped by idle expiry."),
		deleted: reg.Counter("tracemod_emud_sessions_deleted_total", "Sessions deleted from the farm."),
		shed: reg.Counter("tracemod_emud_packets_shed_total",
			"Packets refused by admission control (per-session cap or farm byte budget)."),
		quarantined: reg.Counter("tracemod_emud_sessions_quarantined_total",
			"Sessions stopped because a callback panicked."),
		snapshots: reg.Counter("tracemod_emud_snapshots_written_total",
			"Crash-recovery snapshots written to disk."),
		recovered: reg.Counter("tracemod_emud_sessions_recovered_total",
			"Sessions restored from a crash-recovery snapshot."),
		active: reg.Gauge("tracemod_emud_sessions_active", "Sessions currently existing (any state)."),
		submitted: reg.CounterVec("tracemod_emud_session_packets_submitted_total",
			"Packets accepted per session.", "session"),
		delivered: reg.CounterVec("tracemod_emud_session_packets_delivered_total",
			"Packets delivered per session.", "session"),
		dropped: reg.CounterVec("tracemod_emud_session_packets_dropped_total",
			"Packets lost to the drop lottery per session.", "session"),
		state: reg.GaugeVec("tracemod_emud_session_state",
			"Session lifecycle state (0=created 1=running 2=draining 3=stopped).", "session"),
	}
}

func (ins *instruments) submit(s *Session) {
	if ins != nil {
		ins.submitted.With(s.ID).Inc()
	}
}

func (ins *instruments) deliver(s *Session) {
	if ins != nil {
		ins.delivered.With(s.ID).Inc()
	}
}

func (ins *instruments) drop(s *Session) {
	if ins != nil {
		ins.dropped.With(s.ID).Inc()
	}
}

func (ins *instruments) sessionState(s *Session) {
	if ins != nil {
		ins.state.With(s.ID).Set(int64(s.State()))
	}
}

func (ins *instruments) incCreated() {
	if ins != nil {
		ins.created.Inc()
	}
}

func (ins *instruments) incExpired() {
	if ins != nil {
		ins.expired.Inc()
	}
}

func (ins *instruments) incDeleted() {
	if ins != nil {
		ins.deleted.Inc()
	}
}

func (ins *instruments) shedOne(*Session) {
	if ins != nil {
		ins.shed.Inc()
	}
}

func (ins *instruments) incQuarantined() {
	if ins != nil {
		ins.quarantined.Inc()
	}
}

func (ins *instruments) incSnapshots() {
	if ins != nil {
		ins.snapshots.Inc()
	}
}

func (ins *instruments) incRecovered() {
	if ins != nil {
		ins.recovered.Inc()
	}
}

func (ins *instruments) setActive(n int) {
	if ins != nil {
		ins.active.Set(int64(n))
	}
}

func (ins *instruments) remove(id string) {
	if ins != nil {
		ins.submitted.Remove(id)
		ins.delivered.Remove(id)
		ins.dropped.Remove(id)
		ins.state.Remove(id)
	}
}

// Manager is the session farm.
type Manager struct {
	opts     Options
	wheel    *wheel.Wheel
	store    *Store
	ins      *instruments
	spans    *span.Tracer // nil = packet tracing off
	log      *slog.Logger // never nil (discards by default)
	slos     *obs.SLOSet
	streams  *Streams
	pressure *pressure.Controller // nil-safe: Level() is Normal when unwired
	pumps    *livewire.PumpGroup  // nil-safe: shared relay data plane

	mu       sync.Mutex
	sessions map[string]*Session
	seq      int64
	closed   bool

	// Admission control and resilience accounting.
	inflightBytes    atomic.Int64
	shedTotal        atomic.Int64
	quarantinedTotal atomic.Int64

	// draining marks a planned shutdown in progress: new sessions are
	// refused, /v1/health fails readiness with status "draining" (while
	// liveness stays up), and a cluster coordinator reads it as "migrate
	// my sessions away" rather than "this worker is dead".
	draining atomic.Bool

	faultRelayAttach  *faults.Point
	faultSessionPanic *faults.Point
	relayRetry        faults.Backoff

	// quarantineCh feeds sessions whose callbacks panicked to a dedicated
	// goroutine that stops them — Stop must never run on the panicking
	// wheel shard itself (it would deadlock on the session's own barrier).
	quarantineCh chan *Session

	quit chan struct{}
	wg   sync.WaitGroup

	// snapMu serialises snapshot writers (the periodic loop, WriteSnapshot
	// and Close's final write), which share one temp file. Close stops
	// the loop through snapStop and waits on snapDone before its final
	// write, so no tick can publish the emptied farm over it.
	snapMu   sync.Mutex
	snapStop chan struct{}
	snapDone chan struct{}
}

// NewManager starts a farm (wheel shards, janitor, quarantine drainer,
// and — when SnapshotPath is set — the periodic snapshot writer).
func NewManager(o Options) *Manager {
	if o.MaxSessions <= 0 {
		o.MaxSessions = DefaultMaxSessions
	}
	if o.JanitorPeriod <= 0 {
		o.JanitorPeriod = DefaultJanitorPeriod
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = DefaultDrainTimeout
	}
	if o.SnapshotInterval == 0 {
		o.SnapshotInterval = DefaultSnapshotInterval
	}
	gran := o.Granularity
	if gran == 0 {
		gran = wheel.DefaultGranularity
	}
	if gran < 0 {
		gran = 0
	}
	m := &Manager{
		opts:         o,
		store:        o.Store,
		spans:        o.Spans,
		log:          o.Logger,
		sessions:     map[string]*Session{},
		quarantineCh: make(chan *Session, 64),
		quit:         make(chan struct{}),
	}
	if m.log == nil {
		m.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	m.wheel = wheel.New(wheel.Options{
		Shards:      o.Shards,
		Granularity: gran,
		Metrics:     o.Metrics,
		Faults:      o.Faults,
		Spans:       o.Spans,
		OnPanic:     func(owner *wheel.Timers, v any) { m.quarantine(m.sessionForTimers(owner), v) },
	})
	// Span timestamps and wheel deadlines must share an epoch, or flight
	// dumps would interleave two clocks. Rebinding here is safe: no span
	// of this farm has started yet.
	m.spans.SetNow(m.wheel.Now)
	m.slos = m.buildSLOs(gran)
	if o.Faults != nil {
		for _, name := range faultPointNames {
			o.Faults.Point(name)
		}
		m.faultRelayAttach = o.Faults.Point("relay.attach")
		m.faultSessionPanic = o.Faults.Point("session.panic")
	}
	m.relayRetry = o.Retry
	if m.store == nil {
		m.store = NewStore(StoreOptions{Metrics: o.Metrics, Faults: o.Faults, Retry: o.Retry})
	}
	m.streams = newStreams(m)
	m.pumps = livewire.NewPumpGroup(livewire.PumpGroupConfig{
		Shards:  o.PumpShards,
		Metrics: o.Metrics,
	})
	m.pressure = pressure.New(pressure.Config{
		HeapHighWater: o.HeapHighWater,
		PinnedBudget:  o.PinnedBudget,
		Period:        o.PressurePeriod,
		Pinned:        m.streams.PinnedBytes,
		OnChange:      m.onPressureChange,
		Metrics:       o.Metrics,
		Faults:        o.Faults,
		Logger:        m.log,
	})
	if o.Metrics != nil {
		m.ins = newInstruments(o.Metrics)
	}
	m.wg.Add(1)
	go m.quarantineLoop()
	if o.IdleTimeout > 0 {
		m.wg.Add(1)
		go m.janitor()
	}
	if o.SnapshotPath != "" && o.SnapshotInterval > 0 {
		m.snapStop, m.snapDone = make(chan struct{}), make(chan struct{})
		go m.snapshotLoop()
	}
	return m
}

// quarantine marks a session whose callback panicked and hands it to the
// drainer goroutine for a full Stop. Safe to call from wheel callbacks:
// it never blocks and never takes the session's timer barrier.
func (m *Manager) quarantine(s *Session, v any) {
	if s == nil || !s.quarantined.CompareAndSwap(false, true) {
		return
	}
	s.panicValue.Store(fmt.Sprint(v))
	m.quarantinedTotal.Add(1)
	m.ins.incQuarantined()
	select {
	case m.quarantineCh <- s:
	default:
		// Channel full (a panic storm): fall back to a one-off goroutine
		// rather than blocking a wheel shard.
		go func() {
			s.Stop()
			m.logQuarantine(s)
		}()
	}
}

func (m *Manager) quarantineLoop() {
	defer m.wg.Done()
	for {
		select {
		case s := <-m.quarantineCh:
			s.Stop()
			m.logQuarantine(s)
		case <-m.quit:
			return
		}
	}
}

// logQuarantine dumps a quarantined session's black box to the structured
// log: the panic value, then — when tracing is on — the flight recorder's
// final span tree, so the "why" is captured even if no operator ever
// fetches /v1/sessions/{id}/flight. Runs after Stop, so the ring is
// quiescent apart from unsampled stragglers.
func (m *Manager) logQuarantine(s *Session) {
	v, _ := s.panicValue.Load().(string)
	log := m.log.With("session", s.ID)
	if s.flight == nil {
		log.Error("session quarantined", "panic", v)
		return
	}
	spans := s.flight.Snapshot()
	log.Error("session quarantined", "panic", v,
		"flight_spans", len(spans), "flight_total", s.flight.Total())
	if len(spans) > 0 {
		var tree strings.Builder
		_ = span.RenderTree(&tree, spans)
		log.Info("flight recorder dump", "tree", tree.String())
	}
}

// sessionForTimers maps a wheel handle back to its session (for panics
// surfacing through the wheel rather than the session's own recovery).
func (m *Manager) sessionForTimers(t *wheel.Timers) *Session {
	if t == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.sessions {
		s.mu.Lock()
		match := s.timers == t
		s.mu.Unlock()
		if match {
			return s
		}
	}
	return nil
}

// BeginDrain marks the farm as draining: new session creates are refused
// with ErrDraining and /v1/health fails readiness with status "draining"
// while the process stays alive to hand its sessions off. It does not by
// itself stop anything — Close (or per-session Handoff) does the work.
func (m *Manager) BeginDrain() {
	if m.draining.CompareAndSwap(false, true) {
		m.log.Info("farm draining: refusing new sessions")
	}
}

// Draining reports whether a planned shutdown is in progress.
func (m *Manager) Draining() bool { return m.draining.Load() }

// Quarantined reports how many sessions have been quarantined for
// panicking callbacks over the farm's lifetime.
func (m *Manager) Quarantined() int64 { return m.quarantinedTotal.Load() }

// Shed reports how many packets admission control has refused.
func (m *Manager) Shed() int64 { return m.shedTotal.Load() }

// InFlightBytes reports the farm-wide in-flight payload byte total
// currently charged against Options.MaxInFlightBytes.
func (m *Manager) InFlightBytes() int64 { return m.inflightBytes.Load() }

// Wheel exposes the farm's shared timer wheel.
func (m *Manager) Wheel() *wheel.Wheel { return m.wheel }

// Store exposes the farm's trace store.
func (m *Manager) Store() *Store { return m.store }

// Streams exposes the farm's live-ingest registry.
func (m *Manager) Streams() *Streams { return m.streams }

// Pressure exposes the farm's brownout controller.
func (m *Manager) Pressure() *pressure.Controller { return m.pressure }

// onPressureChange applies the shed actions as the brownout ladder
// moves: span sampling is suspended at shed-sampling and deeper, and
// sealed live traces spill at spill-traces and deeper. Rejecting new
// streams and pausing live-edge reads are enforced at their call sites
// by consulting the controller's level directly.
func (m *Manager) onPressureChange(_, to pressure.Level) {
	m.spans.Suspend(to >= pressure.ShedSampling)
	if to >= pressure.SpillTraces {
		m.streams.SpillSealed()
	}
}

// Create registers a new session in StateCreated under a freshly minted
// ID. The trace must already be resolved (the control plane goes through
// the Store first).
//
// Admission rides the brownout ladder: from shed-sampling upward new
// sessions are refused with a typed BrownoutError (HTTP 429 +
// Retry-After) — a new tenant is the most expensive unit the farm can
// admit, so it is shed one rung before new streams. A draining farm
// refuses with ErrDraining. Restore registers through the same step but
// bypasses both gates: failover must be able to land sessions on a
// loaded survivor.
func (m *Manager) Create(cfg SessionConfig) (*Session, error) {
	if m.draining.Load() {
		return nil, ErrDraining
	}
	if lvl := m.pressure.Level(); lvl >= pressure.ShedSampling {
		return nil, &BrownoutError{Level: lvl, RetryAfter: m.pressure.RetryAfter()}
	}
	return m.register("", cfg, nil)
}

// register is the one step that brings a session into the farm, for
// Create and Restore alike. An empty id mints the next free one; Restore
// passes the snapshotted ID so clients' handles stay valid, and a
// duplicate is refused. restoreErr, when non-nil, is surfaced in the
// session's status: the session exists, but something it depended on
// did not survive the move. Live sessions skip trace validation: the
// growing trace may be empty at registration, and every tuple was
// already sanitized at emission.
func (m *Manager) register(id string, cfg SessionConfig, restoreErr error) (*Session, error) {
	if cfg.Live == nil {
		if err := cfg.Trace.Validate(); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("emud: manager closed")
	}
	if len(m.sessions) >= m.opts.MaxSessions {
		return nil, fmt.Errorf("emud: session limit reached (%d): %w", m.opts.MaxSessions, ErrOverload)
	}
	if id == "" {
		// Mint past any ID a restore has already taken.
		for id == "" || m.sessions[id] != nil {
			m.seq++
			id = fmt.Sprintf("%ss-%06d", m.opts.SessionIDPrefix, m.seq)
		}
	} else if m.sessions[id] != nil {
		return nil, fmt.Errorf("emud: session %s already exists", id)
	}
	s := &Session{
		ID:         id,
		cfg:        cfg,
		created:    m.wheel.Now(),
		expLoss:    cfg.Trace.WeightedLoss(),
		restoreErr: restoreErr,
		m:          m,
	}
	if m.spans.Enabled() {
		s.flight = span.NewFlightRecorder(m.opts.FlightSpans)
	}
	s.state.Store(int32(StateCreated))
	s.lastActive.Store(int64(s.created))
	m.sessions[s.ID] = s
	m.ins.incCreated()
	m.ins.setActive(len(m.sessions))
	m.ins.sessionState(s)
	m.log.Debug("session created", "session", s.ID, "name", cfg.Name,
		"trace", cfg.TraceRef, "tuples", len(cfg.Trace))
	return s, nil
}

// Get returns a session by ID.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// List returns every session, ordered by ID.
func (m *Manager) List() []*Session {
	out := m.sessionList()
	// IDs are zero-padded sequence numbers, so lexical order is creation
	// order.
	slices.SortFunc(out, func(a, b *Session) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Count returns the number of existing sessions.
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Delete stops a session and removes it from the farm (and its labelled
// metrics from the export).
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.ins.setActive(len(m.sessions))
	}
	m.mu.Unlock()
	if !ok {
		return false
	}
	s.Stop()
	m.ins.incDeleted()
	m.ins.remove(s.ID)
	m.log.Debug("session deleted", "session", s.ID)
	return true
}

// janitor periodically expires idle sessions. It runs on its own
// goroutine (not the wheel) because Stop must never be called from a
// wheel callback.
func (m *Manager) janitor() {
	defer m.wg.Done()
	tick := time.NewTicker(m.opts.JanitorPeriod)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			m.expireIdle()
		case <-m.quit:
			return
		}
	}
}

// expireIdle stops (and removes) sessions idle past the deadline.
func (m *Manager) expireIdle() {
	var idle []*Session
	m.mu.Lock()
	for _, s := range m.sessions {
		if st := s.State(); st == StateRunning || st == StateCreated {
			if s.IdleFor() > m.opts.IdleTimeout {
				idle = append(idle, s)
			}
		}
	}
	for _, s := range idle {
		delete(m.sessions, s.ID)
	}
	m.ins.setActive(len(m.sessions))
	m.mu.Unlock()
	for _, s := range idle {
		s.Stop()
		m.ins.incExpired()
		m.ins.remove(s.ID)
		m.log.Info("session expired idle", "session", s.ID)
	}
}

// Close drains every session in parallel under one shared DrainTimeout
// deadline, stops the helper goroutines, and shuts the wheel down. When
// SnapshotPath is set, a final snapshot is written before the drain so a
// crash-during-shutdown still has a recovery point.
func (m *Manager) Close() {
	m.draining.Store(true)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.sessions = map[string]*Session{}
	m.mu.Unlock()

	if m.snapStop != nil {
		close(m.snapStop)
		<-m.snapDone
	}
	if m.opts.SnapshotPath != "" {
		_ = m.writeSnapshotOf(sessions)
	}

	// One context bounds every drain: each DrainContext returns by the
	// shared deadline (Stop after expiry is fast — the timer barrier only
	// waits out callbacks already running), so the WaitGroup below cannot
	// hang on a slow tenant.
	ctx, cancel := context.WithTimeout(context.Background(), m.opts.DrainTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			s.DrainContext(ctx)
		}(s)
	}
	wg.Wait()
	close(m.quit)
	m.wg.Wait()
	m.pressure.Close()
	m.streams.Close()
	m.wheel.Close()
	m.pumps.Close()
}

// Pumps exposes the shared relay data-plane group (nil-safe; may be
// disabled on platforms without batched socket I/O).
func (m *Manager) Pumps() *livewire.PumpGroup { return m.pumps }
