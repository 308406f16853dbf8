// Session: one emulated mobile link hosted by the daemon. A session wraps
// one modulation.Engine and its private replay cursor around a shared,
// immutable trace, schedules every timer through a per-session handle on
// the farm's timer wheel, and optionally fronts the engine with a livewire
// UDP relay. Lifecycle is create → start → (drain) → stop; Stop is a hard
// barrier — once it returns, no engine timer of the session will ever
// fire again.
package emud

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/emud/wheel"
	"tracemod/internal/livewire"
	"tracemod/internal/modulation"
	"tracemod/internal/obs/span"
	"tracemod/internal/simnet"
)

// Typed rejection errors. ErrOverload marks admission-control sheds (the
// farm or session is at capacity — back off and retry); ErrNotRunning
// marks packets offered to a session outside StateRunning.
var (
	ErrOverload   = errors.New("emud: overloaded")
	ErrNotRunning = errors.New("emud: session not running")
	// ErrDraining marks creates refused because the farm is in a planned
	// shutdown (BeginDrain): the process is alive but handing its work
	// away. Mapped to HTTP 503 — distinct from the 429 overload path.
	ErrDraining = errors.New("emud: farm draining")
	// ErrNoSession marks a request for a session ID the farm does not
	// hold. Mapped to HTTP 404.
	ErrNoSession = errors.New("emud: no such session")
)

// State is a session's lifecycle position.
type State int32

// Session states.
const (
	StateCreated  State = iota // configured, engine not yet scheduling
	StateRunning               // engine live, accepting packets
	StateDraining              // rejecting new packets, in-flight completing
	StateStopped               // terminal: timers revoked
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	}
	return "unknown"
}

// SessionConfig describes one session at creation.
type SessionConfig struct {
	// Name is a free-form label (reported back; need not be unique).
	Name string
	// Trace drives the session's modulation; it is shared and immutable.
	Trace core.Trace
	// Live, when non-nil, replaces Trace with a growing replay trace fed
	// by an in-flight live-ingest stream: the session's cursor waits at
	// the live edge (engine holds parameters) instead of treating it as
	// EOF, and resumes the moment the distiller emits the next tuple.
	Live *LiveTrace
	// TraceRef records where the trace came from (path, synthetic name)
	// for introspection only.
	TraceRef string
	// Loop replays the trace forever; otherwise the final tuple holds.
	Loop bool
	// Tick is the engine's delivery quantization (modulation.DefaultTick
	// if 0, exact if negative).
	Tick time.Duration
	// Seed drives the session's drop lottery (sessions are mutually
	// deterministic: same trace + seed → same losses).
	Seed int64
	// InboundExtra and Compensation mirror modulation.Config.
	InboundExtra core.PerByte
	Compensation core.PerByte
	// SkipTuples fast-forwards the replay cursor past this many tuples at
	// Start — crash recovery resumes a restored session where the lost
	// daemon's snapshot left it.
	SkipTuples int64
	// SkipDraws fast-forwards the drop-lottery RNG past this many draws at
	// Start by burning them from the freshly-seeded stream. A live
	// migration records the source's draw count so the destination engine
	// continues the exact lottery sequence — byte-identical drops — instead
	// of restarting the stream from the seed.
	SkipDraws int64
}

// SessionStats is a point-in-time snapshot of a session's activity.
type SessionStats struct {
	Submitted int64 // packets accepted into the engine
	Delivered int64 // packets that completed delivery
	Dropped   int64 // packets lost to the drop lottery
	Rejected  int64 // packets refused (not running)
	Shed      int64 // packets refused by admission control (overload)
	InFlight  int64 // accepted, not yet delivered or dropped
}

// Session is one hosted emulated link.
type Session struct {
	ID      string
	cfg     SessionConfig
	created time.Duration // wheel time at creation

	mu     sync.Mutex
	state  atomic.Int32
	engine *modulation.Engine
	timers *wheel.Timers
	relay  *livewire.Relay

	// relayListen/relayTarget remember the attach arguments so a crash
	// snapshot can re-attach the relay on recovery.
	relayListen, relayTarget string

	lastActive atomic.Int64 // wheel-time nanoseconds of last packet or transition

	submitted, delivered, dropped, rejected, shed atomic.Int64
	inflight                                      atomic.Int64
	chargedBytes                                  atomic.Int64  // this session's share of the farm byte budget
	drained                                       chan struct{} // closed when draining hits zero in flight
	quarantined                                   atomic.Bool   // a callback panicked; session is being stopped
	panicValue                                    atomic.Value  // string: the panic that quarantined the session

	// flight is the session's span black box (nil when tracing is off):
	// every sampled packet trace of this session records into it, and it
	// stays readable after Stop — that is the point.
	flight  *span.FlightRecorder
	expLoss float64 // duration-weighted trace loss, cached for the SLO

	// restoreErr records what a crash recovery could not bring back for
	// this session (e.g. ErrStreamGone). Set once at creation, before the
	// session is published.
	restoreErr error

	m *Manager // back-pointer for the wheel and per-session metrics
}

// State returns the session's current lifecycle state.
func (s *Session) State() State { return State(s.state.Load()) }

// Config returns the session's creation config.
func (s *Session) Config() SessionConfig { return s.cfg }

// Stats snapshots the session counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Submitted: s.submitted.Load(),
		Delivered: s.delivered.Load(),
		Dropped:   s.dropped.Load(),
		Rejected:  s.rejected.Load(),
		Shed:      s.shed.Load(),
		InFlight:  s.inflight.Load(),
	}
}

// Quarantined reports whether the session was stopped because one of its
// callbacks panicked.
func (s *Session) Quarantined() bool { return s.quarantined.Load() }

// PanicValue returns the rendered panic that quarantined the session
// (empty when not quarantined).
func (s *Session) PanicValue() string {
	v, _ := s.panicValue.Load().(string)
	return v
}

// RestoreError returns what crash recovery could not bring back for
// this session (nil for sessions that never lost anything). A session
// whose live stream vanished reports an error wrapping ErrStreamGone.
func (s *Session) RestoreError() error { return s.restoreErr }

// Flight returns the session's flight recorder (nil when tracing is off).
// The recorder outlives Stop, so a quarantined session's final moments
// stay dumpable.
func (s *Session) Flight() *span.FlightRecorder { return s.flight }

// ExpectedLoss returns the duration-weighted loss probability of the
// session's trace — what the drop rate should converge to. For a live
// session it is recomputed from the tuples that have arrived so far.
func (s *Session) ExpectedLoss() float64 {
	if s.cfg.Live != nil {
		return s.cfg.Live.WeightedLoss()
	}
	return s.expLoss
}

// Cursor reports the session's replay position as a count of tuples
// consumed since the trace's beginning (including any SkipTuples applied
// at Start). It is the value a crash snapshot records and a recovered
// session resumes from.
func (s *Session) Cursor() int64 {
	s.mu.Lock()
	eng := s.engine
	s.mu.Unlock()
	if eng == nil {
		return s.cfg.SkipTuples
	}
	n := eng.Stats().Tuples
	if n > 0 {
		// The engine's count includes the currently-active tuple, which is
		// not yet fully consumed — a restore must replay from it, not past
		// it.
		n--
	}
	return s.cfg.SkipTuples + n
}

// LotteryDraws reports the session's absolute position in its drop-lottery
// RNG stream: draws burned at Start (SkipDraws) plus draws the engine has
// made since. A migration snapshot records it so the destination resumes
// the stream exactly where the source left it.
func (s *Session) LotteryDraws() int64 {
	s.mu.Lock()
	eng := s.engine
	s.mu.Unlock()
	if eng == nil {
		return s.cfg.SkipDraws
	}
	return s.cfg.SkipDraws + eng.Stats().Draws
}

// Engine exposes the underlying engine (nil before Start). Intended for
// inspection; submitting directly bypasses session accounting.
func (s *Session) Engine() *modulation.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine
}

// RelayAddr returns the client-facing address of the attached relay, or
// nil when none is attached.
func (s *Session) RelayAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.relay == nil {
		return ""
	}
	return s.relay.Addr().String()
}

// IdleFor reports how long ago the session last saw a packet or a
// lifecycle transition.
func (s *Session) IdleFor() time.Duration {
	return s.m.wheel.Now() - time.Duration(s.lastActive.Load())
}

// touch records activity for idle expiry.
func (s *Session) touch() { s.lastActive.Store(int64(s.m.wheel.Now())) }

// Start brings the session to StateRunning, constructing its engine on a
// fresh wheel handle. Starting a running session is a no-op; starting a
// stopped one is an error.
func (s *Session) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.State() {
	case StateRunning:
		return nil
	case StateDraining, StateStopped:
		return errors.New("emud: session already stopped")
	}
	s.timers = s.m.wheel.Timers()
	var src modulation.Source
	if s.cfg.Live != nil {
		c := s.cfg.Live.NewCursor(s.cfg.Loop)
		c.Skip(s.cfg.SkipTuples)
		src = c
	} else {
		ss := &modulation.SliceSource{Trace: s.cfg.Trace, Loop: s.cfg.Loop}
		ss.Skip(s.cfg.SkipTuples)
		src = ss
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	for i := int64(0); i < s.cfg.SkipDraws; i++ {
		rng.Float64()
	}
	s.engine = modulation.NewEngine(s.timers, src,
		modulation.Config{
			Tick:         s.cfg.Tick,
			InboundExtra: s.cfg.InboundExtra,
			Compensation: s.cfg.Compensation,
			RNG:          rng,
		})
	s.state.Store(int32(StateRunning))
	s.touch()
	s.m.ins.sessionState(s)
	return nil
}

// AttachRelay fronts the running session with a livewire UDP relay:
// client traffic is the outbound direction, target traffic inbound. The
// relay lives until the session stops. Transient bind failures (a
// lingering socket from a just-stopped session, an injected fault) are
// retried with backoff; the session lock is not held across the retries.
func (s *Session) AttachRelay(listenAddr, targetAddr string) (addr string, err error) {
	s.mu.Lock()
	if s.State() != StateRunning {
		s.mu.Unlock()
		return "", errors.New("emud: relay requires a running session")
	}
	if s.relay != nil {
		s.mu.Unlock()
		return "", errors.New("emud: session already has a relay")
	}
	s.mu.Unlock()

	var r *livewire.Relay
	err = s.m.relayRetry.Do(func() error {
		if ferr := s.m.faultRelayAttach.Err(); ferr != nil {
			return ferr
		}
		var derr error
		r, derr = livewire.NewRelayWithSubmitterOpts(listenAddr, targetAddr, s, livewire.RelayOpts{
			Group: s.m.pumps,
		})
		return derr
	})
	if err != nil {
		return "", fmt.Errorf("emud: relay attach: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.State() != StateRunning || s.relay != nil {
		// Lost a race with Stop or a concurrent attach while unlocked.
		r.Close()
		if s.relay != nil {
			return "", errors.New("emud: session already has a relay")
		}
		return "", errors.New("emud: relay requires a running session")
	}
	s.relay = r
	// Remember the resolved listen address, not a ":0" wildcard spec: a
	// crash snapshot must rebind the same concrete port, or oblivious
	// relay clients would keep sending to a dead address after the
	// session fails over to another worker.
	s.relayListen, s.relayTarget = r.Addr().String(), targetAddr
	return s.relayListen, nil
}

// Relay returns the attached livewire relay (nil when none), for its
// data-plane statistics.
func (s *Session) Relay() *livewire.Relay {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.relay
}

// RelaySpecArgs returns the listen/target arguments the relay was
// attached with (empty when no relay is attached), for crash snapshots.
func (s *Session) RelaySpecArgs() (listen, target string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.relay == nil {
		return "", ""
	}
	return s.relayListen, s.relayTarget
}

// Submit runs one packet through the session's engine, with session
// accounting. deliver runs when (and if) the packet survives; packets are
// rejected outright unless the session is running.
func (s *Session) Submit(dir simnet.Direction, size int, deliver func()) bool {
	return s.submit(dir, size, deliver, nil)
}

// SubmitWithDrop is Submit with an explicit loss outcome: exactly one of
// deliver or drop runs for every packet. drop also runs when the session
// rejects the packet outright.
func (s *Session) SubmitWithDrop(dir simnet.Direction, size int, deliver, drop func()) {
	s.submit(dir, size, deliver, drop)
}

func (s *Session) submit(dir simnet.Direction, size int, deliver, drop func()) bool {
	eng, ok := s.runningEngine()
	if !ok {
		s.reject(drop)
		return false
	}
	charged, sp, ok := s.admitOne(dir, size, drop)
	if !ok {
		return false
	}
	s.touch()
	// The callback literals stay in this frame (rather than being built
	// behind admitOne) so escape analysis can keep the drop closure on the
	// stack: the engine only ever invokes drop synchronously, never stores
	// it, so only the deliver closure costs a heap allocation per packet.
	eng.SubmitSpan(dir, size, sp,
		func() { s.deliverOne(sp, charged, size, deliver) },
		func() { s.dropOne(sp, charged, drop) })
	return true
}

// SubmitBatch implements livewire.Submitter: an attached relay's
// read burst enters the session's engine under a single engine-lock
// acquisition. Per-packet admission control, accounting, and span rooting
// are unchanged from the sequential path — a shed or rejected packet
// drops out of the burst (its Drop callback runs exactly as it would
// sequentially) and only the admitted remainder reaches the engine.
func (s *Session) SubmitBatch(subs []modulation.Submission) {
	if len(subs) == 0 {
		return
	}
	eng, ok := s.runningEngine()
	if !ok {
		for i := range subs {
			s.reject(subs[i].Drop)
		}
		return
	}
	live := 0
	for i := range subs {
		sub, ok := s.admit(subs[i].Dir, subs[i].Size, subs[i].Deliver, subs[i].Drop)
		if ok {
			subs[live] = sub
			live++
		}
	}
	if live == 0 {
		return
	}
	s.touch()
	eng.SubmitBatch(subs[:live])
}

// runningEngine returns the engine iff the session accepts traffic.
func (s *Session) runningEngine() (*modulation.Engine, bool) {
	if s.State() != StateRunning {
		return nil, false
	}
	s.mu.Lock()
	eng := s.engine
	s.mu.Unlock()
	return eng, eng != nil
}

// admit runs one packet's admission control and accounting and wraps its
// callbacks with the session's bookkeeping for a batch submission;
// ok=false means the packet was shed (its drop callback has already run).
// Only the batch path pays for heap-allocated closures in the returned
// Submission; the sequential path in submit builds its callbacks inline.
func (s *Session) admit(dir simnet.Direction, size int, deliver, drop func()) (sub modulation.Submission, ok bool) {
	charged, sp, ok := s.admitOne(dir, size, drop)
	if !ok {
		return sub, false
	}
	return modulation.Submission{
		Dir:     dir,
		Size:    size,
		Span:    sp,
		Deliver: func() { s.deliverOne(sp, charged, size, deliver) },
		Drop:    func() { s.dropOne(sp, charged, drop) },
	}, true
}

// admitOne runs one packet's admission control, accounting, and span
// rooting; ok=false means the packet was shed (its drop callback has
// already run). The returned charge and span feed the session's delivery
// bookkeeping in deliverOne/dropOne.
func (s *Session) admitOne(dir simnet.Direction, size int, drop func()) (charged int64, sp *span.Span, ok bool) {
	// Admission control: a per-session in-flight cap bounds one tenant's
	// queue, a farm-wide in-flight byte budget bounds aggregate memory.
	// Both checks add first and undo on overflow, so concurrent submits
	// can't slip past the cap together.
	if lim := s.m.opts.MaxSessionInFlight; lim > 0 {
		if s.inflight.Add(1) > int64(lim) {
			s.inflight.Add(-1)
			s.shedOne(drop)
			return 0, nil, false
		}
	} else {
		s.inflight.Add(1)
	}
	if budget := s.m.opts.MaxInFlightBytes; budget > 0 {
		charged = int64(size)
		if s.m.inflightBytes.Add(charged) > budget {
			s.m.inflightBytes.Add(-charged)
			s.inflight.Add(-1)
			s.shedOne(drop)
			return 0, nil, false
		}
		s.chargedBytes.Add(charged)
	}

	s.submitted.Add(1)
	s.m.ins.submit(s)

	// Root the packet's trace once admission has passed: a sampled packet
	// gets a "session.packet" span recorded into the session's flight
	// recorder, with the engine contributing a "modulation" child (and its
	// "wheel.wait" grandchild) via SubmitSpan. sp is nil for unsampled
	// packets and whenever tracing is off — deliverOne/dropOne then cost
	// two nil checks.
	sp = s.m.spans.RootInto(s.flight, "session.packet")
	if sp != nil {
		sp.AttrStr("session", s.ID)
		sp.Attr("dir", int64(dir))
		sp.Attr("size", int64(size))
	}
	return charged, sp, true
}

// deliverOne is the session's delivery bookkeeping, run inside the
// packet's deliver callback. The deferred recover quarantines this
// session on a panic inside the tenant callback (or an injected fault)
// instead of unwinding the wheel shard; the wheel's own recovery would
// also catch it, but catching here attributes the panic to the session
// and keeps the in-flight accounting consistent. sp.End is deferred so
// the root span reaches the flight recorder even when the callback
// panics — the quarantine dump needs the whole tree.
func (s *Session) deliverOne(sp *span.Span, charged int64, size int, deliver func()) {
	defer func() {
		if v := recover(); v != nil {
			s.m.quarantine(s, v)
		}
	}()
	defer sp.End()
	if s.m.faultSessionPanic.Fire() {
		panic("faults: injected session.panic")
	}
	s.delivered.Add(1)
	s.m.ins.deliver(s)
	s.finishOne(charged)
	sp.Event("pump-send", int64(size))
	deliver()
}

// dropOne is deliverOne's counterpart for packets the engine's drop
// lottery discards, with the same panic-quarantine contract.
func (s *Session) dropOne(sp *span.Span, charged int64, drop func()) {
	defer func() {
		if v := recover(); v != nil {
			s.m.quarantine(s, v)
		}
	}()
	defer sp.End()
	s.dropped.Add(1)
	s.m.ins.drop(s)
	s.finishOne(charged)
	if drop != nil {
		drop()
	}
}

func (s *Session) reject(drop func()) {
	s.rejected.Add(1)
	if drop != nil {
		drop()
	}
}

// shedOne records one admission-control rejection.
func (s *Session) shedOne(drop func()) {
	s.shed.Add(1)
	s.m.shedTotal.Add(1)
	s.m.ins.shedOne(s)
	if drop != nil {
		drop()
	}
}

// finishOne retires one in-flight packet (refunding charged admission
// bytes) and signals a waiting drain.
func (s *Session) finishOne(charged int64) {
	if charged > 0 {
		s.m.inflightBytes.Add(-charged)
		s.chargedBytes.Add(-charged)
	}
	if s.inflight.Add(-1) == 0 && s.State() == StateDraining {
		s.mu.Lock()
		if s.drained != nil {
			select {
			case <-s.drained:
			default:
				close(s.drained)
			}
		}
		s.mu.Unlock()
	}
}

// Drain gracefully quiesces the session: new packets are rejected while
// in-flight deliveries complete, for at most timeout, then the session
// stops. Returns true when the drain emptied before the deadline.
func (s *Session) Drain(timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.DrainContext(ctx)
}

// DrainContext is Drain bounded by a context instead of a bare timeout,
// so a caller quiescing many sessions (Manager.Close) can share one
// deadline across all of them.
func (s *Session) DrainContext(ctx context.Context) bool {
	s.mu.Lock()
	if st := s.State(); st == StateStopped || st == StateDraining {
		s.mu.Unlock()
		return s.inflight.Load() == 0
	}
	if s.State() == StateCreated {
		s.mu.Unlock()
		s.Stop()
		return true
	}
	s.drained = make(chan struct{})
	s.state.Store(int32(StateDraining))
	s.m.ins.sessionState(s)
	ch := s.drained
	s.mu.Unlock()

	clean := s.inflight.Load() == 0
	if !clean {
		select {
		case <-ch:
			clean = true
		case <-ctx.Done():
		}
	}
	s.Stop()
	return clean
}

// Stop revokes every pending engine timer and closes the relay. The
// guarantee: when Stop returns, no timer of this session is running or
// will ever run — the wheel handle's Stop is a barrier. Stop must not be
// called from inside a delivery callback (it would deadlock on its own
// barrier); the control plane and janitor call it from their own
// goroutines.
func (s *Session) Stop() {
	s.mu.Lock()
	if s.State() == StateStopped {
		s.mu.Unlock()
		return
	}
	s.state.Store(int32(StateStopped))
	relay := s.relay
	s.relay = nil
	timers := s.timers
	s.mu.Unlock()

	if relay != nil {
		relay.Close()
	}
	if timers != nil {
		timers.Stop()
	}
	// The timer barrier above guarantees no delivery/drop callback of this
	// session is running or will ever run, so any bytes still charged to
	// the session belong to packets that will never retire — refund them,
	// or a stopped (e.g. quarantined) session would permanently consume
	// the farm's admission budget. A submit racing Stop can still strand
	// its single packet's charge; that window is one packet wide.
	if rem := s.chargedBytes.Swap(0); rem > 0 {
		s.m.inflightBytes.Add(-rem)
	}
	s.touch()
	s.m.ins.sessionState(s)
}
