// Package modulation implements the modulation phase (Section 3.3): an
// in-kernel-style layer between IP and the device that delays and drops
// every inbound and outbound packet according to a replay trace.
//
// The layer realizes the paper's design decisions exactly:
//
//   - a single, unified delay queue so inbound and outbound traffic
//     interfere with one another at the bottleneck;
//   - packets pay s·Vb serially at the bottleneck, then F + s·Vr overlapped;
//   - the drop lottery runs only after a packet has passed through the
//     bottleneck queue, so even lost packets consume bottleneck time;
//   - deliveries are quantized to the host's clock-tick resolution (10 ms
//     on the paper's NetBSD kernels): delays shorter than half a tick send
//     immediately, others round to the closest tick;
//   - inbound packets receive delay compensation — the long-term average
//     bottleneck per-byte cost of the physical network under the emulation
//     is subtracted from Vb — correcting the asymmetry of placing the
//     queue at one endpoint (Figure 1).
//
// The engine is clock-abstracted: the same code runs in virtual time under
// the simulator and in real time in the livewire shaping daemon.
package modulation

import (
	"math/rand"
	"strconv"
	"sync"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/obs"
	"tracemod/internal/obs/span"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

// DefaultTick matches the 10 ms clock interrupt resolution of the paper's
// hosts. A tick of zero schedules exactly.
const DefaultTick = 10 * time.Millisecond

// Clock abstracts time for the engine.
type Clock interface {
	// Now returns elapsed time since the clock's epoch.
	Now() time.Duration
	// AfterFunc runs fn once d has elapsed.
	AfterFunc(d time.Duration, fn func())
}

// SimClock adapts a sim.Scheduler.
type SimClock struct{ S *sim.Scheduler }

// Now implements Clock.
func (c SimClock) Now() time.Duration { return c.S.Now().Duration() }

// AfterFunc implements Clock.
func (c SimClock) AfterFunc(d time.Duration, fn func()) { c.S.After(d, fn) }

// Source supplies replay-trace tuples to the engine, non-blocking. ok is
// false when no tuple is currently available (the engine then holds its
// current parameters, as the kernel does when the daemon falls behind).
type Source interface {
	Next() (core.Tuple, bool)
}

// SliceSource serves tuples from an in-memory trace, optionally looping
// (the daemon "may write a file of tuples once ... or it may loop over the
// file until interrupted").
type SliceSource struct {
	Trace core.Trace
	Loop  bool
	pos   int
}

// Skip advances the cursor past the first n tuples, as if they had
// already been consumed — crash recovery uses it to resume a session's
// replay where the lost daemon left off. For a looping source the cursor
// wraps; for a one-shot source it clamps to the end of the trace.
func (s *SliceSource) Skip(n int64) {
	if n <= 0 || len(s.Trace) == 0 {
		return
	}
	if s.Loop {
		s.pos = int(n % int64(len(s.Trace)))
		return
	}
	if n > int64(len(s.Trace)) {
		n = int64(len(s.Trace))
	}
	s.pos = int(n)
}

// Next implements Source.
func (s *SliceSource) Next() (core.Tuple, bool) {
	if len(s.Trace) == 0 {
		return core.Tuple{}, false
	}
	if s.pos >= len(s.Trace) {
		if !s.Loop {
			return core.Tuple{}, false
		}
		s.pos = 0
	}
	t := s.Trace[s.pos]
	s.pos++
	return t, true
}

// Config parameterizes an engine.
type Config struct {
	// Tick is the scheduling granularity; DefaultTick if zero, exact
	// scheduling if negative.
	Tick time.Duration
	// InboundExtra reproduces the endpoint-placement artifact of the
	// paper's kernel (Figure 1): an inbound packet has already been
	// serialized once by the physical network before reaching the delay
	// queue, and that receive-path cost is charged serially on top of the
	// emulated bottleneck. Set it to the physical path's per-byte cost to
	// emulate the paper's uncompensated behaviour; leave it zero for an
	// idealized layer with no such artifact.
	InboundExtra core.PerByte
	// Compensation is the paper's correction: the physical network's
	// measured long-term average bottleneck per-byte cost, subtracted
	// from Vb for inbound packets. With InboundExtra present they cancel
	// (up to measurement error), making inbound and outbound behave
	// identically.
	Compensation core.PerByte
	// RNG drives the drop lottery. A nil RNG falls back to a fresh,
	// engine-local source seeded with DefaultDropSeed — never the global
	// math/rand source — so default-configured engines are deterministic
	// and mutually identical.
	RNG *rand.Rand
	// Metrics, if non-nil, registers the engine's counters, gauges, and
	// histograms (names under tracemod_modulation_*) on the registry.
	// When nil the engine carries no instruments and the packet path does
	// no metric work beyond one pointer test.
	Metrics *obs.Registry
	// Spans, if non-nil, lets the engine root sampled per-packet spans of
	// its own ("modulation.packet") when the caller did not hand one in
	// via SubmitSpan — the experiment harness uses this; emud passes
	// session-rooted spans instead. The span tracer's clock should share
	// the engine clock's epoch so span start and end times line up with
	// the engine-stamped span events. When nil (and no parent is passed)
	// the packet path does no span work beyond two pointer tests.
	Spans *span.Tracer
}

// DefaultDropSeed seeds the drop lottery when Config.RNG is nil: a fixed,
// documented constant (the paper's publication year). The engine never
// draws from the shared global math/rand source, so a defaulted engine's
// drop sequence is reproducible and isolated from unrelated code.
const DefaultDropSeed = 1997

// DropLottery is the value of a packet span's "drop" event: the tuple's
// loss probability fired. It is the only reason the engine drops.
const DropLottery = 1

// Stats counts engine activity.
type Stats struct {
	Submitted int64 // packets entering the layer
	Dropped   int64 // packets lost by the drop lottery
	Immediate int64 // deliveries under half a tick, sent at once
	Delayed   int64 // deliveries scheduled onto a tick
	Tuples    int64 // tuples consumed from the source
	// Draws counts drop-lottery RNG draws: exactly one per packet once a
	// tuple is in force (unmodulated packets before the first tuple never
	// reach the lottery). Together with the RNG seed it pins the lottery
	// stream's position, which is what lets a migrated session reproduce
	// the exact drop sequence a never-migrated run would have produced.
	Draws int64
}

// instruments bundles the engine's registered metrics. A nil *instruments
// means observability is off: every use is behind one pointer test and the
// obs metric types are themselves nil-safe, so the disabled hot path adds
// no allocations (guarded by the alloc benchmark in bench_test.go).
type instruments struct {
	submitted   *obs.Counter
	delivered   *obs.Counter
	dropped     *obs.Counter
	immediate   *obs.Counter
	scheduled   *obs.Counter
	tuples      *obs.Counter
	compensated *obs.Counter

	dropsByTuple *obs.CounterVec

	queueDepth  *obs.Gauge
	activeTuple *obs.Gauge

	serHist   *obs.Histogram // serialization time paid at the bottleneck
	quantHist *obs.Histogram // tick-quantization rounding delta
	delayHist *obs.Histogram // total scheduled delay
	lagHist   *obs.Histogram // coalesced-batch fire time minus its target

	tupleLabel string // cached ordinal label for dropsByTuple
}

func newInstruments(reg *obs.Registry, tick time.Duration) *instruments {
	return &instruments{
		submitted:   reg.Counter("tracemod_modulation_packets_submitted_total", "Packets entering the modulation layer."),
		delivered:   reg.Counter("tracemod_modulation_packets_delivered_total", "Packets that passed the layer (immediate or scheduled)."),
		dropped:     reg.Counter("tracemod_modulation_packets_dropped_total", "Packets discarded by the drop lottery."),
		immediate:   reg.Counter("tracemod_modulation_deliveries_immediate_total", "Deliveries under half a tick, sent at once."),
		scheduled:   reg.Counter("tracemod_modulation_deliveries_scheduled_total", "Deliveries scheduled onto a clock tick."),
		tuples:      reg.Counter("tracemod_modulation_tuples_consumed_total", "Replay tuples consumed from the source."),
		compensated: reg.Counter("tracemod_modulation_compensation_applied_total", "Inbound packets whose bottleneck cost was adjusted (compensation / inbound extra)."),
		dropsByTuple: reg.CounterVec("tracemod_modulation_drops_by_tuple_total",
			"Drop-lottery losses attributed to the tuple ordinal in force.", "tuple"),
		queueDepth:  reg.Gauge("tracemod_modulation_bottleneck_queue_depth", "Packets currently occupying the unified bottleneck queue."),
		activeTuple: reg.Gauge("tracemod_modulation_active_tuple_index", "Ordinal of the replay tuple currently in force (1-based)."),
		serHist: reg.Histogram("tracemod_modulation_serialization_seconds",
			"Serialization time paid per packet at the emulated bottleneck.", nil),
		quantHist: reg.Histogram("tracemod_modulation_quantization_delta_seconds",
			"Signed rounding delta applied by tick quantization.", obs.TickBuckets(tick)),
		delayHist: reg.Histogram("tracemod_modulation_delay_seconds",
			"Total delay scheduled per delivered packet.", nil),
		lagHist: reg.Histogram("tracemod_modulation_delivery_lag_seconds",
			"How late a coalesced delivery batch fired relative to its quantized target (the delivery-deadline SLO input).", nil),
	}
}

// Engine is the modulation layer's scheduler.
type Engine struct {
	mu    sync.Mutex
	clock Clock
	src   Source
	cfg   Config

	cur        core.Tuple
	curOK      bool
	schedEnd   time.Duration // when cur expires on the cumulative schedule
	starved    bool          // source ran dry; realign schedule on resume
	timerArmed bool          // an advance timer is outstanding
	busy       time.Duration // bottleneck queue busy-until

	ins      *instruments // nil = metrics off
	spans    *span.Tracer // nil = self-rooted span tracing off
	inflight int64        // packets currently inside the bottleneck queue

	// pending coalesces tick-quantized deliveries: all packets rounding to
	// the same absolute delivery instant share one clock timer instead of
	// arming one each, which is what keeps a packet burst from flooding the
	// scheduler heap (sim) or the shared emud timer wheel. Batches are
	// recycled through batchFree so steady state allocates no slices.
	// Ordering caveat: a delivery joining an existing batch fires with the
	// first packet's scheduler seq, so it may precede unrelated events
	// scheduled for the same instant in between — deterministic, but
	// same-seed traces interleave differently than without coalescing
	// (DESIGN.md §10, "Delivery coalescing").
	pending   map[time.Duration]*tickBatch
	batchFree []*tickBatch

	// Cached method values for the engine's own timers, so arming one
	// makes no closure.
	advanceFn, occupancyDoneFn func()

	stats Stats
}

// tickBatch is the set of deliveries armed for one quantized instant.
type tickBatch struct {
	fns []func()
}

// NewEngine creates a modulation engine. Modulation time starts at the
// clock's current reading.
func NewEngine(clock Clock, src Source, cfg Config) *Engine {
	if cfg.Tick == 0 {
		cfg.Tick = DefaultTick
	}
	if cfg.Tick < 0 {
		cfg.Tick = 0
	}
	if cfg.RNG == nil {
		cfg.RNG = rand.New(rand.NewSource(DefaultDropSeed))
	}
	e := &Engine{clock: clock, src: src, cfg: cfg, spans: cfg.Spans}
	e.advanceFn, e.occupancyDoneFn = e.onAdvanceTimer, e.onOccupancyDone
	if cfg.Tick > 0 {
		e.pending = make(map[time.Duration]*tickBatch)
	}
	if cfg.Metrics != nil {
		e.ins = newInstruments(cfg.Metrics, cfg.Tick)
		cfg.Metrics.GaugeFunc("tracemod_modulation_bottleneck_busy_seconds",
			"Remaining busy horizon of the bottleneck queue (0 when idle).",
			func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				if rem := e.busy - e.clock.Now(); rem > 0 {
					return rem.Seconds()
				}
				return 0
			})
	}
	e.schedEnd = clock.Now()
	if n, ok := src.(Notifier); ok {
		n.SetOnAvailable(e.onAvailable)
	}
	// Tuples are consumed with the passage of time, as the paper's kernel
	// reads its buffer — not only when traffic happens to arrive.
	e.mu.Lock()
	e.advance(e.schedEnd)
	e.armAdvanceTimer()
	e.mu.Unlock()
	return e
}

// Notifier is implemented by sources that can signal the arrival of new
// tuples after running dry (the pseudo-device does); the engine uses it to
// resume its schedule without polling.
type Notifier interface {
	SetOnAvailable(fn func())
}

// armAdvanceTimer keeps the tuple schedule aligned with the clock even
// when no packets flow. A starved engine does not rearm: it resumes via
// the source's Notifier (or holds its last tuple forever if the trace
// simply ended). Called with e.mu held.
func (e *Engine) armAdvanceTimer() {
	if e.timerArmed || !e.curOK || e.starved {
		return
	}
	wait := e.schedEnd - e.clock.Now()
	if wait <= 0 {
		wait = time.Millisecond
	}
	e.timerArmed = true
	e.clock.AfterFunc(wait, e.advanceFn)
}

// onAdvanceTimer is the advance timer firing.
func (e *Engine) onAdvanceTimer() {
	e.mu.Lock()
	e.timerArmed = false
	e.advance(e.clock.Now())
	e.armAdvanceTimer()
	e.mu.Unlock()
}

// onAvailable is the Notifier callback: new tuples arrived after a dry
// spell.
func (e *Engine) onAvailable() {
	e.mu.Lock()
	e.advance(e.clock.Now())
	e.armAdvanceTimer()
	e.mu.Unlock()
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Current returns the tuple currently in force.
func (e *Engine) Current() (core.Tuple, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cur, e.curOK
}

// advance consumes tuples until the cumulative schedule covers now. Tuples
// keep their place on the schedule even if traffic was idle while they
// expired.
func (e *Engine) advance(now time.Duration) {
	for !e.curOK || now >= e.schedEnd {
		t, ok := e.src.Next()
		if !ok {
			e.starved = true
			return // hold current parameters until the daemon catches up
		}
		if e.starved {
			// The daemon fell behind and resumed: realign the schedule to
			// now so the backlog doesn't all expire instantly.
			e.schedEnd = now
			e.starved = false
		}
		e.stats.Tuples++
		e.cur = t
		e.curOK = true
		e.schedEnd += t.D
		if e.ins != nil {
			e.ins.tuples.Inc()
			e.ins.activeTuple.Set(e.stats.Tuples)
			e.ins.tupleLabel = strconv.FormatInt(e.stats.Tuples, 10)
		}
	}
}

// SubmitWithDrop runs one packet of the given direction and size through
// the layer: exactly one of deliver or drop runs for every packet.
// deliver runs when the packet should continue (possibly immediately,
// from within the call); drop runs synchronously, from within the call,
// when the packet loses the drop lottery. drop may be nil (losses are
// then silent, as on the simulator's hook path).
func (e *Engine) SubmitWithDrop(dir simnet.Direction, size int, deliver, drop func()) {
	e.SubmitSpan(dir, size, nil, deliver, drop)
}

// SubmitSpan is SubmitWithDrop carrying the packet's span: the engine
// records its stage decisions (cursor fast path, compensation, bottleneck
// occupancy, quantization, coalescing) as events on a "modulation" child
// and covers the scheduled wait with a "wheel.wait" grandchild ended when
// the delivery timer fires. parent may be nil (unsampled packet) — the
// path then behaves exactly like SubmitWithDrop.
func (e *Engine) SubmitSpan(dir simnet.Direction, size int, parent *span.Span, deliver, drop func()) {
	sp := e.packetSpan(dir, size, parent)
	e.mu.Lock()
	sync, delay, arm := e.submitLocked(e.clock.Now(), dir, size, sp, deliver, drop)
	e.mu.Unlock()
	if sync != nil {
		sync()
	}
	if arm != nil {
		e.clock.AfterFunc(delay, arm)
	}
}

// Submission is one packet of a SubmitBatch burst. Span may be nil
// (unsampled); Drop may be nil (losses are then silent).
type Submission struct {
	Dir     simnet.Direction
	Size    int
	Span    *span.Span
	Deliver func()
	Drop    func()
}

// batchOutcome carries one burst packet's post-lock actions out of the
// locked decision phase.
type batchOutcome struct {
	sp    *span.Span
	sync  func()
	delay time.Duration
	arm   func()
}

// outcomePool recycles SubmitBatch's scratch slice so steady-state batch
// submission allocates nothing beyond what the per-packet path already
// does.
var outcomePool = sync.Pool{New: func() any {
	s := make([]batchOutcome, 0, 64)
	return &s
}}

// SubmitBatch runs a burst of packets through the layer under a single
// lock acquisition and a single clock reading, amortizing the cached-
// cursor lookup and the same-tick delivery coalescing across the burst.
// Packets are decided strictly in slice order with the same state
// transitions (bottleneck busy horizon, drop-lottery RNG draws, pending
// tick batches) as N sequential SubmitWithDrop calls, so per-packet
// outcomes — deliver vs drop, and the scheduled delivery instant — are
// identical to the sequential equivalent (the differential test in
// batch_test.go holds the two paths together). The only difference is
// that the whole burst shares one Now() reading, which under a real
// clock is the reading the first packet would have seen.
//
// Synchronous outcomes (immediate deliveries, drops) and timer arming
// happen after the lock is released, in slice order.
func (e *Engine) SubmitBatch(subs []Submission) {
	if len(subs) == 0 {
		return
	}
	op := outcomePool.Get().(*[]batchOutcome)
	outs := *op
	if cap(outs) < len(subs) {
		outs = make([]batchOutcome, len(subs))
	} else {
		outs = outs[:len(subs)]
	}
	// Span setup happens outside the lock, as in SubmitSpan.
	for i := range subs {
		outs[i] = batchOutcome{sp: e.packetSpan(subs[i].Dir, subs[i].Size, subs[i].Span)}
	}
	e.mu.Lock()
	now := e.clock.Now()
	for i := range subs {
		s := &subs[i]
		outs[i].sync, outs[i].delay, outs[i].arm = e.submitLocked(now, s.Dir, s.Size, outs[i].sp, s.Deliver, s.Drop)
	}
	e.mu.Unlock()
	for i := range outs {
		if outs[i].sync != nil {
			outs[i].sync()
		}
		if outs[i].arm != nil {
			e.clock.AfterFunc(outs[i].delay, outs[i].arm)
		}
		outs[i] = batchOutcome{} // release closure references before pooling
	}
	*op = outs[:0]
	outcomePool.Put(op)
}

// packetSpan performs the span setup for one packet before the engine
// lock is taken: a caller-provided parent gets a "modulation" child;
// otherwise a configured tracer may root a sampled span of its own. A nil
// result (the common case, and always when tracing is off) keeps the rest
// of the path span-free: nil-safe methods, no allocation.
func (e *Engine) packetSpan(dir simnet.Direction, size int, parent *span.Span) *span.Span {
	var sp *span.Span
	if parent != nil {
		sp = parent.Child("modulation")
	} else if e.spans != nil {
		sp = e.spans.Root("modulation.packet")
	}
	if sp != nil {
		sp.Attr("dir", int64(dir))
		sp.Attr("size", int64(size))
	}
	return sp
}

// submitLocked runs one packet's modulation decision under e.mu (held by
// the caller) and returns the actions to perform once the lock is
// released: sync is the synchronous outcome to invoke (an immediate
// delivery, or the drop callback — nil when the packet was parked on a
// timer), and arm (with its delay) is a timer to schedule. Splitting
// decision from action lets SubmitBatch amortize one lock acquisition and
// one clock read across a whole burst while reusing this exact per-packet
// path, so batch and sequential submission cannot drift apart.
func (e *Engine) submitLocked(now time.Duration, dir simnet.Direction, size int, sp *span.Span, deliver, drop func()) (sync func(), delay time.Duration, arm func()) {
	e.stats.Submitted++
	e.ins.submitPacket() // nil-safe: one branch when obs is off
	// Fast path: the cached cursor (cur/schedEnd) still covers now, so no
	// replay-tuple lookup is needed — the common case, since tuples span
	// many packet times.
	if e.curOK && now < e.schedEnd {
		if sp != nil {
			sp.EventAt("cursor-fastpath", now, 0)
		}
	} else {
		e.advance(now)
		if sp != nil {
			sp.EventAt("cursor-advance", now, e.stats.Tuples)
		}
	}
	if !e.curOK {
		// No tuple has ever arrived: pass traffic through unmodulated,
		// as the kernel does before the daemon first writes.
		e.ins.deliverImmediate(0)
		if sp != nil {
			sp.EventAt("deliver-unmodulated", now, 0)
			sp.EndAt(now)
		}
		return deliver, 0, nil
	}
	t := e.cur
	if sp != nil {
		sp.Attr("tuple", e.stats.Tuples)
	}

	// Per-direction bottleneck cost: inbound packets carry the kernel's
	// receive-path over-delay (InboundExtra) and the measured correction
	// for it (Compensation, Section 3.3 / Figure 1).
	vb := t.Vb
	if dir == simnet.Inbound {
		vb += e.cfg.InboundExtra - e.cfg.Compensation
		if vb < 0 {
			vb = 0
		}
		if e.ins != nil || sp != nil {
			if adjust := vb.Cost(size) - t.Vb.Cost(size); adjust != 0 {
				if e.ins != nil {
					e.ins.compensated.Inc()
				}
				sp.EventAt("compensate", now, int64(adjust))
			}
		}
	}

	// Serialize through the unified bottleneck queue.
	start := now
	if e.busy > start {
		start = e.busy
	}
	finishBottleneck := start + vb.Cost(size)
	e.busy = finishBottleneck
	if e.ins != nil {
		e.ins.serHist.Observe(finishBottleneck - start)
		e.trackOccupancy(now, finishBottleneck)
	}
	if sp != nil {
		sp.EventAt("bneck-enter", now, int64(start-now))
		sp.EventAt("bneck-exit", finishBottleneck, int64(finishBottleneck-start))
	}

	// The drop lottery runs after the bottleneck queue.
	e.stats.Draws++
	if e.cfg.RNG.Float64() < t.L {
		e.stats.Dropped++
		if e.ins != nil {
			e.ins.dropped.Inc()
			e.ins.dropsByTuple.With(e.ins.tupleLabel).Inc()
		}
		if sp != nil {
			sp.EventAt("drop", now, DropLottery)
			sp.EndAt(now)
		}
		return drop, 0, nil // drop may be nil; the caller skips a nil sync
	}

	// Remaining path: latency plus residual per-byte cost, overlapped.
	target := finishBottleneck + t.F + t.Vr.Cost(size)
	delay = target - now

	if e.cfg.Tick > 0 {
		if delay < e.cfg.Tick/2 {
			// Under half a tick: send immediately.
			e.bookImmediate(now, sp)
			return deliver, 0, nil
		}
		// Round the delivery time to the closest clock tick.
		exact := target
		target = roundToTick(target, e.cfg.Tick)
		if e.ins != nil {
			e.ins.quantHist.Observe(target - exact)
		}
		sp.EventAt("quantize", now, int64(target-exact))
		delay = target - now
		if delay <= 0 {
			e.bookImmediate(now, sp)
			return deliver, 0, nil
		}
	} else if delay <= 0 {
		e.bookImmediate(now, sp)
		return deliver, 0, nil
	}

	e.stats.Delayed++
	if e.ins != nil {
		e.ins.delivered.Inc()
		e.ins.scheduled.Inc()
		e.ins.delayHist.Observe(delay)
	}
	if sp != nil {
		// Cover the scheduled wait with a child ended when the timer
		// fires; the modulation span itself ends at the same instant, so
		// the tree shows decision time vs wheel time. Only the sampled
		// path pays for the extra closure. The closure captures a copy of
		// sp scoped to this block — capturing sp itself would move the
		// variable to the heap and cost the unsampled path an allocation.
		psp := sp
		wsp := psp.Child("wheel.wait")
		wsp.Attr("target_ns", int64(target))
		wsp.Attr("delay_ns", int64(delay))
		d := deliver
		deliver = func() {
			at := e.clock.Now()
			wsp.EndAt(at)
			psp.EndAt(at)
			d()
		}
	}
	if e.pending != nil {
		// Tick-quantized deliveries land on a coarse grid, so bursts share
		// delivery instants. Ride the timer already armed for this target
		// instead of arming another one.
		if b, ok := e.pending[target]; ok {
			sp.EventAt("coalesce-join", now, int64(len(b.fns)))
			b.fns = append(b.fns, deliver)
			return nil, 0, nil
		}
		sp.EventAt("coalesce-lead", now, 0)
		b := e.takeBatch()
		b.fns = append(b.fns, deliver)
		e.pending[target] = b
		return nil, delay, func() { e.fireBatch(target) }
	}
	return nil, delay, deliver
}

// takeBatch returns an empty batch from the free list, or a fresh one.
// Called with e.mu held.
func (e *Engine) takeBatch() *tickBatch {
	if n := len(e.batchFree); n > 0 {
		b := e.batchFree[n-1]
		e.batchFree = e.batchFree[:n-1]
		return b
	}
	return &tickBatch{}
}

// fireBatch delivers every packet coalesced onto one quantized instant, in
// submission order, then recycles the batch. Callbacks run outside e.mu:
// they re-enter the stack (and often submit again).
func (e *Engine) fireBatch(target time.Duration) {
	e.mu.Lock()
	b := e.pending[target]
	delete(e.pending, target)
	if e.ins != nil && b != nil {
		// Delivery-deadline indicator: how late the batch actually fired.
		if lag := e.clock.Now() - target; lag >= 0 {
			e.ins.lagHist.Observe(lag)
		}
	}
	e.mu.Unlock()
	if b == nil {
		return
	}
	for i, fn := range b.fns {
		b.fns[i] = nil // drop the closure reference before recycling
		fn()
	}
	b.fns = b.fns[:0]
	e.mu.Lock()
	e.batchFree = append(e.batchFree, b)
	e.mu.Unlock()
}

// bookImmediate books an under-half-tick delivery; the caller invokes
// deliver once e.mu is released. Called with e.mu held.
func (e *Engine) bookImmediate(now time.Duration, sp *span.Span) {
	e.stats.Immediate++
	e.ins.deliverImmediate(0)
	if sp != nil {
		sp.EventAt("deliver-immediate", now, 0)
		sp.EndAt(now)
	}
}

// submitPacket and deliverImmediate are nil-safe instrument helpers so
// the hot path reads as straight-line code when observability is off.
func (ins *instruments) submitPacket() {
	if ins == nil {
		return
	}
	ins.submitted.Inc()
}

func (ins *instruments) deliverImmediate(delay time.Duration) {
	if ins == nil {
		return
	}
	ins.delivered.Inc()
	ins.immediate.Inc()
	ins.delayHist.Observe(delay)
}

// trackOccupancy maintains the bottleneck queue-depth gauge: the packet
// occupies the queue until its serialization finishes, at which point a
// timer decrements the gauge. Only runs with metrics enabled, so the
// plain path schedules no extra timers. Called with e.mu held.
func (e *Engine) trackOccupancy(now, finish time.Duration) {
	if finish <= now {
		return // zero-cost packet: never occupies the queue
	}
	e.inflight++
	e.ins.queueDepth.Set(e.inflight)
	e.clock.AfterFunc(finish-now, e.occupancyDoneFn)
}

// onOccupancyDone is a packet's serialization finishing: it leaves the
// bottleneck queue.
func (e *Engine) onOccupancyDone() {
	e.mu.Lock()
	e.inflight--
	e.ins.queueDepth.Set(e.inflight)
	e.mu.Unlock()
}

func roundToTick(t, tick time.Duration) time.Duration {
	return (t + tick/2) / tick * tick
}

// Hook adapts the engine to a simnet hook; install it on both the inbound
// and outbound paths of the host under test.
func Hook(e *Engine) simnet.Hook {
	return simnet.HookFunc(func(dir simnet.Direction, ip []byte, next func([]byte)) {
		e.SubmitWithDrop(dir, len(ip), func() { next(ip) }, nil)
	})
}

// Install places the modulation layer on node's input and output paths and
// returns the engine for inspection.
func Install(node *simnet.Node, e *Engine) {
	h := Hook(e)
	node.AddOutboundHook(h)
	node.AddInboundHook(h)
}

// PseudoDevice is the kernel half of the tuple-feeding interface: a
// fixed-size in-kernel buffer the user-level daemon writes tuples into,
// blocking when full.
type PseudoDevice struct {
	ch          *sim.Chan[core.Tuple]
	onAvailable func()
}

// SetOnAvailable implements Notifier.
func (d *PseudoDevice) SetOnAvailable(fn func()) { d.onAvailable = fn }

// DefaultBufferTuples is the in-kernel tuple buffer size.
const DefaultBufferTuples = 32

// NewPseudoDevice creates the device with the given buffer capacity.
func NewPseudoDevice(s *sim.Scheduler, capacity int) *PseudoDevice {
	if capacity <= 0 {
		capacity = DefaultBufferTuples
	}
	return &PseudoDevice{ch: sim.NewChan[core.Tuple](s, capacity)}
}

// Next implements Source for the engine (the kernel reading its buffer).
func (d *PseudoDevice) Next() (core.Tuple, bool) {
	return d.ch.TryRecv()
}

// Buffered returns the number of tuples waiting in the kernel buffer.
func (d *PseudoDevice) Buffered() int { return d.ch.Len() }

// Write blocks the daemon process until the kernel buffer accepts the
// tuple, then signals any waiting reader.
func (d *PseudoDevice) Write(p *sim.Proc, t core.Tuple) {
	d.ch.Send(p, t)
	if d.onAvailable != nil {
		d.onAvailable()
	}
}

// StartDaemon spawns the user-level daemon that feeds trace into the
// pseudo-device, once or in a loop. It returns the device to hand to
// NewEngine.
func StartDaemon(s *sim.Scheduler, trace core.Trace, loop bool) *PseudoDevice {
	dev := NewPseudoDevice(s, DefaultBufferTuples)
	s.Spawn("modulation-daemon", func(p *sim.Proc) {
		for {
			for _, t := range trace {
				dev.Write(p, t)
			}
			if !loop {
				return
			}
		}
	})
	return dev
}
