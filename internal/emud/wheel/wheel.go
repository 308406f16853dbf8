// Package wheel implements the shared timer substrate of the emulation
// daemon: a sharded timer wheel that multiplexes every scheduled callback
// of every hosted session onto O(shards) goroutines.
//
// The paper's kernel fires deliveries off the host's 10 ms clock
// interrupt: one periodic tick services every pending packet. The stdlib
// time.AfterFunc, by contrast, costs one runtime timer (and, when it
// fires, a goroutine wakeup) per scheduled packet — fine for one
// modulated link, ruinous for a session farm with tens of thousands of
// packets in flight. The wheel restores the paper's economics: each shard
// runs one goroutine that sleeps until its earliest deadline (optionally
// coalesced onto a tick boundary) and then fires everything due.
//
// Cancellation is per owner, not per timer: a *Timers handle implements
// modulation.Clock for one session, and Timers.Stop suppresses every
// callback scheduled through the handle. Stop is a barrier — once it
// returns, no callback of that handle is running or will ever run — which
// is what makes engine teardown safe while packets are in flight.
//
// A stopped owner's entries are released, not held until due: Stop counts
// them dead on their shards, and a shard whose heap is more than half dead
// (and holds more than 64 dead entries) is compacted in place, the rule
// sim.Scheduler uses. A deleted session's engine, which its far-off
// advance timer would otherwise pin for up to a tuple length, becomes
// garbage after a bounded number of further Stops on that shard.
package wheel

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	"tracemod/internal/faults"
	"tracemod/internal/obs"
	"tracemod/internal/obs/span"
)

// DefaultShards is the shard count used when Options.Shards is zero: a
// small constant, because shards exist to bound goroutines, not to chase
// core counts.
const DefaultShards = 4

// DefaultGranularity mirrors the paper's 10 ms clock-interrupt resolution:
// wheel wakeups coalesce onto 10 ms boundaries, so a shard services every
// deadline in a tick with a single wakeup.
const DefaultGranularity = 10 * time.Millisecond

// Options parameterizes a wheel.
type Options struct {
	// Shards is the number of scheduling goroutines (DefaultShards if 0).
	Shards int
	// Granularity coalesces wakeups onto tick boundaries: a timer due at t
	// fires at the first boundary ≥ t, never early. Zero keeps the
	// wheel's exact-delivery semantics (each shard sleeps until its
	// precise earliest deadline); that is the mode the single-session
	// livewire relay runs in. Negative is treated as zero.
	Granularity time.Duration
	// Metrics, if non-nil, registers the wheel's instruments (names under
	// tracemod_wheel_*).
	Metrics *obs.Registry
	// Now, if non-nil, replaces the wheel's wall-clock reading (tests use
	// it to simulate clock skew and jumps). Must be monotonic-safe to call
	// concurrently; the wheel never assumes successive readings advance.
	Now func() time.Duration
	// Faults, if non-nil, arms the wheel's injection sites: the
	// "wheel.stall" point delays a shard's dispatch pass by its configured
	// Delay, simulating tick stalls and scheduling skew.
	Faults *faults.Injector
	// OnPanic, if non-nil, is invoked after a dispatched callback panics
	// (the wheel recovers: a panicking session must not kill the daemon).
	// owner is the callback's Timers handle, nil for ownerless timers. The
	// hook runs on the shard goroutine — it must not block and must never
	// call Timers.Stop (the owner is already poisoned; stop it from
	// another goroutine).
	OnPanic func(owner *Timers, v any)
	// Spans, if non-nil, roots sampled "wheel.tick" spans around each
	// non-empty dispatch pass (batch size and fire lateness as
	// attributes). Tick spans are independent roots, not parented into
	// packet traces: one tick serves many sessions, and each packet's own
	// wheel wait is already covered by its "wheel.wait" span.
	Spans *span.Tracer
}

// Wheel is a sharded timer wheel. It implements modulation.Clock directly
// for callers that never cancel; sessions schedule through per-owner
// Timers handles instead.
type Wheel struct {
	epoch   time.Time
	nowFn   func() time.Duration // nil = wall clock from epoch
	gran    time.Duration
	shards  []*shard
	next    atomic.Uint64 // round-robin shard placement
	closed  atomic.Bool
	wg      sync.WaitGroup
	stall   *faults.Point // nil = no stall injection
	onPanic func(owner *Timers, v any)
	spans   *span.Tracer // nil = tick spans off

	pending    atomic.Int64 // entries currently in heaps
	scheduled  *obs.Counter
	fired      *obs.Counter
	suppressed *obs.Counter
	panics     *obs.Counter
	lateness   *obs.Histogram // dispatch time minus entry deadline
	panicCount atomic.Int64
}

// New starts a wheel with the given options.
func New(o Options) *Wheel {
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	if o.Granularity < 0 {
		o.Granularity = 0
	}
	w := &Wheel{epoch: time.Now(), nowFn: o.Now, gran: o.Granularity, onPanic: o.OnPanic, spans: o.Spans}
	if o.Faults != nil {
		w.stall = o.Faults.Point("wheel.stall")
	}
	if o.Metrics != nil {
		w.scheduled = o.Metrics.Counter("tracemod_wheel_timers_scheduled_total", "Callbacks scheduled on the timer wheel.")
		w.fired = o.Metrics.Counter("tracemod_wheel_timers_fired_total", "Wheel callbacks that ran.")
		w.suppressed = o.Metrics.Counter("tracemod_wheel_timers_suppressed_total", "Wheel callbacks suppressed by a stopped owner.")
		w.panics = o.Metrics.Counter("tracemod_wheel_callback_panics_total", "Wheel callbacks that panicked (recovered; owner poisoned).")
		w.lateness = o.Metrics.Histogram("tracemod_wheel_fire_lateness_seconds",
			"How late each callback fired relative to its deadline (coalescing admits up to one granularity; more means tick stall or overload). The tick-lateness SLO input.",
			latenessBuckets(o.Granularity))
		o.Metrics.GaugeFunc("tracemod_wheel_timers_pending", "Timers currently waiting in the wheel.",
			func() float64 { return float64(w.pending.Load()) })
		o.Metrics.Gauge("tracemod_wheel_shards", "Scheduling shards (goroutines) in the wheel.").Set(int64(o.Shards))
	}
	for i := 0; i < o.Shards; i++ {
		s := &shard{idx: i, wake: make(chan struct{}, 1), quit: make(chan struct{})}
		w.shards = append(w.shards, s)
		w.wg.Add(1)
		go w.run(s)
	}
	return w
}

// latenessBuckets scales the fire-lateness histogram to the coalescing
// granularity: fine resolution below one tick (where all healthy fires
// land) and a coarse tail for stalls.
func latenessBuckets(gran time.Duration) []time.Duration {
	if gran <= 0 {
		gran = DefaultGranularity
	}
	return []time.Duration{
		gran / 10, gran / 4, gran / 2, gran,
		2 * gran, 5 * gran, 10 * gran, 100 * gran,
	}
}

// FireLateness exposes the fire-lateness histogram (nil when metrics are
// off) — the SLO engine evaluates tick-deadline objectives against it.
func (w *Wheel) FireLateness() *obs.Histogram { return w.lateness }

// Now returns elapsed wheel time (implements modulation.Clock).
func (w *Wheel) Now() time.Duration {
	if w.nowFn != nil {
		return w.nowFn()
	}
	return time.Since(w.epoch)
}

// Panics reports how many dispatched callbacks have panicked (and been
// recovered) over the wheel's lifetime.
func (w *Wheel) Panics() int64 { return w.panicCount.Load() }

// Granularity reports the coalescing tick (0 = exact).
func (w *Wheel) Granularity() time.Duration { return w.gran }

// Shards reports the shard count.
func (w *Wheel) Shards() int { return len(w.shards) }

// Pending reports how many timers are waiting in the wheel.
func (w *Wheel) Pending() int64 { return w.pending.Load() }

// AfterFunc schedules fn with no owner; it cannot be cancelled
// (implements modulation.Clock).
func (w *Wheel) AfterFunc(d time.Duration, fn func()) { w.schedule(nil, d, fn) }

// Timers returns a cancellation scope: a modulation.Clock whose pending
// callbacks can all be revoked at once with Stop.
func (w *Wheel) Timers() *Timers { return &Timers{w: w, pend: make([]int32, len(w.shards))} }

// Close stops every shard goroutine. Pending timers are discarded; Close
// does not wait for in-flight callbacks beyond each shard's current
// dispatch batch.
func (w *Wheel) Close() {
	if w.closed.Swap(true) {
		return
	}
	for _, s := range w.shards {
		close(s.quit)
	}
	w.wg.Wait()
}

// Timers is a per-owner scheduling handle (one per emud session). It
// implements modulation.Clock.
type Timers struct {
	w       *Wheel
	stopped atomic.Bool
	// barrier orders callback dispatch against Stop: callbacks run under
	// RLock, Stop sets the flag and then takes the write lock, so Stop
	// returns only after every in-flight callback has finished and no
	// later one can start. Callbacks must therefore never call Stop on
	// their own handle (sessions stop from the control plane or the
	// manager's janitor goroutine, never from inside a delivery).
	barrier sync.RWMutex
	// pend[i] counts this handle's entries in shard i's heap that are not
	// yet counted in that shard's dead total; guarded by shard i's mu.
	pend []int32
}

// Now implements modulation.Clock.
func (t *Timers) Now() time.Duration { return t.w.Now() }

// AfterFunc implements modulation.Clock. After Stop it is a no-op.
func (t *Timers) AfterFunc(d time.Duration, fn func()) {
	if t.stopped.Load() {
		return
	}
	t.w.schedule(t, d, fn)
}

// Stopped reports whether Stop has been called.
func (t *Timers) Stopped() bool { return t.stopped.Load() }

// Stop revokes every callback scheduled through the handle. When Stop
// returns, no callback is running and none will ever run. The handle's
// entries still in shard heaps are counted dead there and released by
// compaction once dead entries dominate a shard (or when they come due,
// if that is sooner), so a stopped owner is not pinned until its latest
// deadline.
func (t *Timers) Stop() {
	t.stopped.Store(true)
	t.barrier.Lock()
	//lint:ignore SA2001 the empty critical section is the point: taking the
	// write lock waits out every dispatch holding the read lock.
	t.barrier.Unlock()
	for i, s := range t.w.shards {
		s.mu.Lock()
		if n := t.pend[i]; n > 0 {
			t.pend[i] = 0
			s.dead += int(n)
			if s.dead > 64 && s.dead > len(s.h)/2 {
				t.w.compact(s)
			}
		}
		s.mu.Unlock()
	}
}

// entry is one scheduled callback.
type entry struct {
	at    time.Duration // absolute wheel time
	seq   uint64        // FIFO tiebreak for equal deadlines
	fn    func()
	owner *Timers // nil = uncancellable
}

type shard struct {
	idx  int
	mu   sync.Mutex
	h    entryHeap
	seq  uint64
	dead int // entries of stopped owners still in h
	wake chan struct{}
	quit chan struct{}
	due  []entry // dispatch scratch, reused across wakeups
}

// schedule places fn on a shard, waking it if the new entry becomes the
// earliest deadline.
func (w *Wheel) schedule(owner *Timers, d time.Duration, fn func()) {
	if w.closed.Load() {
		return
	}
	if d < 0 {
		d = 0
	}
	at := w.Now() + d
	s := w.shards[w.next.Add(1)%uint64(len(w.shards))]
	s.mu.Lock()
	s.seq++
	earliest := s.h.Len() == 0 || at < s.h[0].at
	heap.Push(&s.h, entry{at: at, seq: s.seq, fn: fn, owner: owner})
	if owner != nil {
		owner.pend[s.idx]++
	}
	s.mu.Unlock()
	w.pending.Add(1)
	w.scheduled.Inc()
	if earliest {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// run is one shard's scheduling loop: pop everything due, dispatch it
// outside the lock, then sleep until the next deadline (aligned up to the
// granularity boundary when coalescing) or until a new earliest arrives.
func (w *Wheel) run(s *shard) {
	defer w.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		// Injected tick stall: the shard sleeps before servicing its heap,
		// so deadlines slip late — which the wheel's contract allows (never
		// early) and the chaos suite exercises.
		w.stall.Stall()
		now := w.Now()
		s.mu.Lock()
		s.due = s.due[:0]
		for s.h.Len() > 0 && s.h[0].at <= now {
			e := heap.Pop(&s.h).(entry)
			s.forget(e.owner)
			s.due = append(s.due, e)
		}
		wait := time.Duration(-1)
		if s.h.Len() > 0 {
			next := s.h[0].at
			if w.gran > 0 {
				// Coalesce: wake at the first tick boundary ≥ the deadline.
				next = (next + w.gran - 1) / w.gran * w.gran
			}
			wait = next - now
			if wait <= 0 {
				wait = time.Millisecond
			}
		}
		s.mu.Unlock()
		if n := len(s.due); n > 0 {
			w.pending.Add(int64(-n))
			if w.lateness != nil {
				for i := range s.due {
					w.lateness.Observe(now - s.due[i].at)
				}
			}
			// Sampled tick span: one root per non-empty dispatch pass.
			// s.due[0] is the earliest deadline in the pass (heap order).
			tick := w.spans.Root("wheel.tick")
			if tick != nil {
				tick.Attr("batch", int64(n))
				tick.Attr("lateness_ns", int64(now-s.due[0].at))
			}
			for i := range s.due {
				s.due[i].run(w)
				s.due[i] = entry{} // drop refs so pooled closures can be collected
			}
			tick.End()
		}
		if wait < 0 {
			// Idle: nothing scheduled, park until woken.
			select {
			case <-s.wake:
			case <-s.quit:
				return
			}
			continue
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-s.wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-s.quit:
			if !timer.Stop() {
				<-timer.C
			}
			return
		}
	}
}

// forget accounts for one entry of owner leaving the heap (s.mu held):
// it was counted either in the owner's pend or, once the owner stopped,
// in the shard's dead total.
func (s *shard) forget(owner *Timers) {
	if owner == nil {
		return
	}
	if owner.pend[s.idx] > 0 {
		owner.pend[s.idx]--
	} else {
		s.dead--
	}
}

// compact drops every stopped owner's entries from the shard's heap and
// re-heapifies it in place (s.mu held). The dropped callbacks count as
// suppressed, exactly as if they had come due after Stop.
func (w *Wheel) compact(s *shard) {
	live := s.h[:0]
	for _, e := range s.h {
		if e.owner != nil && e.owner.stopped.Load() {
			s.forget(e.owner)
			continue
		}
		live = append(live, e)
	}
	removed := len(s.h) - len(live)
	clear(s.h[len(live):])
	s.h = live
	heap.Init(&s.h)
	w.pending.Add(int64(-removed))
	w.suppressed.Add(int64(removed))
}

// run dispatches the entry, honouring its owner's Stop barrier and
// isolating panics: a panicking callback is recovered, counted, and its
// owner poisoned (every later callback of that handle is suppressed), so
// one broken session cannot take the shard goroutine — and with it the
// whole daemon — down.
func (e *entry) run(w *Wheel) {
	o := e.owner
	if o != nil {
		o.barrier.RLock()
		if o.stopped.Load() {
			o.barrier.RUnlock()
			w.suppressed.Inc()
			return
		}
	}
	v := invoke(e.fn)
	if o != nil {
		if v != nil {
			// Poison before releasing the barrier so no later callback of
			// this owner starts; the full Stop (barrier + relay teardown)
			// must come from another goroutine.
			o.stopped.Store(true)
		}
		o.barrier.RUnlock()
	}
	if v != nil {
		w.panicCount.Add(1)
		w.panics.Inc()
		if w.onPanic != nil {
			w.onPanic(o, v)
		}
		return
	}
	w.fired.Inc()
}

// invoke runs fn, converting a panic into a returned value.
func invoke(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// entryHeap is a min-heap on (at, seq).
type entryHeap []entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)   { *h = append(*h, x.(entry)) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = entry{}
	*h = old[:n-1]
	return e
}
