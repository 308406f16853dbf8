// Package sim provides a deterministic virtual-time simulation kernel.
//
// The kernel combines an event heap with cooperatively scheduled processes.
// Processes are coroutines (iter.Pull), so exactly one of them (or the
// scheduler itself) runs at any instant: when a process blocks on a kernel
// primitive (Sleep, channel operations, Wait) it switches straight back to
// the scheduler, and a wakeup event switches straight into it, without a
// trip through the Go scheduler. Events with equal timestamps fire in the
// order they were scheduled. Together these rules make every run
// bit-reproducible for a given seed, which is the property the trace
// modulation methodology exists to provide.
//
// A panic inside a process ends that process and surfaces at the caller of
// Run or RunUntil, which may recover it like any other panic.
//
// A bounded run usually ends with processes still parked (servers waiting
// for requests, daemons waiting for buffer space). Close unwinds them and
// drops pending events, so the finished simulation can be collected.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"time"
)

// Time is an absolute virtual timestamp in nanoseconds since the start of
// the simulation.
type Time int64

// Duration re-exports time.Duration for callers that want a single import.
type Duration = time.Duration

// Add returns the timestamp d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the absolute timestamp to a duration since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the timestamp as floating-point seconds since time zero.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// event is one scheduled callback. Events are pooled per scheduler: At
// draws from the free list, and an event goes back onto it when it fires
// or its Timer is stopped, so steady-state scheduling allocates nothing.
type event struct {
	fn  func()
	seq uint64 // schedule order; 0 means "recycled, not in the heap"
	idx int    // the event's slot in the heap while it is queued
}

// slot is one heap entry: the event's (at, seq) key inline, so sifting
// compares keys without following the event pointer.
type slot struct {
	at  Time
	seq uint64
	e   *event
}

// before is the heap order: time, then schedule order, so events with
// equal timestamps fire in the order they were scheduled.
func (a slot) before(b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Scheduler owns virtual time. It must only be manipulated from the
// goroutine that calls Run (directly or from event callbacks) or from the
// single process it has currently resumed.
type Scheduler struct {
	now Time
	// events is a 4-ary min-heap of the queued events, ordered by
	// slot.before, and nothing else: Timer.Stop takes its event out at
	// once. Quaternary beats binary here: a sift-down compares four
	// adjacent keys per level and the tree is half as deep, which is
	// where the run loop spends its time once per-event allocation is
	// gone.
	events []slot
	free   []*event // recycled events (the per-scheduler pool)
	seq    uint64
	seed   int64
	rngs   map[string]*rand.Rand // memoized per-component streams

	// Datagram buffer free lists, one per size class (see Buf).
	smallBufs, mtuBufs [][]byte
	pinned             map[*byte]bool // buffers ReleaseBuf must ignore

	live    []*Proc // processes spawned and not yet exited
	stopped bool
}

// New returns a scheduler whose RNG streams derive from seed.
func New(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Seed returns the base seed the scheduler was created with.
func (s *Scheduler) Seed() int64 { return s.seed }

// RNG returns a deterministic random stream for the named component. Streams
// for distinct names are independent, so adding a component does not perturb
// the draws seen by others. The stream is created on first use and cached:
// calling RNG with the same name again returns the same stream (continuing
// where it left off) and performs no allocation.
func (s *Scheduler) RNG(name string) *rand.Rand {
	if r, ok := s.rngs[name]; ok {
		return r
	}
	// Inline FNV-1a over "<seed>|<name>" without the fmt/hash allocations.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for v := uint64(s.seed); ; v /= 10 {
		h = (h ^ (v%10 + '0')) * prime64
		if v < 10 {
			break
		}
	}
	h = (h ^ '|') * prime64
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	r := rand.New(rand.NewSource(int64(h)))
	if s.rngs == nil {
		s.rngs = make(map[string]*rand.Rand)
	}
	s.rngs[name] = r
	return r
}

// Datagram buffer size classes. A buffer's capacity names its class.
const (
	// SmallBufCap holds ACKs, ICMP echoes and NFS status checks.
	SmallBufCap = 128
	// MTUBufCap holds any datagram up to the 1500-byte MTU; it is the
	// size class the Go allocator would round a 1500-byte buffer up to.
	MTUBufCap = 1536
)

// Buf returns a zeroed buffer of length n for one datagram, from the
// scheduler's free list of its size class. The free lists belong to the
// scheduler, like its event pool: they need no locks, since one scheduler
// runs on one goroutine, and they die with it. A buffer longer than
// MTUBufCap is allocated and never recycled.
//
// Whoever finally consumes the datagram gives the buffer back with
// ReleaseBuf. A buffer nobody releases is garbage, never a leak, so a
// missed release only costs an allocation; releasing a buffer that is
// still in use is the bug to avoid.
func (s *Scheduler) Buf(n int) []byte {
	free, c := &s.mtuBufs, MTUBufCap
	if n <= SmallBufCap {
		free, c = &s.smallBufs, SmallBufCap
	} else if n > MTUBufCap {
		return make([]byte, n)
	}
	if k := len(*free); k > 0 {
		b := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		return b[:n]
	}
	return make([]byte, n, c)
}

// ReleaseBuf gives a datagram buffer back to the free list of its size
// class. b must be the whole buffer Buf returned (any length, the same
// start), and the caller must be its last owner. The buffer is zeroed
// here rather than in Buf, so a stale reader sees zeros (which fail every
// checksum) instead of another datagram's bytes. A buffer whose capacity
// names no class, or one pinned by PinBuf, is left to the garbage
// collector.
func (s *Scheduler) ReleaseBuf(b []byte) {
	var free *[][]byte
	switch cap(b) {
	case SmallBufCap:
		free = &s.smallBufs
	case MTUBufCap:
		free = &s.mtuBufs
	default:
		return
	}
	b = b[:cap(b)]
	if s.pinned != nil && s.pinned[&b[0]] {
		return
	}
	clear(b)
	*free = append(*free, b)
}

// PinBuf marks b as shared by several owners at once (a broadcast frame):
// ReleaseBuf ignores it from now on, so it is never recycled.
func (s *Scheduler) PinBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	if s.pinned == nil {
		s.pinned = make(map[*byte]bool)
	}
	s.pinned[&b[:1][0]] = true
}

// schedule places a pooled event on the heap and returns it.
func (s *Scheduler) schedule(t Time, fn func()) *event {
	if t < s.now {
		t = s.now
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = new(event)
	}
	s.seq++
	e.seq, e.fn = s.seq, fn
	s.events = append(s.events, slot{})
	s.siftUp(len(s.events)-1, slot{at: t, seq: s.seq, e: e})
	return e
}

// recycle returns an event that left the heap to the pool. Zeroing seq
// disarms any Timer still holding the event (a stale Stop compares seq
// and no-ops), and dropping fn releases the closure.
func (s *Scheduler) recycle(e *event) {
	e.fn = nil
	e.seq = 0
	s.free = append(s.free, e)
}

// siftUp places x at slot i of the 4-ary heap, walking it toward the root
// past any larger parents. Every slot it writes records its index in its
// event.
func (s *Scheduler) siftUp(i int, x slot) {
	h := s.events
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].e.idx = i
		i = p
	}
	h[i] = x
	x.e.idx = i
}

// siftDown places x at slot i of the 4-ary heap, walking it toward the
// leaves past any smaller children. Every slot it writes records its
// index in its event.
func (s *Scheduler) siftDown(i int, x slot) {
	h := s.events
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		// Pick the smallest of up to four children.
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(x) {
			break
		}
		h[i] = h[min]
		h[i].e.idx = i
		i = min
	}
	h[i] = x
	x.e.idx = i
}

// remove takes the slot at index i out of the heap and returns it: the
// last slot fills the hole and sifts whichever way its key needs.
func (s *Scheduler) remove(i int) slot {
	h := s.events
	x := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	s.events = h[:n]
	if i < n {
		if i > 0 && last.before(h[(i-1)/4]) {
			s.siftUp(i, last)
		} else {
			s.siftDown(i, last)
		}
	}
	return x
}

// At schedules fn to run at absolute time t. Scheduling in the past runs the
// event at the current time (events never travel backwards).
func (s *Scheduler) At(t Time, fn func()) { s.schedule(t, fn) }

// After schedules fn to run d from now.
func (s *Scheduler) After(d time.Duration, fn func()) { s.schedule(s.now.Add(d), fn) }

// Timer is a handle to a scheduled event that can be cancelled before it
// fires. The zero Timer is inert. Like every scheduler operation, Stop must
// be called from scheduler context (an event callback or the currently
// resumed process).
type Timer struct {
	s   *Scheduler
	e   *event
	seq uint64
}

// AtTimer is At returning a cancellable handle.
func (s *Scheduler) AtTimer(t Time, fn func()) Timer {
	e := s.schedule(t, fn)
	return Timer{s: s, e: e, seq: e.seq}
}

// AfterTimer is After returning a cancellable handle.
func (s *Scheduler) AfterTimer(d time.Duration, fn func()) Timer {
	return s.AtTimer(s.now.Add(d), fn)
}

// Stop cancels the timer and reports whether it was still pending. The
// event leaves the heap at once, found by the slot index it keeps, and
// goes back to the pool with its closure released, so the heap holds
// only live events however many timers are re-armed. Stopping an
// already-fired or already-stopped timer is a no-op: its event was
// recycled, and the handle's schedule number no longer matches.
func (t Timer) Stop() bool {
	e := t.e
	if e == nil || e.seq != t.seq {
		return false
	}
	t.s.remove(e.idx)
	t.s.recycle(e)
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.e != nil && t.e.seq == t.seq
}

// Stop makes Run return after the current event completes. Pending events
// remain queued.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the final virtual time. Run panics if any process is still blocked when
// the event queue drains: that indicates a deadlock in the simulated system.
func (s *Scheduler) Run() Time {
	return s.run(math.MaxInt64, true)
}

// RunUntil executes events until virtual time would exceed t, the queue
// drains, or Stop is called. Events at exactly t still run. Unlike Run,
// draining with blocked processes is not treated as a deadlock: bounded
// runs routinely leave daemons parked (e.g. a looping modulation daemon
// blocked on a full buffer).
func (s *Scheduler) RunUntil(t Time) Time {
	return s.run(t, false)
}

// RunFor executes events for d of virtual time from now.
func (s *Scheduler) RunFor(d time.Duration) Time { return s.RunUntil(s.now.Add(d)) }

// run fires events in (at, seq) order until the next one is due after
// limit, the queue drains, or Stop is called. Each event is recycled
// before its callback runs, so whatever the callback schedules can reuse
// it.
func (s *Scheduler) run(limit Time, checkDeadlock bool) Time {
	s.stopped = false
	for !s.stopped && len(s.events) > 0 && s.events[0].at <= limit {
		top := s.remove(0)
		s.now = top.at
		fn := top.e.fn
		s.recycle(top.e)
		fn()
	}
	if checkDeadlock && !s.stopped && s.Idle() && len(s.live) > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events at %v", len(s.live), s.now))
	}
	return s.now
}

// Idle reports whether no events remain queued.
func (s *Scheduler) Idle() bool { return len(s.events) == 0 }

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.events) }

// Procs returns the number of live processes.
func (s *Scheduler) Procs() int { return len(s.live) }

// Proc is a cooperatively scheduled simulated process. All Proc methods must
// be called from the process itself.
type Proc struct {
	s    *Scheduler
	name string
	// next resumes the process coroutine until it parks or exits; yield,
	// called by the process, switches back to whoever called next.
	next    func() (struct{}, bool)
	yield   func(struct{}) bool
	done    bool
	started bool // the coroutine exists (its start event has run)
	killed  bool // set by Close: the next park unwinds the process
	slot    int  // index in s.live while the process is alive
	// unparkFn caches the unpark method value so hot primitives (Sleep,
	// channel wakeups) can schedule it without allocating a new closure
	// per call.
	unparkFn func()
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sched returns the owning scheduler.
func (p *Proc) Sched() *Scheduler { return p.s }

// Now returns current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Spawn creates a process executing fn. fn starts at the current virtual
// time, after already-queued events at this instant.
func (s *Scheduler) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name, slot: len(s.live)}
	p.unparkFn = p.unpark
	s.live = append(s.live, p)
	s.At(s.now, func() {
		p.started = true
		// The coroutine runs fn and ends when fn returns, is unwound by
		// Close, or panics; iter.Pull carries a panic out through next.
		// Its stop function is not needed: Close ends a parked process
		// by resuming it into the killed unwind.
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer p.exit()
			p.run(fn)
		})
		p.unpark()
	})
	return p
}

// run calls fn, absorbing the unwind Close starts. Any other panic
// propagates out of the coroutine to whoever resumed it: the caller of
// Run or RunUntil.
func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if !p.killed {
			return
		}
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
		}
	}()
	fn(p)
}

// exit marks p finished and drops it from the live set.
func (p *Proc) exit() {
	s := p.s
	p.done = true
	last := s.live[len(s.live)-1]
	s.live[p.slot] = last
	last.slot = p.slot
	s.live[len(s.live)-1] = nil
	s.live = s.live[:len(s.live)-1]
}

// killed is the panic value Close uses to unwind a parked process. The
// process wrapper recovers it; it never escapes the process coroutine.
type killed struct{}

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// park blocks the calling process and returns control to the scheduler.
// Someone must later call unpark (via a scheduled event) to resume it. A
// process being unwound by Close panics here instead, so a deferred call
// that would block again unwinds too rather than parking forever.
func (p *Proc) park() {
	if p.killed {
		panic(killed{})
	}
	p.yield(struct{}{})
	if p.killed {
		panic(killed{})
	}
}

// Close ends the simulation: it unwinds every live process and drops every
// pending event, releasing the process coroutines and everything the
// simulated world still references. A bounded run (RunUntil) typically
// leaves servers and daemons parked forever; without Close each one pins
// its coroutine and, through it, the whole world it ran in.
//
// A process unwound by Close runs its deferred calls, but any attempt to
// block again (Sleep, a channel operation, Wait) unwinds it at once. Close
// must be called from outside the scheduler (after Run or RunUntil has
// returned), never from an event or a process. The scheduler must not be
// used afterwards; a second Close is a no-op.
func (s *Scheduler) Close() {
	for len(s.live) > 0 {
		p := s.live[len(s.live)-1]
		p.killed = true
		if p.started {
			p.unpark() // returns once the coroutine has exited
		} else {
			p.exit() // its start event never ran: there is no coroutine
		}
	}
	for _, x := range s.events {
		x.e.seq = 0 // a Timer held past Close stays inert
	}
	s.events, s.free = nil, nil
	s.smallBufs, s.mtuBufs, s.pinned = nil, nil, nil
}

// unpark switches into p and returns once it parks again or exits. It
// must be called from scheduler context (inside an event callback), never
// from another process.
func (p *Proc) unpark() { p.next() }

// Sleep suspends the process for d of virtual time. Non-positive durations
// yield to other events scheduled at the current instant.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.s.After(d, p.unparkFn)
	p.park()
}

// Yield reschedules the process after all events queued at the current
// instant.
func (p *Proc) Yield() { p.Sleep(0) }

// waiter is a parked process waiting on a channel, with the slot through
// which a value is delivered. Waiters are recycled per channel: a blocking
// operation takes one from the channel's free list and gives it back once
// its process has resumed, so a wait allocates nothing in steady state.
type waiter[T any] struct {
	c        *Chan[T]
	p        *Proc
	val      T
	ok       bool
	done     bool // value delivered or channel closed
	timedOut bool
	deadline Timer  // RecvTimeout's pending deadline
	expireFn func() // cached expire method value: the deadline's callback
}

// expire is a RecvTimeout deadline firing. A waiter the deadline ends
// leaves the receive queue at once, since it is recycled when its process
// resumes: a value sent after this instant must find the buffer or the
// next waiter, never this one.
func (w *waiter[T]) expire() {
	if w.done {
		return // the value came first at this instant and wins
	}
	w.timedOut = true
	q := &w.c.recvW
	for i := q.head; i < len(q.q); i++ {
		if q.q[i] == w {
			q.removeAt(i)
			break
		}
	}
	w.c.s.At(w.c.s.now, w.p.unparkFn)
}

// fifo is a queue that reuses its backing array: a pop advances the head,
// and a push that reaches the end of the array first slides the queued
// entries down to the front, so a queue in steady state allocates nothing.
type fifo[E any] struct {
	q    []E // live entries are q[head:]
	head int
}

func (f *fifo[E]) len() int { return len(f.q) - f.head }

func (f *fifo[E]) push(v E) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, v)
}

// pop removes and returns the oldest entry; the queue must not be empty.
func (f *fifo[E]) pop() E {
	v := f.q[f.head]
	f.removeAt(f.head)
	return v
}

// removeAt deletes the entry at index i of f.q, keeping the order of the
// others.
func (f *fifo[E]) removeAt(i int) {
	var zero E
	if i == f.head {
		f.q[i] = zero
		f.head++
	} else {
		copy(f.q[i:], f.q[i+1:])
		f.q[len(f.q)-1] = zero
		f.q = f.q[:len(f.q)-1]
	}
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
}

// Chan is an ordered, optionally buffered channel usable from processes
// (blocking operations) and from event context (non-blocking operations).
type Chan[T any] struct {
	s      *Scheduler
	buf    fifo[T]
	cap    int // 0 means rendezvous is not supported; see NewChan
	closed bool
	recvW  fifo[*waiter[T]]
	sendW  fifo[*waiter[T]]
	free   []*waiter[T] // recycled waiters
}

// NewChan creates a channel with the given buffer capacity. Capacity must be
// at least 1: rendezvous channels are not needed by this codebase and keeping
// a buffer makes event-context sends well-defined.
func NewChan[T any](s *Scheduler, capacity int) *Chan[T] {
	if capacity < 1 {
		panic("sim: NewChan capacity must be >= 1")
	}
	return &Chan[T]{s: s, cap: capacity}
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.len() }

// Cap returns the buffer capacity.
func (c *Chan[T]) Cap() int { return c.cap }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// wait takes a waiter for p from the free list.
func (c *Chan[T]) wait(p *Proc) *waiter[T] {
	var w *waiter[T]
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		w = &waiter[T]{c: c}
		w.expireFn = w.expire
	}
	w.p = p
	return w
}

// recycle returns a finished waiter to the free list. Its process has
// resumed, so no queue and no pending deadline refers to it any more.
func (c *Chan[T]) recycle(w *waiter[T]) {
	var zero T
	w.p, w.val, w.ok, w.done, w.timedOut, w.deadline = nil, zero, false, false, false, Timer{}
	c.free = append(c.free, w)
}

// Close closes the channel. Blocked receivers drain remaining buffered
// values; once empty they observe ok=false. Sending on a closed channel
// panics, matching Go channel semantics.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	// Wake receivers that cannot be satisfied from the buffer.
	for c.recvW.len() > 0 && c.buf.len() == 0 {
		w := c.recvW.pop()
		w.done = true
		w.ok = false
		c.s.At(c.s.now, w.p.unparkFn)
	}
}

// deliver hands v to a waiting receiver if any; reports whether delivered.
// Must run in scheduler context or from the single running process.
func (c *Chan[T]) deliver(v T) bool {
	if c.recvW.len() == 0 {
		return false
	}
	w := c.recvW.pop()
	w.val = v
	w.ok = true
	w.done = true
	c.s.At(c.s.now, w.p.unparkFn)
	return true
}

// TrySend enqueues v without blocking. It reports false if the buffer is
// full and no receiver is waiting. Safe from event context.
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	if c.buf.len() == 0 && c.deliver(v) {
		return true
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return true
	}
	return false
}

// Send blocks the calling process until the value is accepted.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.TrySend(v) {
		return
	}
	w := c.wait(p)
	w.val = v
	c.sendW.push(w)
	p.park()
	if !w.done {
		panic("sim: sender resumed without completion")
	}
	c.recycle(w)
}

// TryRecv receives without blocking. ok reports whether a value was
// received. Safe from event context.
func (c *Chan[T]) TryRecv() (T, bool) {
	if c.buf.len() > 0 {
		v := c.buf.pop()
		c.admitSender()
		return v, true
	}
	var zero T
	return zero, false
}

// admitSender moves one blocked sender's value into the buffer (or to a
// receiver) after space frees up.
func (c *Chan[T]) admitSender() {
	if c.sendW.len() == 0 {
		return
	}
	w := c.sendW.pop()
	w.done = true
	if !c.deliver(w.val) {
		c.buf.push(w.val)
	}
	c.s.At(c.s.now, w.p.unparkFn)
}

// Recv blocks the calling process until a value arrives or the channel is
// closed and drained; ok is false in the latter case.
func (c *Chan[T]) Recv(p *Proc) (T, bool) {
	if v, ok := c.TryRecv(); ok {
		return v, true
	}
	if c.closed {
		var zero T
		return zero, false
	}
	w := c.wait(p)
	c.recvW.push(w)
	p.park()
	v, ok := w.val, w.ok
	c.recycle(w)
	return v, ok
}

// RecvTimeout is Recv with a deadline d from now. timedOut reports whether
// the deadline elapsed before a value arrived. A value and the deadline at
// the same instant resolve in event order: a value delivered before the
// deadline fires wins.
func (c *Chan[T]) RecvTimeout(p *Proc, d time.Duration) (v T, ok bool, timedOut bool) {
	if v, ok := c.TryRecv(); ok {
		return v, true, false
	}
	if c.closed {
		var zero T
		return zero, false, false
	}
	if d <= 0 {
		var zero T
		return zero, false, true
	}
	w := c.wait(p)
	c.recvW.push(w)
	w.deadline = c.s.AfterTimer(d, w.expireFn)
	p.park()
	// A wait the value ended leaves no dead deadline in the heap.
	w.deadline.Stop()
	v, ok, timedOut = w.val, w.ok, w.timedOut
	c.recycle(w)
	return v, ok, timedOut
}

// WaitGroup tracks completion of a set of processes or activities in
// virtual time.
type WaitGroup struct {
	s     *Scheduler
	count int
	wait  []*Proc
}

// NewWaitGroup returns a WaitGroup bound to s.
func NewWaitGroup(s *Scheduler) *WaitGroup { return &WaitGroup{s: s} }

// Add increments the counter by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the counter; at zero all waiters resume.
func (wg *WaitGroup) Done() {
	wg.count--
	if wg.count < 0 {
		panic("sim: WaitGroup counter below zero")
	}
	if wg.count == 0 {
		for _, p := range wg.wait {
			wg.s.At(wg.s.now, p.unparkFn)
		}
		clear(wg.wait)
		wg.wait = wg.wait[:0]
	}
}

// Wait blocks the calling process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.wait = append(wg.wait, p)
	p.park()
}

// Go spawns fn as a process tracked by the WaitGroup.
func (wg *WaitGroup) Go(name string, fn func(p *Proc)) {
	wg.Add(1)
	wg.s.Spawn(name, func(p *Proc) {
		defer wg.Done()
		fn(p)
	})
}
