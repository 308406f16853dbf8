package sim

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(10, func() { got = append(got, 1) })
	s.At(5, func() { got = append(got, 0) })
	s.At(10, func() { got = append(got, 2) }) // same time: FIFO by seq
	s.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want 10", s.Now())
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	s := New(1)
	fired := Time(-1)
	s.At(100, func() {
		s.At(50, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %v, want 100", fired)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %v after Run, want 3 events", fired)
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	n := 0
	s.At(1, func() { n++; s.Stop() })
	s.At(2, func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("ran %d events, want 1", n)
	}
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var wake []Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Nanosecond)
		wake = append(wake, p.Now())
		p.Sleep(10 * time.Nanosecond)
		wake = append(wake, p.Now())
	})
	s.Run()
	if len(wake) != 2 || wake[0] != 5 || wake[1] != 15 {
		t.Fatalf("wake times = %v, want [5 15]", wake)
	}
	if s.Procs() != 0 {
		t.Fatalf("procs = %d, want 0", s.Procs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New(7)
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			s.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Duration(1+i) * time.Millisecond)
					log = append(log, name)
				}
			})
		}
		s.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("length changed across runs")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("run %d diverged at %d: %v vs %v", trial, i, first, again)
			}
		}
	}
}

func TestChanSendRecv(t *testing.T) {
	s := New(1)
	c := NewChan[int](s, 2)
	var got []int
	s.Spawn("recv", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	s.Spawn("send", func(p *Proc) {
		for i := 0; i < 5; i++ {
			c.Send(p, i)
			p.Sleep(time.Microsecond)
		}
		c.Close()
	})
	s.Run()
	if len(got) != 5 {
		t.Fatalf("got %v, want 5 values", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want ordered 0..4", got)
		}
	}
}

func TestChanBackpressure(t *testing.T) {
	s := New(1)
	c := NewChan[int](s, 1)
	var sendDone Time
	s.Spawn("send", func(p *Proc) {
		c.Send(p, 1) // fills buffer
		c.Send(p, 2) // blocks until receiver drains
		sendDone = p.Now()
	})
	s.Spawn("recv", func(p *Proc) {
		p.Sleep(100 * time.Nanosecond)
		if v, ok := c.Recv(p); !ok || v != 1 {
			t.Errorf("first recv = %v,%v", v, ok)
		}
		if v, ok := c.Recv(p); !ok || v != 2 {
			t.Errorf("second recv = %v,%v", v, ok)
		}
	})
	s.Run()
	if sendDone < 100 {
		t.Fatalf("second send completed at %v, want >= 100 (after drain)", sendDone)
	}
}

func TestChanRecvTimeout(t *testing.T) {
	s := New(1)
	c := NewChan[string](s, 1)
	var timedOut, gotValue bool
	s.Spawn("recv", func(p *Proc) {
		_, _, timedOut = c.RecvTimeout(p, 10*time.Nanosecond)
		v, ok, to := c.RecvTimeout(p, 100*time.Nanosecond)
		gotValue = ok && !to && v == "hi"
	})
	s.At(50, func() { c.TrySend("hi") })
	s.Run()
	if !timedOut {
		t.Fatal("first recv should have timed out")
	}
	if !gotValue {
		t.Fatal("second recv should have received the value")
	}
}

func TestRecvTimeoutSatisfiedLeavesNoTimer(t *testing.T) {
	// A ticker keeps exactly one event pending, so a satisfied wait that
	// cancels its deadline finds the pending count it started with.
	s := New(1)
	c := NewChan[int](s, 1)
	var tick func()
	tick = func() {
		c.TrySend(1)
		s.After(100, tick)
	}
	s.At(100, tick)
	var timedOut, got bool
	before, after := -1, -2
	s.Spawn("recv", func(p *Proc) {
		_, _, timedOut = c.RecvTimeout(p, 10)
		before = s.Pending()
		_, ok, to := c.RecvTimeout(p, time.Hour)
		got = ok && !to
		after = s.Pending()
	})
	s.RunUntil(1000)
	if !timedOut {
		t.Fatal("a wait with no value must still report timedOut")
	}
	if !got {
		t.Fatal("second wait should have received the ticker's value")
	}
	if after != before {
		t.Fatalf("pending events after a satisfied wait = %d, before = %d: the deadline was left behind", after, before)
	}
}

func TestChanRecvTimeoutZero(t *testing.T) {
	s := New(1)
	c := NewChan[int](s, 1)
	var to bool
	s.Spawn("r", func(p *Proc) { _, _, to = c.RecvTimeout(p, 0) })
	s.Run()
	if !to {
		t.Fatal("zero deadline should time out immediately")
	}
}

func TestChanCloseWakesReceiver(t *testing.T) {
	s := New(1)
	c := NewChan[int](s, 1)
	var ok, returned bool
	s.Spawn("recv", func(p *Proc) {
		_, ok = c.Recv(p)
		returned = true
	})
	s.At(5, func() { c.Close() })
	s.Run()
	if !returned || ok {
		t.Fatalf("recv on closed chan: returned=%v ok=%v, want true,false", returned, ok)
	}
}

func TestChanCloseDrainsBuffer(t *testing.T) {
	s := New(1)
	c := NewChan[int](s, 4)
	c.TrySend(1)
	c.TrySend(2)
	c.Close()
	var got []int
	s.Spawn("recv", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drained %v, want [1 2]", got)
	}
}

func TestTrySendFullBuffer(t *testing.T) {
	s := New(1)
	c := NewChan[int](s, 1)
	if !c.TrySend(1) {
		t.Fatal("first TrySend should succeed")
	}
	if c.TrySend(2) {
		t.Fatal("second TrySend should fail on full buffer")
	}
	if v, ok := c.TryRecv(); !ok || v != 1 {
		t.Fatalf("TryRecv = %v,%v", v, ok)
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	s := New(42)
	if s.RNG("a") != s.RNG("a") {
		t.Fatal("same name must return the same cached stream")
	}
	a1 := s.RNG("a").Int63()
	b1 := s.RNG("b").Int63()
	if a1 == b1 {
		t.Fatal("different names should give different streams")
	}
	// The stream is deterministic in (seed, name): a fresh scheduler with
	// the same seed replays it, a different seed diverges.
	if got := New(42).RNG("a").Int63(); got != a1 {
		t.Fatalf("same seed+name must replay: %d vs %d", got, a1)
	}
	if New(43).RNG("a").Int63() == a1 {
		t.Fatal("different seeds should give different streams")
	}
	if New(-42).RNG("a").Int63() == a1 {
		t.Fatal("negative seed must hash distinctly")
	}
}

func TestRNGLookupDoesNotAllocate(t *testing.T) {
	s := New(7)
	s.RNG("component") // create and cache
	if allocs := testing.AllocsPerRun(100, func() { s.RNG("component") }); allocs != 0 {
		t.Fatalf("cached RNG lookup allocates %v/op, want 0", allocs)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.AfterTimer(time.Second, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("first Stop must report cancellation")
	}
	if tm.Stop() || tm.Active() {
		t.Fatal("second Stop must be a no-op")
	}
	if s.Pending() != 0 {
		t.Fatalf("cancelled timer still pending: %d", s.Pending())
	}
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerFiresThenStopIsNoop(t *testing.T) {
	s := New(1)
	n := 0
	tm := s.AfterTimer(time.Millisecond, func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("timer fired %d times", n)
	}
	if tm.Stop() || tm.Active() {
		t.Fatal("Stop after firing must be a no-op")
	}
	// The fired event was recycled; a stale handle must not disturb a new
	// event occupying the same pooled struct.
	m := 0
	s.After(time.Millisecond, func() { m++ })
	if tm.Stop() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	s.Run()
	if m != 1 {
		t.Fatal("recycled event did not fire")
	}
}

func TestTimerCancellationKeepsOrder(t *testing.T) {
	s := New(1)
	var order []int
	var timers []Timer
	for i := 0; i < 100; i++ {
		i := i
		timers = append(timers, s.AtTimer(Time(i%10)*Time(time.Millisecond), func() {
			order = append(order, i)
		}))
	}
	// Cancel every third timer, including ones at the heap top.
	want := []int{}
	cancelled := map[int]bool{}
	for i, tm := range timers {
		if i%3 == 0 {
			tm.Stop()
			cancelled[i] = true
		}
	}
	// Expected order: by (time bucket, schedule order), skipping cancelled.
	for bucket := 0; bucket < 10; bucket++ {
		for i := 0; i < 100; i++ {
			if i%10 == bucket && !cancelled[i] {
				want = append(want, i)
			}
		}
	}
	s.Run()
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d", i, order[i], want[i])
		}
	}
}

func TestMassCancellationCompacts(t *testing.T) {
	s := New(1)
	var timers []Timer
	for i := 0; i < 10000; i++ {
		timers = append(timers, s.AfterTimer(time.Duration(i+1)*time.Second, func() {}))
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after cancelling everything", s.Pending())
	}
	if n := len(s.events); n > 5001 {
		t.Fatalf("heap holds %d slots after mass cancellation; compaction failed", n)
	}
	fired := false
	s.After(time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("scheduler broken after compaction")
	}
}

// TestCancelEverythingCompactsEmpty stops enough timers to trip compaction
// (dead > 64) with zero live events remaining. Regression test: compact()'s
// Floyd heapify used to index live[0] on an empty heap because (0-2)/4
// truncates to 0 in Go.
func TestCancelEverythingCompactsEmpty(t *testing.T) {
	s := New(1)
	var timers []Timer
	for i := 0; i < 65; i++ {
		timers = append(timers, s.AfterTimer(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if s.Pending() != 0 || len(s.events) != 0 {
		t.Fatalf("pending = %d, heap slots = %d after cancelling everything", s.Pending(), len(s.events))
	}
	fired := false
	s.After(time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("scheduler broken after compacting to empty")
	}
}

// TestSchedulerSteadyStateNoAllocs is the free-list guarantee: once the
// pool is warm, At/After/AtTimer allocate nothing per event.
func TestSchedulerSteadyStateNoAllocs(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 256; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, fn)
		s.After(2*time.Microsecond, fn)
		tm := s.AfterTimer(3*time.Microsecond, fn)
		tm.Stop()
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocates %v/op, want 0", allocs)
	}
}

// TestHeapOrderingProperty cross-checks the 4-ary heap against a reference
// sort over a pseudo-random schedule.
func TestHeapOrderingProperty(t *testing.T) {
	s := New(99)
	rng := s.RNG("heap-test")
	type stamp struct {
		at  Time
		seq int
	}
	var got []stamp
	n := 0
	for i := 0; i < 5000; i++ {
		at := Time(rng.Int63n(1000)) * Time(time.Millisecond)
		seq := n
		n++
		s.At(at, func() { got = append(got, stamp{at, seq}) })
	}
	s.Run()
	if len(got) != 5000 {
		t.Fatalf("fired %d events", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestEagerCancellationProperty drives the scheduler with a seeded mix
// of At, AtTimer, Stop and RunUntil against a reference model that keeps
// every event in a list and fires the earliest live one by (at, seq).
// Stops hit live timers, fired and stopped ones, plain At events (which
// have no handle), and stale handles whose event has been recycled into
// a newer one; some callbacks stop an earlier timer or schedule a new
// one, at the current instant included, so a callback reuses the event
// it was recycled from. The scheduler must fire the same events in the
// same order, report the same Stop results, and after every step hold
// exactly the model's live events, each slot's event recording its own
// index and key.
func TestEagerCancellationProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		checkEagerCancellation(t, seed, 3000)
	}
}

// churnAction is what an event's callback does besides recording that it
// fired: stop the timer with that id (if stop >= 0), then schedule a new
// timer spawn ahead (if spawn >= 0).
type churnAction struct {
	stop  int
	spawn Time
}

// refEvent is one event of the reference model.
type refEvent struct {
	at          Time
	live, timer bool
	act         churnAction
}

func checkEagerCancellation(t *testing.T, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	none := churnAction{stop: -1, spawn: -1}

	// The scheduler under test. An event's id is its schedule order.
	s := New(seed)
	var handles []Timer
	var got []int
	var gotStops []bool
	var arm func(at Time, act churnAction, timer bool)
	arm = func(at Time, act churnAction, timer bool) {
		id := len(handles)
		handles = append(handles, Timer{})
		fn := func() {
			got = append(got, id)
			if act.stop >= 0 {
				gotStops = append(gotStops, handles[act.stop].Stop())
			}
			if act.spawn >= 0 {
				arm(s.Now()+act.spawn, none, true)
			}
		}
		if timer {
			handles[id] = s.AtTimer(at, fn)
		} else {
			s.At(at, fn)
		}
	}

	// The reference model.
	var model []refEvent
	var now Time
	var want []int
	var wantStops []bool
	modelArm := func(at Time, act churnAction, timer bool) {
		model = append(model, refEvent{at: max(at, now), live: true, timer: timer, act: act})
	}
	modelStop := func(id int) bool {
		e := &model[id]
		if !e.timer || !e.live {
			return false
		}
		e.live = false
		return true
	}
	modelRun := func(limit Time) {
		for {
			next := -1
			for i := range model {
				if e := &model[i]; e.live && e.at <= limit && (next < 0 || e.at < model[next].at) {
					next = i
				}
			}
			if next < 0 {
				return
			}
			e := &model[next]
			e.live, now = false, e.at
			want = append(want, next)
			if e.act.stop >= 0 {
				wantStops = append(wantStops, modelStop(e.act.stop))
			}
			if e.act.spawn >= 0 {
				modelArm(now+e.act.spawn, none, true)
			}
		}
	}

	check := func(step int, what string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d (%s): fired %v, want %v", seed, step, what, got, want)
		}
		if !slices.Equal(gotStops, wantStops) {
			t.Fatalf("seed %d step %d (%s): callback Stops %v, want %v", seed, step, what, gotStops, wantStops)
		}
		live := 0
		for _, e := range model {
			if e.live {
				live++
			}
		}
		if s.Pending() != live || len(s.events) != s.Pending() {
			t.Fatalf("seed %d step %d (%s): Pending %d, heap slots %d, model live %d",
				seed, step, what, s.Pending(), len(s.events), live)
		}
		for i, x := range s.events {
			if x.e.idx != i || x.e.seq != x.seq {
				t.Fatalf("seed %d step %d (%s): slot %d holds an event recording idx %d seq %d, slot seq %d",
					seed, step, what, i, x.e.idx, x.e.seq, x.seq)
			}
			if i > 0 && x.before(s.events[(i-1)/4]) {
				t.Fatalf("seed %d step %d (%s): slot %d sorts before its parent", seed, step, what, i)
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 50: // At or AtTimer, a tenth of them in the past
			at := s.Now() + Time(rng.Intn(1100)) - 100
			act := none
			if id := len(handles); id > 0 && rng.Intn(4) == 0 {
				act.stop = rng.Intn(id)
			}
			if rng.Intn(4) == 0 {
				act.spawn = Time(rng.Intn(200))
			}
			timer := r < 35
			arm(at, act, timer)
			modelArm(at, act, timer)
			check(step, "schedule")
		case r < 80: // Stop any handle ever issued
			if len(handles) == 0 {
				continue
			}
			id := rng.Intn(len(handles))
			if g, w := handles[id].Stop(), modelStop(id); g != w {
				t.Fatalf("seed %d step %d: Stop(%d) = %v, want %v", seed, step, id, g, w)
			}
			check(step, "stop")
		default:
			limit := s.Now() + Time(rng.Intn(300))
			s.RunUntil(limit)
			modelRun(limit)
			check(step, "run")
		}
	}
	s.Run()
	modelRun(math.MaxInt64)
	check(steps, "drain")
	if s.Pending() != 0 {
		t.Fatalf("seed %d: %d events left after Run", seed, s.Pending())
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	s := New(1)
	c := NewChan[int](s, 1)
	s.Spawn("stuck", func(p *Proc) { c.Recv(p) })
	s.Run()
}

func TestWaitGroup(t *testing.T) {
	s := New(1)
	wg := NewWaitGroup(s)
	var finished Time
	for i := 1; i <= 3; i++ {
		d := time.Duration(i*10) * time.Nanosecond
		wg.Go("worker", func(p *Proc) { p.Sleep(d) })
	}
	s.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		finished = p.Now()
	})
	s.Run()
	if finished != 30 {
		t.Fatalf("waiter resumed at %v, want 30 (slowest worker)", finished)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	s := New(1)
	wg := NewWaitGroup(s)
	ran := false
	s.Spawn("w", func(p *Proc) { wg.Wait(p); ran = true })
	s.Run()
	if !ran {
		t.Fatal("Wait on zero counter must not block")
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if tm.Sub(Time(0).Add(time.Second)) != 500*time.Millisecond {
		t.Fatalf("Sub wrong")
	}
}

// Property: for any set of delays, processes wake in sorted delay order and
// virtual time never decreases.
func TestSleepOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 || len(delays) > 64 {
			return true
		}
		s := New(9)
		var wakes []time.Duration
		for _, d := range delays {
			d := time.Duration(d) * time.Nanosecond
			s.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				wakes = append(wakes, p.Now().Duration())
			})
		}
		s.Run()
		if len(wakes) != len(delays) {
			return false
		}
		for i := 1; i < len(wakes); i++ {
			if wakes[i] < wakes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO channel preserves order for any sequence of values.
func TestChanFIFOProperty(t *testing.T) {
	f := func(vals []int32) bool {
		if len(vals) > 256 {
			vals = vals[:256]
		}
		s := New(3)
		c := NewChan[int32](s, 8)
		var got []int32
		s.Spawn("send", func(p *Proc) {
			for _, v := range vals {
				c.Send(p, v)
			}
			c.Close()
		})
		s.Spawn("recv", func(p *Proc) {
			for {
				v, ok := c.Recv(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		s.Run()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// waitGoroutines polls until the goroutine count falls to at most want;
// exiting goroutines finish their teardown asynchronously.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestCloseReclaimsParkedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	c := NewChan[int](s, 1)
	var unwound []string
	s.Spawn("server", func(p *Proc) {
		defer func() { unwound = append(unwound, "server") }()
		for {
			if _, ok := c.Recv(p); !ok {
				return
			}
		}
	})
	s.Spawn("ticker", func(p *Proc) {
		defer func() { unwound = append(unwound, "ticker") }()
		for {
			p.Sleep(time.Second)
		}
	})
	s.RunUntil(Time(10 * time.Second))
	if s.Procs() != 2 {
		t.Fatalf("procs before Close = %d, want 2", s.Procs())
	}
	s.Close()
	if s.Procs() != 0 || s.Pending() != 0 {
		t.Fatalf("after Close: procs %d pending %d, want 0 0", s.Procs(), s.Pending())
	}
	if len(unwound) != 2 {
		t.Fatalf("deferred calls ran for %v, want both processes", unwound)
	}
	waitGoroutines(t, base)
	s.Close() // idempotent
}

func TestCloseUnstartedProcess(t *testing.T) {
	s := New(1)
	ran := false
	s.Spawn("never", func(p *Proc) { ran = true })
	s.Close()
	if ran || s.Procs() != 0 {
		t.Fatalf("ran=%v procs=%d: an unstarted process must be discarded", ran, s.Procs())
	}
}

func TestCloseDeferredWaitGroupDoneDoesNotDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	wg := NewWaitGroup(s)
	for i := 0; i < 3; i++ {
		wg.Go("worker", func(p *Proc) { p.Sleep(time.Hour) })
	}
	waited := false
	s.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		waited = true
	})
	s.RunUntil(Time(time.Second))
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on a deferred WaitGroup.Done")
	}
	if waited {
		t.Fatal("the waiter must be unwound, not resumed")
	}
	waitGoroutines(t, base)
}

func TestCloseUnwindsDeferredPark(t *testing.T) {
	// A killed process whose deferred call tries to block again must
	// unwind at once instead of parking forever.
	base := runtime.NumGoroutine()
	s := New(1)
	slept := false
	s.Spawn("stubborn", func(p *Proc) {
		defer func() {
			p.Sleep(time.Second)
			slept = true
		}()
		p.Sleep(time.Hour)
	})
	s.RunUntil(Time(time.Second))
	s.Close()
	if slept {
		t.Fatal("deferred Sleep returned in a killed process")
	}
	waitGoroutines(t, base)
}

func TestProcessPanicStillPropagates(t *testing.T) {
	// Close's unwind must not swallow a genuine panic in a live process.
	p := &Proc{s: New(1)}
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the original panic", r)
		}
	}()
	p.run(func(*Proc) { panic("boom") })
}

func TestProcessPanicSurfacesAtRun(t *testing.T) {
	// A process coroutine carries a genuine panic out to the caller of
	// RunUntil, and the process leaves the live set.
	s := New(1)
	s.Spawn("bomb", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		s.RunUntil(Time(time.Minute))
	}()
	if got != "boom" {
		t.Fatalf("RunUntil's caller recovered %v, want boom", got)
	}
	if s.Procs() != 0 {
		t.Fatalf("procs after the panic = %d, want 0", s.Procs())
	}
	s.Close()
}

// TestProcSwitchAllocs pins the coroutine handoff: once the event pool is
// warm, a Sleep and its wakeup allocate nothing.
func TestProcSwitchAllocs(t *testing.T) {
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	s.RunFor(time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() { s.RunFor(time.Microsecond) })
	s.Close()
	if allocs != 0 {
		t.Fatalf("a Sleep/wake round trip allocates %v, want 0", allocs)
	}
}

// TestRecvTimeoutValueAtDeadlineWins: a value delivered at the deadline's
// instant, by an event that runs before the deadline fires, is received;
// the deadline that fires afterwards finds the wait done.
func TestRecvTimeoutValueAtDeadlineWins(t *testing.T) {
	s := New(1)
	c := NewChan[int](s, 1)
	s.At(10, func() { c.TrySend(7) }) // queued before the deadline below
	var v int
	var ok, timedOut bool
	s.Spawn("recv", func(p *Proc) { v, ok, timedOut = c.RecvTimeout(p, 10) })
	s.Run()
	if !ok || timedOut || v != 7 {
		t.Fatalf("RecvTimeout = %d, %v, timedOut %v; want 7, true, false", v, ok, timedOut)
	}
	if c.Len() != 0 {
		t.Fatalf("the value was both received and buffered (len %d)", c.Len())
	}
}

// TestTimedOutWaiterLeavesTheQueue: once a deadline ends a wait, a value
// sent at the same instant or later goes to the buffer or to the next
// waiter, never to the recycled waiter of the timed-out one.
func TestTimedOutWaiterLeavesTheQueue(t *testing.T) {
	s := New(1)
	c := NewChan[int](s, 4)
	var first []string
	s.Spawn("a", func(p *Proc) {
		_, _, to := c.RecvTimeout(p, 10)
		first = append(first, map[bool]string{true: "a timed out", false: "a got a value"}[to])
		p.Sleep(100) // parked elsewhere while the values below arrive
		// Two values wait in the buffer: a recycled waiter that had
		// swallowed one of them would leave only the other.
		for want := 1; want <= 2; want++ {
			if v, ok := c.TryRecv(); !ok || v != want {
				t.Errorf("buffered value %d: got %d, %v", want, v, ok)
			}
		}
	})
	// Queued behind a's start, so these run once a has armed its
	// deadline: at t=10 the deadline fires first.
	s.At(0, func() {
		s.At(10, func() { c.TrySend(1) })
		s.At(20, func() { c.TrySend(2) })
	})
	s.Run()
	if len(first) != 1 || first[0] != "a timed out" {
		t.Fatalf("first wait: %v", first)
	}

	// With a second receiver parked behind a timed-out one, the value goes
	// to the second.
	s = New(1)
	c = NewChan[int](s, 4)
	var got int
	var gotOK bool
	s.Spawn("short", func(p *Proc) {
		if _, _, to := c.RecvTimeout(p, 5); !to {
			t.Error("the short wait must time out")
		}
		// Reuse the recycled waiter at once, on a long wait.
		if v, ok, to := c.RecvTimeout(p, 1000); !ok || to || v != 2 {
			t.Errorf("the short receiver's second wait = %d, %v, %v; want 2", v, ok, to)
		}
	})
	s.Spawn("long", func(p *Proc) { got, gotOK = c.Recv(p) })
	s.At(8, func() { c.TrySend(1) })
	s.At(9, func() { c.TrySend(2) })
	s.Run()
	if !gotOK || got != 1 {
		t.Fatalf("the waiter behind the timed-out one got %d, %v; want 1", got, gotOK)
	}
}

// TestCloseWakesEveryParkedReceiver: Close resumes all blocked receivers,
// timed waits included, with ok false and no timeout.
func TestCloseWakesEveryParkedReceiver(t *testing.T) {
	s := New(1)
	c := NewChan[int](s, 1)
	woke := 0
	for i := 0; i < 3; i++ {
		s.Spawn("recv", func(p *Proc) {
			if _, ok := c.Recv(p); !ok {
				woke++
			}
		})
	}
	s.Spawn("timed", func(p *Proc) {
		if _, ok, to := c.RecvTimeout(p, time.Hour); !ok && !to {
			woke++
		}
	})
	s.At(5, c.Close)
	s.Run()
	if woke != 4 {
		t.Fatalf("%d of 4 parked receivers observed the close", woke)
	}
	if s.Now() != 5 {
		t.Fatalf("run ended at %v: a cancelled deadline was left in the heap", s.Now())
	}
}

// TestBlockedSendersAdmittedInOrder: senders blocked on a full buffer get
// their values in in the order they blocked.
func TestBlockedSendersAdmittedInOrder(t *testing.T) {
	s := New(1)
	c := NewChan[int](s, 1)
	c.TrySend(0)
	for i := 1; i <= 5; i++ {
		s.Spawn("send", func(p *Proc) { c.Send(p, i) })
	}
	var got []int
	s.Spawn("recv", func(p *Proc) {
		p.Sleep(10) // every sender is parked by now
		for i := 0; i <= 5; i++ {
			v, _ := c.Recv(p)
			got = append(got, v)
			p.Sleep(1)
		}
	})
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("received %v, want 0..5 in order", got)
		}
	}
	if len(got) != 6 {
		t.Fatalf("received %v, want 0..5", got)
	}
}

// TestChanWaitsReuseWaiters: a steady stream of blocking receives, timed
// ones included, allocates nothing once the channel's waiter free list
// and queues are warm.
func TestChanWaitsReuseWaiters(t *testing.T) {
	s := New(1)
	c := NewChan[int](s, 4)
	s.Spawn("recv", func(p *Proc) {
		for {
			c.Recv(p)
			c.RecvTimeout(p, time.Millisecond) // times out half the time
		}
	})
	n := 0
	send := func() {
		n++
		c.TrySend(n)
		s.RunFor(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("a channel wait allocates %v, want 0", allocs)
	}
	s.Close()
}

func TestBufFreeList(t *testing.T) {
	s := New(1)
	small, mtu := s.Buf(40), s.Buf(1500)
	if len(small) != 40 || cap(small) != SmallBufCap || len(mtu) != 1500 || cap(mtu) != MTUBufCap {
		t.Fatalf("Buf sizes: small %d/%d, mtu %d/%d", len(small), cap(small), len(mtu), cap(mtu))
	}
	for i := range mtu {
		mtu[i] = 0xff
	}
	s.ReleaseBuf(mtu)
	// A stale reference reads zeros: the buffer is cleared on release.
	for i, b := range mtu[:cap(mtu)] {
		if b != 0 {
			t.Fatalf("released buffer byte %d = %#x, want 0", i, b)
		}
	}
	if again := s.Buf(600); &again[0] != &mtu[0] {
		t.Fatal("a released MTU buffer was not reused")
	}
	// A buffer no class names is left to the garbage collector.
	big := s.Buf(MTUBufCap + 1)
	s.ReleaseBuf(big)
	s.ReleaseBuf(make([]byte, 100))
	if len(s.smallBufs) != 0 || len(s.mtuBufs) != 0 {
		t.Fatalf("foreign buffers entered the free lists: %d small, %d mtu", len(s.smallBufs), len(s.mtuBufs))
	}
	// A pinned buffer is never recycled or cleared.
	small[0] = 1
	s.PinBuf(small)
	s.ReleaseBuf(small)
	if len(s.smallBufs) != 0 || small[0] != 1 {
		t.Fatal("a pinned buffer was released")
	}
	allocs := testing.AllocsPerRun(100, func() {
		b := s.Buf(100)
		s.ReleaseBuf(b)
	})
	if allocs != 0 {
		t.Fatalf("a warm Buf/ReleaseBuf pair allocates %v, want 0", allocs)
	}
}
