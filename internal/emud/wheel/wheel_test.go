package wheel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracemod/internal/obs"
)

func TestExactFires(t *testing.T) {
	w := New(Options{Shards: 2})
	defer w.Close()
	var fired atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		w.AfterFunc(time.Duration(i)*100*time.Microsecond, func() {
			fired.Add(1)
			wg.Done()
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/100 timers fired", fired.Load())
	}
	if w.Pending() != 0 {
		t.Fatalf("pending = %d after all fired", w.Pending())
	}
}

func TestFiresNotEarly(t *testing.T) {
	w := New(Options{Shards: 1})
	defer w.Close()
	const d = 30 * time.Millisecond
	start := w.Now()
	ch := make(chan time.Duration, 1)
	w.AfterFunc(d, func() { ch <- w.Now() })
	select {
	case at := <-ch:
		if at-start < d {
			t.Fatalf("fired after %v, want >= %v", at-start, d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestGranularityCoalesces(t *testing.T) {
	// With a large granularity, a short timer still fires — on the next
	// boundary — and never early.
	w := New(Options{Shards: 1, Granularity: 20 * time.Millisecond})
	defer w.Close()
	start := w.Now()
	ch := make(chan time.Duration, 1)
	w.AfterFunc(5*time.Millisecond, func() { ch <- w.Now() })
	select {
	case at := <-ch:
		if at-start < 5*time.Millisecond {
			t.Fatalf("fired after %v, before its deadline", at-start)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("coalesced timer never fired")
	}
}

func TestZeroAndNegativeDelay(t *testing.T) {
	w := New(Options{Shards: 1})
	defer w.Close()
	ch := make(chan struct{}, 2)
	w.AfterFunc(0, func() { ch <- struct{}{} })
	w.AfterFunc(-time.Second, func() { ch <- struct{}{} })
	for i := 0; i < 2; i++ {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatal("immediate timer never fired")
		}
	}
}

func TestTimersStopSuppresses(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Options{Shards: 2, Metrics: reg})
	defer w.Close()
	tm := w.Timers()
	var fired atomic.Int64
	for i := 0; i < 50; i++ {
		tm.AfterFunc(20*time.Millisecond, func() { fired.Add(1) })
	}
	tm.Stop()
	if !tm.Stopped() {
		t.Fatal("Stopped() must report true after Stop")
	}
	time.Sleep(60 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("%d callbacks fired after Stop", n)
	}
	// AfterFunc on a stopped handle is a no-op.
	tm.AfterFunc(time.Millisecond, func() { fired.Add(1) })
	time.Sleep(20 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("stopped handle scheduled a callback (%d fired)", n)
	}
}

// TestStopIsBarrier asserts the teardown contract: once Stop returns, no
// callback of that handle is running or will run, even with fires racing
// the Stop.
func TestStopIsBarrier(t *testing.T) {
	w := New(Options{Shards: 4})
	defer w.Close()
	for round := 0; round < 50; round++ {
		tm := w.Timers()
		var stopped atomic.Bool
		var after atomic.Int64
		for i := 0; i < 20; i++ {
			tm.AfterFunc(time.Duration(i)*50*time.Microsecond, func() {
				if stopped.Load() {
					after.Add(1)
				}
			})
		}
		time.Sleep(300 * time.Microsecond) // let some fire mid-stop
		tm.Stop()
		stopped.Store(true)
		if n := after.Load(); n != 0 {
			t.Fatalf("round %d: %d callbacks observed post-Stop state", round, n)
		}
	}
}

func TestGoroutinesStayOShards(t *testing.T) {
	base := runtime.NumGoroutine()
	w := New(Options{Shards: 4, Granularity: DefaultGranularity})
	defer w.Close()
	var wg sync.WaitGroup
	const n = 20000
	wg.Add(n)
	for i := 0; i < n; i++ {
		w.AfterFunc(time.Duration(i%50)*time.Millisecond, wg.Done)
	}
	// With 20k timers in flight the process must not have grown by more
	// than the shard goroutines plus slack — the whole point of the wheel.
	if g := runtime.NumGoroutine(); g > base+4+16 {
		t.Fatalf("goroutines = %d with %d timers pending (base %d, 4 shards)", g, n, base)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timers did not drain")
	}
}

func TestCloseDiscardsAndAfterFuncNoops(t *testing.T) {
	w := New(Options{Shards: 1})
	var fired atomic.Int64
	w.AfterFunc(50*time.Millisecond, func() { fired.Add(1) })
	w.Close()
	w.Close() // idempotent
	w.AfterFunc(time.Millisecond, func() { fired.Add(1) })
	time.Sleep(80 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("%d callbacks fired after Close", n)
	}
}

func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Options{Shards: 2, Metrics: reg})
	defer w.Close()
	var wg sync.WaitGroup
	wg.Add(10)
	for i := 0; i < 10; i++ {
		w.AfterFunc(time.Millisecond, wg.Done)
	}
	tm := w.Timers()
	tm.AfterFunc(time.Millisecond, func() {})
	tm.Stop()
	wg.Wait()
	time.Sleep(20 * time.Millisecond)
	if w.scheduled.Load() != 11 {
		t.Fatalf("scheduled = %d, want 11", w.scheduled.Load())
	}
	if w.fired.Load() != 10 {
		t.Fatalf("fired = %d, want 10", w.fired.Load())
	}
	if w.suppressed.Load() != 1 {
		t.Fatalf("suppressed = %d, want 1", w.suppressed.Load())
	}
}

// armFinalized schedules a far-off callback on tm that captures a fresh
// object, and returns a channel closed once that object is collected.
func armFinalized(tm *Timers) <-chan struct{} {
	freed := make(chan struct{})
	obj := new([64]byte)
	runtime.SetFinalizer(obj, func(*[64]byte) { close(freed) })
	tm.AfterFunc(time.Hour, func() { obj[0]++ })
	return freed
}

// TestStopReleasesPendingEntries: a stopped owner's entries leave the
// heap at Stop once they dominate their shard, so Pending falls and what
// their callbacks captured is collectable long before the deadline.
func TestStopReleasesPendingEntries(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Options{Shards: 1, Metrics: reg})
	defer w.Close()
	tm := w.Timers()
	freed := armFinalized(tm)
	for i := 0; i < 199; i++ {
		tm.AfterFunc(time.Hour, func() {})
	}
	if p := w.Pending(); p != 200 {
		t.Fatalf("pending = %d before Stop, want 200", p)
	}
	tm.Stop()
	if p := w.Pending(); p != 0 {
		t.Fatalf("pending = %d after Stop, want 0", p)
	}
	if n := w.suppressed.Load(); n != 200 {
		t.Fatalf("suppressed = %d, want 200 released entries", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a stopped owner's callback is still reachable an hour before its deadline")
		}
	}
}

// TestStopCompactionKeepsLiveOwners: many owners with one far-off entry
// each (a deleted session's advance timer) are reaped in bounded batches,
// and a live owner's entries survive every compaction and fire in order.
func TestStopCompactionKeepsLiveOwners(t *testing.T) {
	const shards, owners = 2, 400
	w := New(Options{Shards: shards})
	defer w.Close()
	live := w.Timers()
	var order []int
	var mu sync.Mutex
	done := make(chan struct{})
	for i := 0; i < 3; i++ {
		live.AfterFunc(time.Duration(300+i*20)*time.Millisecond, func() {
			mu.Lock()
			order = append(order, i)
			if len(order) == 3 {
				close(done)
			}
			mu.Unlock()
		})
	}
	for i := 0; i < owners; i++ {
		tm := w.Timers()
		tm.AfterFunc(time.Hour, func() {})
		tm.Stop()
	}
	// Each shard compacts whenever more than 64 of its entries are dead
	// and they outnumber the live ones, so at most 64 stay per shard.
	if p := w.Pending(); p > shards*64+3 {
		t.Fatalf("pending = %d after stopping %d owners, want <= %d", p, owners, shards*64+3)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a live owner's timers did not fire after compaction")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("live callbacks fired in order %v", order)
		}
	}
}
