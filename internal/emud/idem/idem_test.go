package idem

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// clock is a settable test clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1_000_000, 0)} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// resolved claims key as owner and resolves it with v.
func resolved(t *testing.T, tb *Table[string], key, v string, ok bool) {
	t.Helper()
	e, owner := tb.Claim(key)
	if !owner {
		t.Fatalf("claim %q: not owner", key)
	}
	tb.Resolve(e, v, ok)
}

func TestReplayWithinTTL(t *testing.T) {
	c := newClock()
	tb := New[string](c.now)
	resolved(t, tb, "k", "s-1", true)
	c.advance(TTL - time.Second)
	e, owner := tb.Claim("k")
	if owner {
		t.Fatal("retry inside the TTL re-executed")
	}
	v, ok, err := tb.Wait(context.Background(), e)
	if err != nil || !ok || v != "s-1" {
		t.Fatalf("replay = (%q, %v, %v), want (s-1, true, nil)", v, ok, err)
	}
}

func TestReexecutesAfterTTL(t *testing.T) {
	c := newClock()
	tb := New[string](c.now)
	resolved(t, tb, "k", "s-1", true)
	c.advance(TTL + time.Second)
	if _, owner := tb.Claim("k"); !owner {
		t.Fatal("retry after the TTL replayed an expired result")
	}
}

func TestFailedOwnerIsForgotten(t *testing.T) {
	tb := New[string](newClock().now)
	e, _ := tb.Claim("k")
	follower, owner := tb.Claim("k")
	if owner || follower != e {
		t.Fatal("second claim of a pending key must join it")
	}
	tb.Resolve(e, "", false)
	if _, ok, err := tb.Wait(context.Background(), follower); ok || err != nil {
		t.Fatalf("follower of a failed owner: ok=%v err=%v, want false, nil", ok, err)
	}
	if n := tb.Len(); n != 0 {
		t.Fatalf("Len = %d after a failure, want 0", n)
	}
	if _, owner := tb.Claim("k"); !owner {
		t.Fatal("retry after a failure must re-execute")
	}
}

// TestStaleFIFOReferenceKeepsLaterAttempt: a key that failed, was
// reclaimed and then succeeded replays for its own full TTL; nothing left
// over from the failed attempt (or from an expired earlier success of the
// same key) may evict it.
func TestStaleFIFOReferenceKeepsLaterAttempt(t *testing.T) {
	c := newClock()
	tb := New[string](c.now)

	resolved(t, tb, "k", "s-0", true)
	c.advance(TTL + time.Second) // s-0 expired but not yet swept
	resolved(t, tb, "k", "", false)
	c.advance(TTL / 2)
	resolved(t, tb, "k", "s-2", true)
	c.advance(TTL/2 + time.Second) // past any deadline of the failed attempt
	e, owner := tb.Claim("k")
	if owner {
		t.Fatal("a stale reference evicted the reclaimed success")
	}
	if v, ok, _ := tb.Wait(context.Background(), e); !ok || v != "s-2" {
		t.Fatalf("replay = (%q, %v), want (s-2, true)", v, ok)
	}
	c.advance(TTL / 2)
	if _, owner := tb.Claim("k"); !owner {
		t.Fatal("s-2 outlived its TTL")
	}
}

func TestEmptyOnceEveryTTLHasPassed(t *testing.T) {
	c := newClock()
	tb := New[string](c.now)
	const n = 1000
	for i := 0; i < n; i++ {
		resolved(t, tb, fmt.Sprintf("k%d", i), "s", i%3 != 0)
		c.advance(time.Second)
	}
	if got := tb.Len(); got == 0 || got > n {
		t.Fatalf("Len = %d inside the TTL", got)
	}
	c.advance(TTL + time.Second)
	if got := tb.Len(); got != 0 {
		t.Fatalf("Len = %d after every TTL passed, want 0", got)
	}
	if len(tb.fifo) > 32 {
		t.Fatalf("expiry queue kept %d slots for an empty table", len(tb.fifo))
	}
}

// TestWaitersReleasedOnResolve: followers blocked before the owner
// resolves all wake with its value.
func TestWaitersReleasedOnResolve(t *testing.T) {
	tb := New[string](nil)
	e, _ := tb.Claim("k")
	const n = 4
	got := make(chan string, n)
	for i := 0; i < n; i++ {
		f, owner := tb.Claim("k")
		if owner {
			t.Fatal("claim of a pending key became owner")
		}
		go func() {
			v, ok, err := tb.Wait(context.Background(), f)
			if err != nil || !ok {
				v = fmt.Sprintf("ok=%v err=%v", ok, err)
			}
			got <- v
		}()
	}
	for { // wait until a follower is parked on the entry
		tb.mu.Lock()
		parked := e.done != nil
		tb.mu.Unlock()
		if parked {
			break
		}
		runtime.Gosched()
	}
	tb.Resolve(e, "s-1", true)
	for i := 0; i < n; i++ {
		if v := <-got; v != "s-1" {
			t.Fatalf("follower %d got %q, want s-1", i, v)
		}
	}
}

func TestWaitHonoursContext(t *testing.T) {
	tb := New[string](nil)
	tb.Claim("k")
	follower, _ := tb.Claim("k")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tb.Wait(ctx, follower); err == nil {
		t.Fatal("Wait on a canceled context returned no error")
	}
}

// TestConcurrentClaimsSingleFlight: many goroutines racing on few keys
// execute each key exactly once and all observe the owner's value.
func TestConcurrentClaimsSingleFlight(t *testing.T) {
	tb := New[string](nil)
	const keys, callers = 8, 32
	var execs [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("k%d", k)
				want := "v-" + key
				e, owner := tb.Claim(key)
				if owner {
					execs[k].Add(1)
					tb.Resolve(e, want, true)
					continue
				}
				if v, ok, err := tb.Wait(context.Background(), e); err != nil || !ok || v != want {
					t.Errorf("%s: replay = (%q, %v, %v)", key, v, ok, err)
				}
			}
		}()
	}
	wg.Wait()
	for k := range execs {
		if n := execs[k].Load(); n != 1 {
			t.Errorf("key k%d executed %d times, want 1", k, n)
		}
	}
}
