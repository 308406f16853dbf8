// Package idem is the control plane's idempotency table, shared by the
// worker's session creates and the cluster coordinator's proxied
// creates: single-flight per Idempotency-Key, successful results
// replayable for a fixed TTL, failures forgotten so a retry re-executes.
//
// Expiry is amortized O(1) per claim. The TTL is constant, so the order in
// which keys resolve successfully is the order in which they expire: a
// FIFO of resolved entries is drained from the front on each claim until
// the front is still live. Nothing scans the whole table.
package idem

import (
	"context"
	"sync"
	"time"
)

// TTL is how long a successful result replays, on a worker and on a
// cluster coordinator alike.
const TTL = 10 * time.Minute

// Table maps idempotency keys to in-flight or completed results. Its
// mutex is its own, so callers never hold a wider lock across it.
type Table[V any] struct {
	now   func() time.Time
	epoch time.Time // expiry deadlines are offsets from here

	mu   sync.Mutex
	m    map[string]*Entry[V]
	fifo []*Entry[V] // successes in resolution (= expiry) order, from head
	head int
}

// Entry is one key's attempt. The owner (first claimant) executes and
// calls Table.Resolve; everyone else calls Table.Wait. Entries are held
// for the whole TTL, so they stay small: the done channel exists only
// once someone waits, and the state lives in exp.
type Entry[V any] struct {
	key  string
	val  V
	done chan struct{} // made by the first waiter; guarded by Table.mu
	exp  time.Duration // since epoch; 0 while pending, -1 once failed
}

// New returns an empty table. now is its clock (nil means time.Now);
// tests inject their own.
func New[V any](now func() time.Time) *Table[V] {
	if now == nil {
		now = time.Now
	}
	return &Table[V]{now: now, epoch: now(), m: make(map[string]*Entry[V])}
}

// Claim single-flights key: owner=true means the caller executes and must
// Resolve the returned entry; otherwise the entry is an earlier attempt to
// Wait on.
func (t *Table[V]) Claim(key string) (e *Entry[V], owner bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	if e, ok := t.m[key]; ok {
		return e, false
	}
	e = &Entry[V]{key: key}
	t.m[key] = e
	return e, true
}

// Resolve settles the owner's attempt and releases its waiters. ok=true
// keeps v replayable for TTL; ok=false forgets the key so the next claim
// re-executes.
func (t *Table[V]) Resolve(e *Entry[V], v V, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok {
		e.val = v
		e.exp = t.now().Sub(t.epoch) + TTL
		t.fifo = append(t.fifo, e)
	} else {
		e.exp = -1
		if t.m[e.key] == e {
			delete(t.m, e.key)
		}
	}
	if e.done != nil {
		close(e.done)
	}
}

// Wait blocks until e's owner resolves it or ctx ends. ok reports a
// replayable success carrying v; ok=false with a nil error means the
// owner failed and the key was forgotten, so the caller should claim
// again.
func (t *Table[V]) Wait(ctx context.Context, e *Entry[V]) (v V, ok bool, err error) {
	t.mu.Lock()
	if e.exp == 0 && e.done == nil {
		e.done = make(chan struct{})
	}
	pending, done := e.exp == 0, e.done
	t.mu.Unlock()
	if pending {
		select {
		case <-done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
	// Resolve wrote val and exp before closing done or releasing mu,
	// whichever this goroutine synchronized with last.
	return e.val, e.exp > 0, nil
}

// Len reports the keys currently held, pending or replayable.
func (t *Table[V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	return len(t.m)
}

// expireLocked drops every success whose TTL has passed. The map entry is
// deleted only if it is still the one the FIFO refers to, so a stale
// reference can never evict a later attempt under the same key.
func (t *Table[V]) expireLocked() {
	now := t.now().Sub(t.epoch)
	for t.head < len(t.fifo) {
		e := t.fifo[t.head]
		if now <= e.exp {
			break
		}
		if t.m[e.key] == e {
			delete(t.m, e.key)
		}
		t.fifo[t.head] = nil
		t.head++
	}
	// Slide the live suffix to the front once the consumed prefix
	// dominates, so the backing array stays proportional to live entries.
	if t.head > 32 && t.head > len(t.fifo)/2 {
		n := copy(t.fifo, t.fifo[t.head:])
		clear(t.fifo[n:])
		t.fifo = t.fifo[:n]
		t.head = 0
	}
}
