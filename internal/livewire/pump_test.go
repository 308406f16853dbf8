package livewire

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/modulation"
	"tracemod/internal/replay"
)

// instantSubmitter delivers every packet immediately, in submit order —
// a zero-delay shaper that isolates the data plane for tests and
// benchmarks.
type instantSubmitter struct{}

func (instantSubmitter) SubmitBatch(subs []modulation.Submission) {
	for i := range subs {
		subs[i].Deliver()
	}
}

// panicOnceSubmitter panics on its first burst, as a buggy shaper would,
// and behaves like instantSubmitter afterwards.
type panicOnceSubmitter struct{ panicked atomic.Bool }

func (p *panicOnceSubmitter) SubmitBatch(subs []modulation.Submission) {
	if p.panicked.CompareAndSwap(false, true) {
		panic("submitter bug")
	}
	instantSubmitter{}.SubmitBatch(subs)
}

// TestRelaySurvivesPanickingSubmitter: a submitter that panics inside
// SubmitBatch costs its burst, not the pump. The relay counts the panic
// once and keeps forwarding, both on a PumpGroup shard and on the
// per-relay pumps that ForceGenericIO selects.
func TestRelaySurvivesPanickingSubmitter(t *testing.T) {
	target := echoServer(t)
	for _, tc := range []struct {
		name    string
		sharded bool
	}{{"sharded", true}, {"generic", false}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := RelayOpts{ForceGenericIO: true}
			if tc.sharded {
				if !BatchIOSupported() {
					t.Skip("batched socket I/O not supported on this platform")
				}
				g := NewPumpGroup(PumpGroupConfig{Shards: 1})
				defer g.Close()
				opts = RelayOpts{Group: g}
			}
			r, err := NewRelayWithSubmitterOpts("127.0.0.1:0", target.String(), &panicOnceSubmitter{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Sharded() != tc.sharded {
				t.Fatalf("Sharded() = %v, want %v", r.Sharded(), tc.sharded)
			}
			c := dialRelay(t, r)
			if _, err := c.Write([]byte("first")); err != nil {
				t.Fatal(err)
			}
			if !waitFor(func() bool { return r.Stats().SubmitPanics > 0 }, 5*time.Second) {
				t.Fatal("the panicking burst was never submitted")
			}
			burstEcho(t, r, 50, 8)
			st := settledStats(t, r, 50)
			if st.SubmitPanics != 1 {
				t.Fatalf("SubmitPanics = %d, want 1", st.SubmitPanics)
			}
			if st.ClientToTarget != 50 || st.TargetToClient != 50 {
				t.Fatalf("relayed %d/%d after the panic, want 50/50", st.ClientToTarget, st.TargetToClient)
			}
		})
	}
}

// burstEcho fires n datagrams at the relay in bursts of window and
// requires every echo back. A lockstep window keeps the in-flight count
// below any socket buffer, so a correct data plane loses nothing.
func burstEcho(t *testing.T, r *Relay, n, window int) {
	t.Helper()
	c := dialRelay(t, r)
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 2048)
	for sent := 0; sent < n; {
		burst := window
		if n-sent < burst {
			burst = n - sent
		}
		for i := 0; i < burst; i++ {
			if _, err := c.Write([]byte(fmt.Sprintf("pkt-%d", sent+i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < burst; i++ {
			if _, err := c.Read(buf); err != nil {
				t.Fatalf("echo %d/%d: %v", sent+i, n, err)
			}
		}
		sent += burst
	}
}

// settledStats waits until the relay has booked want deliveries in each
// direction and returns its stats. A client can read an echo before the
// pump that wrote it has counted the write, so an exact counter check
// made right after the last read races the pump; this waits (bounded)
// for the count instead.
func settledStats(t *testing.T, r *Relay, want int64) Stats {
	t.Helper()
	var st Stats
	waitFor(func() bool {
		st = r.Stats()
		return st.ClientToTarget >= want && st.TargetToClient >= want
	}, 5*time.Second)
	return st
}

// TestRelayBurstSharded drives a burst workload through a relay on a
// shared PumpGroup and checks the batched counters move.
func TestRelayBurstSharded(t *testing.T) {
	if !BatchIOSupported() {
		t.Skip("batched socket I/O not supported on this platform")
	}
	g := NewPumpGroup(PumpGroupConfig{Shards: 2})
	if !g.Enabled() {
		t.Fatal("pump group failed to start shards")
	}
	target := echoServer(t)
	r := newRelay(t, target, constTrace(0, 0), 1, RelayOpts{Group: g})
	if !r.Sharded() {
		t.Fatal("relay did not attach to the group")
	}
	burstEcho(t, r, 200, 16)
	st := settledStats(t, r, 200)
	r.Close()
	g.Close()
	if st.ClientToTarget != 200 || st.TargetToClient != 200 {
		t.Fatalf("relayed %d/%d, want 200/200", st.ClientToTarget, st.TargetToClient)
	}
	if st.ReadPackets != 400 {
		t.Fatalf("ReadPackets = %d, want 400", st.ReadPackets)
	}
	if st.Batches == 0 || st.BatchedPackets != st.ReadPackets {
		t.Fatalf("batch counters: %+v", st)
	}
	if st.SendErrors != 0 || st.SocketErrors != 0 {
		t.Fatalf("errors on clean run: %+v", st)
	}
}

// TestRelayBurstGenericFallback forces the portable single-message pktio
// and runs the same workload: the fallback path must be functionally
// identical (this is what non-Linux builds run all the time).
func TestRelayBurstGenericFallback(t *testing.T) {
	target := echoServer(t)
	r := newRelay(t, target, constTrace(0, 0), 1, RelayOpts{ForceGenericIO: true})
	if r.Sharded() {
		t.Fatal("ForceGenericIO relay must not be sharded")
	}
	burstEcho(t, r, 200, 16)
	st := settledStats(t, r, 200)
	if st.ClientToTarget != 200 || st.TargetToClient != 200 {
		t.Fatalf("relayed %d/%d, want 200/200", st.ClientToTarget, st.TargetToClient)
	}
	if st.ReadPackets != 400 {
		t.Fatalf("ReadPackets = %d, want 400", st.ReadPackets)
	}
}

// TestShardedGoroutinesFlat attaches many relays to one PumpGroup and
// checks the goroutine count does not scale with the relay count — the
// point of run-to-completion shards.
func TestShardedGoroutinesFlat(t *testing.T) {
	if !BatchIOSupported() {
		t.Skip("batched socket I/O not supported on this platform")
	}
	g := NewPumpGroup(PumpGroupConfig{Shards: 2})
	defer g.Close()
	if !g.Enabled() {
		t.Fatal("pump group failed to start shards")
	}
	target := echoServer(t)

	mk := func(n int) []*Relay {
		relays := make([]*Relay, 0, n)
		for i := 0; i < n; i++ {
			r, err := NewRelayWithSubmitterOpts("127.0.0.1:0", target.String(),
				instantSubmitter{}, RelayOpts{Group: g})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Sharded() {
				t.Fatal("relay did not attach to the group")
			}
			relays = append(relays, r)
		}
		return relays
	}

	base := mk(4)
	runtime.GC()
	before := runtime.NumGoroutine()
	more := mk(32)
	runtime.GC()
	after := runtime.NumGoroutine()
	for _, r := range append(base, more...) {
		r.Close()
	}
	// 32 extra relays on per-relay pumps would cost 64 goroutines; on
	// shards the count must stay flat (small slack for runtime noise).
	if grew := after - before; grew > 8 {
		t.Fatalf("goroutines grew by %d across 32 sharded relays", grew)
	}
}

// TestIdleGrouplessRelaysPinNoReadBuffers checks that a relay running
// its own pump goroutines (no PumpGroup) holds no read batch while its
// sockets are idle: 64 relays × 2 sockets × DefaultBatch × 64 KiB would
// pin 256 MiB if each parked pump kept a full batch of pooled buffers.
func TestIdleGrouplessRelaysPinNoReadBuffers(t *testing.T) {
	target := echoServer(t)
	before := liveHeap()
	relays := make([]*Relay, 64)
	for i := range relays {
		r, err := NewRelayWithSubmitterOpts("127.0.0.1:0", target.String(),
			instantSubmitter{}, RelayOpts{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Sharded() {
			t.Fatal("relay without a group must run its own pumps")
		}
		relays[i] = r
	}
	for _, r := range relays {
		burstEcho(t, r, 8, 8)
	}
	// The last pump to write an echo may not have parked yet; poll.
	const limit = 16 << 20
	grew := heapGrowthBelow(before, limit, 5*time.Second)
	t.Logf("64 idle group-less relays: HeapAlloc grew %d KiB", grew>>10)
	if grew >= limit {
		t.Fatalf("64 idle group-less relays grew HeapAlloc by %d MiB, want < %d MiB",
			grew>>20, limit>>20)
	}
}

// liveHeap returns HeapAlloc after two GC cycles: the second frees what
// the first moved into the sync.Pool victim caches, so pooled buffers
// nobody holds do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapGrowthBelow polls until HeapAlloc has grown less than limit over
// before, or until timeout, and returns the last growth seen: the last
// reader to finish may not have returned its read scratch yet.
func heapGrowthBelow(before, limit uint64, timeout time.Duration) uint64 {
	var grew uint64
	waitFor(func() bool {
		grew = 0
		if after := liveHeap(); after > before {
			grew = after - before
		}
		return grew < limit
	}, timeout)
	return grew
}

// TestIdleShardsPinNoReadBuffers checks that PumpGroup shards hold no
// read buffers between reads: a shard that kept its read batch filled
// would pin 2 × DefaultBatch × 64 KiB = 4 MiB here, plus per-socket
// recvmmsg scratch, after a single burst per relay.
func TestIdleShardsPinNoReadBuffers(t *testing.T) {
	if !BatchIOSupported() {
		t.Skip("batched socket I/O not supported on this platform")
	}
	g := NewPumpGroup(PumpGroupConfig{Shards: 2})
	defer g.Close()
	target := echoServer(t)
	before := liveHeap()
	relays := make([]*Relay, 64)
	for i := range relays {
		r, err := NewRelayWithSubmitterOpts("127.0.0.1:0", target.String(),
			instantSubmitter{}, RelayOpts{Group: g})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if !r.Sharded() {
			t.Fatal("relay did not attach to the group")
		}
		relays[i] = r
	}
	for _, r := range relays {
		burstEcho(t, r, 8, 8)
	}
	const limit = 1 << 20
	grew := heapGrowthBelow(before, limit, 5*time.Second)
	t.Logf("64 idle sharded relays: HeapAlloc grew %d KiB", grew>>10)
	if grew >= limit {
		t.Fatalf("64 idle sharded relays grew HeapAlloc by %d KiB, want < %d KiB",
			grew>>10, limit>>10)
	}
}

// TestInFlightDatagramsPinTheirSizeClass holds 256 small datagrams in the
// shaper for a 2 s trace delay and checks that what they pin tracks their
// size class (2 KiB each), not the largest datagram a socket can carry
// (64 KiB each would be 16 MiB). Every datagram must still arrive.
func TestInFlightDatagramsPinTheirSizeClass(t *testing.T) {
	target := sinkServer(t)
	before := liveHeap() // the relay's own state counts against the limit
	const hold = 2 * time.Second
	r := newRelay(t, target, replay.Constant(core.DelayParams{F: hold}, 0, 10*time.Second, time.Second), 1, RelayOpts{})
	c := dialRelay(t, r)
	payload := make([]byte, 100)
	start := time.Now()
	const total, window = 256, 32
	for sent := 0; sent < total; sent += window {
		for i := 0; i < window; i++ {
			if _, err := c.Write(payload); err != nil {
				t.Fatal(err)
			}
		}
		// Pace against the relay so the socket buffer never overflows.
		read := func() bool { return r.Stats().ReadPackets >= int64(sent+window) }
		if !waitFor(read, time.Until(start.Add(hold/4))) {
			t.Fatalf("relay read %d/%d datagrams", r.Stats().ReadPackets, total)
		}
	}
	const limit = 2 << 20
	grew := heapGrowthBelow(before, limit, time.Until(start.Add(hold/2)))
	st := r.Stats()
	t.Logf("%d datagrams of %d B in flight: HeapAlloc grew %d KiB",
		total-st.ClientToTarget, len(payload), grew>>10)
	if st.ClientToTarget != 0 || time.Since(start) >= hold {
		t.Fatalf("datagrams left the shaper before the heap was measured (%d delivered)",
			st.ClientToTarget)
	}
	if grew >= limit {
		t.Fatalf("%d in-flight %d-byte datagrams grew HeapAlloc by %d KiB, want < %d KiB",
			total, len(payload), grew>>10, limit>>10)
	}
	if !waitFor(func() bool { return r.Stats().ClientToTarget >= total }, 5*time.Second) {
		t.Fatalf("delivered %d/%d held datagrams", r.Stats().ClientToTarget, total)
	}
}

// TestRelayCloseMidBurst races Relay.Close (and then group Close)
// against a client blasting packets: no panic, no deadlock, no send
// after close. Run with -race.
func TestRelayCloseMidBurst(t *testing.T) {
	target := echoServer(t)
	for round := 0; round < 5; round++ {
		var g *PumpGroup
		if BatchIOSupported() && round%2 == 0 {
			g = NewPumpGroup(PumpGroupConfig{Shards: 1})
		}
		r := newRelay(t, target, constTrace(0, 0), 1, RelayOpts{Group: g})
		c, err := net.DialUDP("udp", nil, r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 512)
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Write(payload)
			}
		}()
		time.Sleep(time.Duration(round+1) * time.Millisecond)
		r.Close()
		close(stop)
		wg.Wait()
		c.Close()
		g.Close()
	}
}

// sinkServer is a bound-but-never-read UDP socket: loopback delivery
// into a full receive buffer is a silent drop, so the relay's sends
// always succeed and the sink costs the benchmark zero syscalls.
func sinkServer(tb testing.TB) *net.UDPAddr {
	tb.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	return conn.LocalAddr().(*net.UDPAddr)
}

// benchRelayThroughput measures relay packets-per-second through the
// full paper data path: a client blasts fixed-size datagrams at a relay
// owning a real modulation engine on a zero-delay trace (windowed
// against the relay's processed count so the kernel socket buffer never
// overflows), and the relay shapes and forwards to a sink. Reported
// metric: pps through read→modulate→write.
func benchRelayThroughput(b *testing.B, opts RelayOpts) {
	// A true pass-through trace (zero fixed and per-byte delay, zero
	// loss): every packet takes the engine's immediate path, so the
	// benchmark measures data-plane overhead, not emulated bandwidth.
	r := newRelay(b, sinkServer(b), replay.Constant(core.DelayParams{}, 0, time.Hour, time.Second), 1, opts)
	r.clientSide.SetReadBuffer(4 << 20)

	c, err := net.DialUDP("udp", nil, r.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// The client blasts through the batched writer so the sender's
	// syscall rate never caps the measurement.
	cio := newBatchConn(c, true, false)
	ms := make([]ioMessage, DefaultBatch)
	payload := make([]byte, 256)
	for i := range ms {
		ms[i] = ioMessage{buf: &payload, n: len(payload)}
	}

	const window = 512
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for sent := 0; sent < b.N; {
		burst := len(ms)
		if b.N-sent < burst {
			burst = b.N - sent
		}
		if _, err := cio.WriteBatch(ms[:burst]); err != nil {
			b.Fatal(err)
		}
		sent += burst
		// Parked wait, not a spin: on small machines a busy-wait would
		// steal the very core the data plane needs.
		for int64(sent)-r.rxPkts.Load() >= window {
			time.Sleep(20 * time.Microsecond)
		}
	}
	if !waitFor(func() bool { return r.rxPkts.Load() >= int64(b.N) }, 30*time.Second) {
		b.Fatalf("relay processed %d/%d", r.rxPkts.Load(), b.N)
	}
	b.StopTimer()
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "pps")
}

// BenchmarkLivewireThroughput is the data-plane speed gate: the batched
// variant (recvmmsg/sendmmsg on a shared pump shard) against the generic
// variant, which is the pre-batching architecture — one blocking
// single-datagram read per packet on a per-relay pump goroutine.
func BenchmarkLivewireThroughput(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		if !BatchIOSupported() {
			b.Skip("batched socket I/O not supported on this platform")
		}
		g := NewPumpGroup(PumpGroupConfig{Shards: 2})
		defer g.Close()
		benchRelayThroughput(b, RelayOpts{Group: g})
	})
	b.Run("generic", func(b *testing.B) {
		benchRelayThroughput(b, RelayOpts{ForceGenericIO: true})
	})
}
