package livewire

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/emud/wheel"
	"tracemod/internal/modulation"
	"tracemod/internal/obs"
	"tracemod/internal/replay"
)

// echoServer starts a real UDP echo server and returns its address.
func echoServer(t *testing.T) *net.UDPAddr {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, addr, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			conn.WriteToUDP(buf[:n], addr)
		}
	}()
	return conn.LocalAddr().(*net.UDPAddr)
}

func constTrace(f time.Duration, loss float64) core.Trace {
	return replay.Constant(core.DelayParams{F: f, Vb: 100, Vr: 0}, loss, time.Hour, time.Second)
}

// shapingEngine builds an engine replaying trace in a loop, with exact
// scheduling, seed driving its drop lottery and reg (may be nil)
// receiving its metrics, on a single-shard wall-clock wheel that closes
// when the test ends.
func shapingEngine(tb testing.TB, trace core.Trace, seed int64, reg *obs.Registry) *modulation.Engine {
	w := wheel.New(wheel.Options{Shards: 1})
	tb.Cleanup(w.Close)
	return modulation.NewEngine(w, &modulation.SliceSource{Trace: trace, Loop: true}, modulation.Config{
		Tick: -1, RNG: rand.New(rand.NewSource(seed)), Metrics: reg,
	})
}

// newRelay starts a relay toward target that shapes through a
// shapingEngine of its own; it closes when the test ends.
func newRelay(tb testing.TB, target *net.UDPAddr, trace core.Trace, seed int64, opts RelayOpts) *Relay {
	tb.Helper()
	r, err := NewRelayWithSubmitterOpts("127.0.0.1:0", target.String(), shapingEngine(tb, trace, seed, nil), opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.Close)
	return r
}

// waitFor polls cond until it holds or timeout passes, and reports
// whether it held.
func waitFor(cond func() bool, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

func dialRelay(t *testing.T, r *Relay) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRelayShapesRTT(t *testing.T) {
	target := echoServer(t)
	// 20ms one-way latency, exact scheduling: RTT must be >= 40ms.
	r := newRelay(t, target, constTrace(20*time.Millisecond, 0), 1, RelayOpts{})
	c := dialRelay(t, r)

	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var rtts []time.Duration
	buf := make([]byte, 1024)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		rtts = append(rtts, time.Since(start))
	}
	for i, rtt := range rtts {
		if rtt < 40*time.Millisecond {
			t.Fatalf("rtt %d = %v, want >= 40ms (2x shaped latency)", i, rtt)
		}
		if rtt > 500*time.Millisecond {
			t.Fatalf("rtt %d = %v, implausibly slow", i, rtt)
		}
	}
	st := settledStats(t, r, 5)
	if st.ClientToTarget != 5 || st.TargetToClient != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRelayUnshapedIsFast(t *testing.T) {
	target := echoServer(t)
	r := newRelay(t, target, constTrace(0, 0), 1, RelayOpts{})
	c := dialRelay(t, r)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1024)
	start := time.Now()
	c.Write([]byte("x"))
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt > 100*time.Millisecond {
		t.Fatalf("near-zero trace gave rtt %v", rtt)
	}
}

func TestRelayDropsPackets(t *testing.T) {
	target := echoServer(t)
	r := newRelay(t, target, constTrace(0, 0.7), 7, RelayOpts{})
	c := dialRelay(t, r)
	const sent = 60
	for i := 0; i < sent; i++ {
		c.Write([]byte{byte(i)})
	}
	// Count echoes arriving within a short window.
	c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	buf := make([]byte, 1024)
	got := 0
	for {
		if _, err := c.Read(buf); err != nil {
			break
		}
		got++
	}
	// Each direction survives with P=0.3: expect ≈ sent * 0.09; allow slack.
	if got >= sent/2 {
		t.Fatalf("got %d of %d echoes; drop lottery not applied", got, sent)
	}
	if r.Stats().Dropped == 0 {
		t.Fatal("relay should count drops")
	}
}

func TestRelayRejectsBadConfig(t *testing.T) {
	if _, err := NewRelayWithSubmitterOpts("127.0.0.1:0", "127.0.0.1:9", nil, RelayOpts{}); err == nil {
		t.Fatal("nil submitter must be rejected")
	}
	if _, err := NewRelayWithSubmitterOpts("not-an-addr", "127.0.0.1:9", instantSubmitter{}, RelayOpts{}); err == nil {
		t.Fatal("bad listen address must be rejected")
	}
}

func TestRelayWithExternalEngine(t *testing.T) {
	// An emud-style attachment: the engine runs on a caller-owned wheel
	// handle; the relay shapes with it but does not own clock teardown.
	target := echoServer(t)
	w := wheel.New(wheel.Options{Shards: 2})
	defer w.Close()
	tm := w.Timers()
	eng := modulation.NewEngine(tm, &modulation.SliceSource{Trace: constTrace(15*time.Millisecond, 0), Loop: true},
		modulation.Config{Tick: -1, RNG: rand.New(rand.NewSource(1))})
	r, err := NewRelayWithSubmitterOpts("127.0.0.1:0", target.String(), eng, RelayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c := dialRelay(t, r)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1024)
	start := time.Now()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 30*time.Millisecond {
		t.Fatalf("rtt %v, want >= 30ms through the shared wheel", rtt)
	}
	// Relay teardown must not touch the shared wheel: the handle still
	// schedules after the relay is gone.
	r.Close()
	fired := make(chan struct{})
	tm.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("shared wheel stopped scheduling after relay close")
	}
}

// TestRelayCarriesClassBoundaryDatagrams sends datagrams on both sides of
// the small buffer class (2048 and 2049 bytes), one mid-way through the
// large class and the largest UDP payload through every pktio path: the shard-driven and per-relay
// mmsgConn readers and the portable genericConn. Each must come back
// byte for byte, after crossing the relay in both directions.
func TestRelayCarriesClassBoundaryDatagrams(t *testing.T) {
	target := echoServer(t)
	cases := []struct {
		name   string
		mmsg   bool // needs the batched fast path
		shards int  // > 0: attach to a PumpGroup of this many shards
		force  bool // ForceGenericIO
	}{
		{name: "mmsg-sharded", mmsg: true, shards: 1},
		{name: "mmsg-pump", mmsg: true},
		{name: "generic", force: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mmsg && !BatchIOSupported() {
				t.Skip("batched socket I/O not supported on this platform")
			}
			var g *PumpGroup
			if tc.shards > 0 {
				g = NewPumpGroup(PumpGroupConfig{Shards: tc.shards})
				t.Cleanup(g.Close)
			}
			r := newRelay(t, target, constTrace(0, 0), 1, RelayOpts{Group: g, ForceGenericIO: tc.force})
			if _, ok := r.clientIO.(*genericConn); ok != tc.force {
				t.Fatalf("client side pktio %T, want generic=%v", r.clientIO, tc.force)
			}
			if r.Sharded() != (tc.shards > 0) {
				t.Fatalf("Sharded() = %v, want %v", r.Sharded(), tc.shards > 0)
			}
			c := dialRelay(t, r)
			got := make([]byte, maxDatagram+1)
			for _, size := range []int{smallDatagram, smallDatagram + 1, 32 << 10, 65507} {
				payload := make([]byte, size)
				for i := range payload {
					payload[i] = byte(i*7 + size)
				}
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := c.Write(payload); err != nil {
					t.Fatalf("%d B: %v", size, err)
				}
				n, err := c.Read(got)
				if err != nil {
					t.Fatalf("%d B: %v", size, err)
				}
				if !bytes.Equal(got[:n], payload) {
					t.Fatalf("%d B datagram came back as %d B, corrupted or truncated", size, n)
				}
			}
		})
	}
}
