package transport

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

func TestSeqArithmetic(t *testing.T) {
	cases := []struct {
		a, b   uint32
		lt, le bool
	}{
		{1, 2, true, true},
		{2, 2, false, true},
		{3, 2, false, false},
		// Wraparound: 2^32-1 < 1 in sequence space.
		{0xffffffff, 1, true, true},
		{1, 0xffffffff, false, false},
	}
	for _, c := range cases {
		if seqLT(c.a, c.b) != c.lt {
			t.Fatalf("seqLT(%d,%d) = %v", c.a, c.b, !c.lt)
		}
		if seqLE(c.a, c.b) != c.le {
			t.Fatalf("seqLE(%d,%d) = %v", c.a, c.b, !c.le)
		}
	}
}

// Property: for any offset below 2^31, a < a+delta in sequence space.
func TestSeqOrderProperty(t *testing.T) {
	f := func(a uint32, delta uint32) bool {
		d := delta % (1 << 30)
		if d == 0 {
			return seqLE(a, a) && !seqLT(a, a)
		}
		return seqLT(a, a+d) && !seqLT(a+d, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSYNRetransmissionUnderBlackout(t *testing.T) {
	// Total blackout for 4 seconds, then clear: Dial must retransmit its
	// SYN with backoff and eventually connect.
	s := sim.New(1)
	a, b := pair(s, fastLAN())
	blackout := true
	s.At(sim.Time(4*time.Second), func() { blackout = false })
	a.AddOutboundHook(simnet.HookFunc(func(dir simnet.Direction, ip []byte, next func([]byte)) {
		if blackout {
			return
		}
		next(ip)
	}))
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(80)
	s.Spawn("server", func(p *sim.Proc) { l.Accept(p) })
	var conn *Conn
	var err error
	var when sim.Time
	s.Spawn("client", func(p *sim.Proc) {
		conn, err = ta.Dial(p, ipB, 80)
		when = p.Now()
	})
	s.RunUntil(sim.Time(2 * time.Minute))
	if err != nil || conn == nil {
		t.Fatalf("dial after blackout: %v", err)
	}
	if when.Duration() < 4*time.Second {
		t.Fatalf("connected at %v, before the blackout lifted", when.Duration())
	}
	if conn.Retransmits == 0 {
		t.Fatal("SYN must have been retransmitted")
	}
}

func TestDialGivesUpEventually(t *testing.T) {
	// Permanent blackout: Dial must fail with ErrTimeout after its SYN
	// retry budget, not hang.
	s := sim.New(1)
	a, b := pair(s, fastLAN())
	a.AddOutboundHook(simnet.HookFunc(func(dir simnet.Direction, ip []byte, next func([]byte)) {}))
	ta := NewTCP(a)
	NewTCP(b)
	var err error
	done := false
	s.Spawn("client", func(p *sim.Proc) {
		_, err = ta.Dial(p, ipB, 80)
		done = true
	})
	s.RunUntil(sim.Time(time.Hour))
	if !done {
		t.Fatal("dial never returned")
	}
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestListenerCloseWakesAccept(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, fastLAN())
	NewTCP(a)
	tb := NewTCP(b)
	l, _ := tb.Listen(80)
	accepted := true
	s.Spawn("server", func(p *sim.Proc) {
		_, accepted = l.Accept(p)
	})
	s.At(sim.Time(time.Millisecond), func() { l.Close() })
	s.Run()
	if accepted {
		t.Fatal("Accept should report failure after Close")
	}
	if _, err := tb.Listen(80); err != nil {
		t.Fatalf("port should be reusable after close: %v", err)
	}
}

func TestListenPortConflict(t *testing.T) {
	s := sim.New(1)
	a, _ := pair(s, fastLAN())
	ta := NewTCP(a)
	if _, err := ta.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.Listen(80); err != ErrListenInUse {
		t.Fatalf("err = %v", err)
	}
}

func TestBidirectionalSimultaneousTransfer(t *testing.T) {
	// Both sides stream at once over one connection; both directions must
	// arrive intact (exercises the shared bottleneck and ack piggypath).
	s := sim.New(5)
	a, b := pair(s, fastLAN())
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(9)
	const size = 128 * 1024
	mk := func(seed byte) []byte {
		data := make([]byte, size)
		for i := range data {
			data[i] = seed + byte(i%97)
		}
		return data
	}
	up, down := mk(1), mk(2)
	var gotUp, gotDown []byte
	wg := sim.NewWaitGroup(s)
	wg.Go("server", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		inner := sim.NewWaitGroup(s)
		inner.Go("server-write", func(p *sim.Proc) {
			c.Write(p, down)
			c.Close()
		})
		buf := make([]byte, 64*1024)
		for len(gotUp) < size {
			n, err := c.Read(p, buf)
			if err != nil {
				break
			}
			gotUp = append(gotUp, buf[:n]...)
		}
		inner.Wait(p)
	})
	wg.Go("client", func(p *sim.Proc) {
		c, err := ta.Dial(p, ipB, 9)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		inner := sim.NewWaitGroup(s)
		inner.Go("client-write", func(p *sim.Proc) {
			c.Write(p, up)
		})
		buf := make([]byte, 64*1024)
		for len(gotDown) < size {
			n, err := c.Read(p, buf)
			if err != nil {
				break
			}
			gotDown = append(gotDown, buf[:n]...)
		}
		inner.Wait(p)
		c.Close()
	})
	s.RunUntil(sim.Time(10 * time.Minute))
	if !bytes.Equal(gotUp, up) {
		t.Fatalf("upstream corrupted: %d bytes", len(gotUp))
	}
	if !bytes.Equal(gotDown, down) {
		t.Fatalf("downstream corrupted: %d bytes", len(gotDown))
	}
}

func TestBurstLossRecovery(t *testing.T) {
	// A hook that drops 30 consecutive data segments mid-transfer forces
	// RTO recovery with re-segmentation; the stream must stay intact.
	s := sim.New(6)
	a, b := pair(s, fastLAN())
	dropped, startAt := 0, 100
	seen := 0
	a.AddOutboundHook(simnet.HookFunc(func(dir simnet.Direction, ip []byte, next func([]byte)) {
		v := packet.IPv4(ip)
		if v.Valid() == nil && v.Protocol() == packet.ProtoTCP && len(packet.TCP(v.Payload()).Payload()) > 0 {
			seen++
			if seen >= startAt && dropped < 30 {
				dropped++
				return
			}
		}
		next(ip)
	}))
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(20)
	payload := make([]byte, 512*1024)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	var received []byte
	s.Spawn("server", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		buf := make([]byte, 64*1024)
		for {
			n, err := c.Read(p, buf)
			if err != nil {
				break
			}
			received = append(received, buf[:n]...)
		}
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, _ := ta.Dial(p, ipB, 20)
		c.Write(p, payload)
		c.Close()
	})
	s.RunUntil(sim.Time(10 * time.Minute))
	if dropped != 30 {
		t.Fatalf("hook dropped %d, want 30", dropped)
	}
	if !bytes.Equal(received, payload) {
		t.Fatalf("received %d bytes, want %d intact after burst loss", len(received), len(payload))
	}
}

func TestConnStateStrings(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, fastLAN())
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(7)
	var c *Conn
	s.Spawn("server", func(p *sim.Proc) {
		sc, _ := l.Accept(p)
		sc.Discard(p, 1)
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, _ = ta.Dial(p, ipB, 7)
	})
	s.RunUntil(sim.Time(time.Second))
	if c == nil || c.StateString() != "ESTABLISHED" {
		t.Fatalf("state = %v", c.StateString())
	}
	if c.Closed() {
		t.Fatal("open connection reported closed")
	}
	if c.DebugString() == "" {
		t.Fatal("debug string empty")
	}
}

func TestQueueAppendIsFIFOAndReusesMemory(t *testing.T) {
	var q, mem []byte
	var free queueArrays
	var want []byte // the reference queue
	next := byte(0)
	push := func(n int) {
		data := make([]byte, n)
		for i := range data {
			data[i] = next
			next++
		}
		q = queueAppend(q, &mem, data, &free)
		want = append(want, data...)
	}
	pop := func(n int) {
		q, want = q[n:], want[n:]
	}
	for i := 0; i < 200; i++ {
		push(1 + i%7*300)
		if !bytes.Equal(q, want) {
			t.Fatalf("step %d: queue diverged from reference", i)
		}
		pop(len(q) / 2)
	}
	// Steady state: a bounded queue streaming through reuses its array.
	data := make([]byte, 1460)
	if allocs := testing.AllocsPerRun(100, func() {
		q = queueAppend(q, &mem, data, &free)
		q = q[len(data):]
	}); allocs != 0 {
		t.Fatalf("steady-state queueAppend allocates %.1f per call", allocs)
	}
}

// TestQueueAppendAmortisesCopies holds queueAppend's invariant: after any
// slide or growth the free room behind the tail is at least the number of
// live bytes, so a full send queue streaming MSS-sized appends and acks
// moves at most as many bytes as it takes in. (Sliding whenever the live
// bytes merely fit moved a whole 64 KiB queue on nearly every append.)
func TestQueueAppendAmortisesCopies(t *testing.T) {
	var q, mem []byte
	var free queueArrays
	data := make([]byte, MSS)
	moved, appended := 0, 0
	push := func() {
		slow := len(q)+len(data) > cap(q)
		live := len(q)
		q = queueAppend(q, &mem, data, &free)
		if !slow {
			return
		}
		moved += live
		if &q[0] != &mem[0] {
			t.Fatalf("a slide or growth left the queue off the front of its array")
		}
		if room := cap(q) - len(q); room < len(q) {
			t.Fatalf("after a slide or growth: %d bytes free behind %d live", room, len(q))
		}
	}
	for len(q) < SendBufSize-MSS {
		push()
	}
	moved = 0
	for i := 0; i < 10000; i++ {
		push()
		appended += len(data)
		q = q[MSS:] // an ack takes a segment off the front
	}
	if moved > appended {
		t.Fatalf("streaming %d bytes through a full queue moved %d (%.1f per byte), want at most 1 per byte",
			appended, moved, float64(moved)/float64(appended))
	}
	t.Logf("moved %.2f bytes per byte appended", float64(moved)/float64(appended))
}

// TestClosedConnsRecycleQueueArrays: a torn-down connection gives its
// queue arrays back to its stack, the receive array only once the
// application has read it empty, and the stack's next connection of the
// same shape reuses them instead of allocating.
func TestClosedConnsRecycleQueueArrays(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, fastLAN())
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(20)
	payload := make([]byte, 32*1024) // fits the receive window
	free := func(st *TCPStack) map[*byte]bool {
		set := map[*byte]bool{}
		for _, arr := range st.arrays {
			set[&arr[:1][0]] = true
		}
		return set
	}
	// transfer sends payload and closes. The server reads it all before
	// closing, or with closeFirst closes first (the whole payload and the
	// client's FIN have arrived by then) and reads the rest after the
	// connection is torn down.
	transfer := func(closeFirst bool) {
		s.Spawn("server", func(p *sim.Proc) {
			c, _ := l.Accept(p)
			p.Sleep(2 * time.Second)
			if closeFirst {
				c.Close()
				p.Sleep(time.Second)
				if !c.Closed() || len(c.recvBuf) != len(payload) || c.recvMem == nil {
					t.Errorf("closed conn holds %d of %d bytes (array kept: %v)",
						len(c.recvBuf), len(payload), c.recvMem != nil)
				}
			}
			buf := make([]byte, len(payload))
			if n, err := c.ReadFull(p, buf); n != len(payload) {
				t.Errorf("read %d of %d bytes: %v", n, len(payload), err)
			}
			c.Close()
			p.Sleep(time.Second)
			if !c.Closed() || c.recvMem != nil || c.sendMem != nil {
				t.Error("a drained, closed connection kept its queue arrays")
			}
		})
		s.Spawn("client", func(p *sim.Proc) {
			c, _ := ta.Dial(p, ipB, 20)
			c.Write(p, payload)
			c.Close()
		})
		s.Run()
	}
	transfer(false)
	firstA, firstB := free(ta), free(tb)
	if len(firstA) == 0 || len(firstB) == 0 {
		t.Fatalf("closed connections handed back %d and %d arrays, want some on each side", len(firstA), len(firstB))
	}
	transfer(true)
	for st, first := range map[*TCPStack]map[*byte]bool{ta: firstA, tb: firstB} {
		for arr := range free(st) {
			if !first[arr] {
				t.Errorf("%s: the second connection allocated a queue array", st.node.Name)
			}
		}
	}
}
