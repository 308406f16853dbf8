package simnet

import (
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/packet"
	"tracemod/internal/sim"
)

var (
	ipA  = packet.IP4(10, 0, 0, 1)
	ipB  = packet.IP4(10, 0, 0, 2)
	ipGW = packet.IP4(10, 0, 0, 254)
	ipG2 = packet.IP4(10, 0, 1, 254)
	ipC  = packet.IP4(10, 0, 1, 1)
	mask = packet.IP4(255, 255, 255, 0)
)

// lan builds two nodes A and B on one static medium.
func lan(s *sim.Scheduler, q Static) (*Node, *Node, *Medium) {
	m := NewMedium(s, "lan", q)
	a := NewNode(s, "a")
	a.AttachNIC(m, ipA, mask)
	b := NewNode(s, "b")
	b.AttachNIC(m, ipB, mask)
	return a, b, m
}

// withIPRoom returns a fresh datagram buffer for SendIP: IP header room
// followed by payload.
func withIPRoom(payload []byte) []byte {
	return append(make([]byte, packet.IPv4HeaderLen, packet.IPv4HeaderLen+len(payload)), payload...)
}

func fastQuality() Static {
	return Static{Latency: time.Millisecond, PerByte: 100, Loss: 0}
}

func TestDeliverToHandler(t *testing.T) {
	s := sim.New(1)
	a, b, _ := lan(s, fastQuality())
	var got []byte
	var at sim.Time
	b.RegisterProto(200, func(n *Node, ip packet.IPv4) {
		got = append([]byte(nil), ip.Payload()...)
		at = s.Now()
	})
	payload := []byte("hello network")
	if !a.SendIP(200, ipB, withIPRoom(payload)) {
		t.Fatal("SendIP returned false")
	}
	s.Run()
	if string(got) != "hello network" {
		t.Fatalf("payload = %q", got)
	}
	// Delivery = tx time + latency. Frame = 14 eth + 20 ip + 13 payload = 47B at 100ns/B = 4.7µs, + 1ms.
	want := sim.Time(0).Add(4700*time.Nanosecond + time.Millisecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if b.Stats().Received != 1 || a.Stats().Sent != 1 {
		t.Fatalf("stats: %+v %+v", a.Stats(), b.Stats())
	}
}

func TestICMPEchoResponder(t *testing.T) {
	s := sim.New(1)
	a, _, _ := lan(s, fastQuality())
	var reply packet.ICMP
	var rtt time.Duration
	start := s.Now()
	a.RegisterProto(packet.ProtoICMP, func(n *Node, ip packet.IPv4) {
		m := packet.ICMP(ip.Payload())
		if m.Valid() && m.Type() == packet.ICMPEchoReply {
			reply = append(packet.ICMP(nil), m...)
			rtt = s.Now().Sub(start)
		}
	})
	echo := packet.MarshalICMP(packet.ICMPFields{Type: packet.ICMPEcho, ID: 33, Seq: 7}, packet.EchoPayload(64, 0))
	a.SendIP(packet.ProtoICMP, ipB, withIPRoom(echo))
	s.Run()
	if reply == nil {
		t.Fatal("no echo reply")
	}
	if reply.ID() != 33 || reply.Seq() != 7 || len(reply.Payload()) != 64 {
		t.Fatalf("reply fields: id=%d seq=%d len=%d", reply.ID(), reply.Seq(), len(reply.Payload()))
	}
	if rtt <= 2*time.Millisecond {
		t.Fatalf("rtt = %v, want > 2ms (two traversals)", rtt)
	}
}

func TestMediumSerializes(t *testing.T) {
	// Two packets sent at once: the second's delivery is pushed out by the
	// first's transmission time (half-duplex serialization), and latency
	// pipelines.
	s := sim.New(1)
	a, b, _ := lan(s, Static{Latency: 10 * time.Millisecond, PerByte: 1000})
	var deliveries []sim.Time
	b.RegisterProto(200, func(n *Node, ip packet.IPv4) { deliveries = append(deliveries, s.Now()) })
	payload := make([]byte, 966) // frame = 966+20+14 = 1000B -> 1ms tx
	a.SendIP(200, ipB, withIPRoom(payload))
	a.SendIP(200, ipB, withIPRoom(payload))
	s.Run()
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %d", len(deliveries))
	}
	if want := sim.Time(0).Add(11 * time.Millisecond); deliveries[0] != want {
		t.Fatalf("first delivery %v, want %v", deliveries[0], want)
	}
	if want := sim.Time(0).Add(12 * time.Millisecond); deliveries[1] != want {
		t.Fatalf("second delivery %v, want %v (1ms behind, not 10ms)", deliveries[1], want)
	}
}

func TestLossDropsFrames(t *testing.T) {
	s := sim.New(42)
	a, b, m := lan(s, Static{Latency: time.Microsecond, PerByte: 1, Loss: 0.5})
	got := 0
	b.RegisterProto(200, func(n *Node, ip packet.IPv4) { got++ })
	const sent = 400
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < sent; i++ {
			a.SendIP(200, ipB, withIPRoom([]byte{1}))
			p.Sleep(time.Millisecond)
		}
	})
	s.Run()
	if got == 0 || got == sent {
		t.Fatalf("got %d of %d: loss process not working", got, sent)
	}
	if frac := float64(got) / sent; frac < 0.4 || frac > 0.6 {
		t.Fatalf("survival fraction %.2f, want ≈0.5", frac)
	}
	if m.Stats().Lost == 0 {
		t.Fatal("medium should count losses")
	}
}

func TestQueueCapDropTail(t *testing.T) {
	s := sim.New(1)
	a, b, m := lan(s, Static{Latency: 0, PerByte: 10000}) // slow: 10µs/B
	a.NIC(0).QueueCap = 3
	got := 0
	b.RegisterProto(200, func(n *Node, ip packet.IPv4) { got++ })
	for i := 0; i < 10; i++ {
		a.SendIP(200, ipB, withIPRoom([]byte{1, 2, 3}))
	}
	s.Run()
	if got != 3 {
		t.Fatalf("delivered %d, want 3 (queue cap)", got)
	}
	if m.Stats().QueueDrops != 7 {
		t.Fatalf("queue drops = %d, want 7", m.Stats().QueueDrops)
	}
}

// routedNet builds a -- gw -- c across two media (wireless-ish + ethernet).
func routedNet(s *sim.Scheduler) (*Node, *Node, *Node) {
	mw := NewMedium(s, "wireless", Static{Latency: 2 * time.Millisecond, PerByte: 4000})
	me := NewMedium(s, "ether", Ethernet10())
	a := NewNode(s, "laptop")
	a.AttachNIC(mw, ipA, mask)
	a.SetDefaultRoute(ipGW)
	gw := NewNode(s, "gw")
	gw.Forwarding = true
	gw.AttachNIC(mw, ipGW, mask)
	gw.AttachNIC(me, ipG2, mask)
	c := NewNode(s, "server")
	c.AttachNIC(me, ipC, mask)
	c.SetDefaultRoute(ipG2)
	return a, gw, c
}

func TestForwardingAcrossRouter(t *testing.T) {
	s := sim.New(1)
	a, gw, c := routedNet(s)
	var gotTTL uint8
	var echoed bool
	c.RegisterProto(222, func(n *Node, ip packet.IPv4) {
		gotTTL = ip.TTL()
		// Reply back across the router.
		n.SendIP(223, ip.Src(), withIPRoom([]byte("pong")))
	})
	a.RegisterProto(223, func(n *Node, ip packet.IPv4) { echoed = true })
	a.SendIP(222, ipC, withIPRoom([]byte("ping")))
	s.Run()
	if gotTTL != 63 {
		t.Fatalf("TTL = %d, want 63 after one hop", gotTTL)
	}
	if !echoed {
		t.Fatal("reply did not come back")
	}
	if gw.Stats().Forwarded != 2 {
		t.Fatalf("forwarded = %d, want 2", gw.Stats().Forwarded)
	}
}

func TestTTLExpiry(t *testing.T) {
	s := sim.New(1)
	_, gw, _ := routedNet(s)
	// Inject a TTL-1 datagram directly at the router's input.
	ip := packet.MarshalIPv4(packet.IPv4Fields{TTL: 1, Protocol: 200, Src: ipA, Dst: ipC}, []byte("x"))
	gw.input(ip, false, false)
	s.Run()
	if gw.Stats().TTLDrops != 1 {
		t.Fatalf("ttl drops = %d", gw.Stats().TTLDrops)
	}
	if gw.Stats().Forwarded != 0 {
		t.Fatal("expired datagram must not be forwarded")
	}
}

func TestNoRoute(t *testing.T) {
	s := sim.New(1)
	a, _, _ := lan(s, fastQuality())
	if a.SendIP(200, packet.IP4(192, 168, 9, 9), withIPRoom([]byte("x"))) {
		t.Fatal("SendIP should fail with no route")
	}
	if a.Stats().NoRoute != 1 {
		t.Fatal("NoRoute not counted")
	}
}

func TestBadChecksumDropped(t *testing.T) {
	s := sim.New(1)
	a, b, _ := lan(s, fastQuality())
	got := 0
	b.RegisterProto(200, func(n *Node, ip packet.IPv4) { got++ })
	// Corrupt datagram injected straight into b's input path.
	ip := packet.MarshalIPv4(packet.IPv4Fields{TTL: 4, Protocol: 200, Src: ipA, Dst: ipB}, []byte("x"))
	ip[8] ^= 0xff // break checksum
	b.input(ip, false, false)
	s.Run()
	if got != 0 || b.Stats().BadSum != 1 {
		t.Fatalf("got=%d badsum=%d", got, b.Stats().BadSum)
	}
	_ = a
}

func TestOutboundHookDelaysAndDrops(t *testing.T) {
	s := sim.New(1)
	a, b, _ := lan(s, fastQuality())
	var deliveredAt sim.Time
	b.RegisterProto(200, func(n *Node, ip packet.IPv4) { deliveredAt = s.Now() })
	n := 0
	a.AddOutboundHook(HookFunc(func(dir Direction, ip []byte, next func([]byte)) {
		if dir != Outbound {
			t.Errorf("dir = %v", dir)
		}
		n++
		if n == 1 {
			return // drop first packet
		}
		s.After(50*time.Millisecond, func() { next(ip) }) // delay second
	}))
	a.SendIP(200, ipB, withIPRoom([]byte("dropped")))
	a.SendIP(200, ipB, withIPRoom([]byte("delayed")))
	s.Run()
	if deliveredAt < sim.Time(0).Add(50*time.Millisecond) {
		t.Fatalf("delivered at %v, want >= 50ms", deliveredAt)
	}
	if n != 2 {
		t.Fatalf("hook saw %d packets", n)
	}
}

func TestInboundHookChainOrder(t *testing.T) {
	s := sim.New(1)
	a, b, _ := lan(s, fastQuality())
	var order []string
	b.AddInboundHook(HookFunc(func(d Direction, ip []byte, next func([]byte)) {
		order = append(order, "h1")
		next(ip)
	}))
	b.AddInboundHook(HookFunc(func(d Direction, ip []byte, next func([]byte)) {
		order = append(order, "h2")
		next(ip)
	}))
	b.RegisterProto(200, func(n *Node, ip packet.IPv4) { order = append(order, "handler") })
	a.SendIP(200, ipB, withIPRoom([]byte("x")))
	s.Run()
	if len(order) != 3 || order[0] != "h1" || order[1] != "h2" || order[2] != "handler" {
		t.Fatalf("order = %v", order)
	}
}

func TestTapSeesBothDirections(t *testing.T) {
	s := sim.New(1)
	a, _, _ := lan(s, fastQuality())
	var taps []Direction
	var sizes []int
	a.NIC(0).SetTap(func(dir Direction, at sim.Time, ip []byte, q Quality) {
		taps = append(taps, dir)
		sizes = append(sizes, len(ip))
	})
	echo := packet.MarshalICMP(packet.ICMPFields{Type: packet.ICMPEcho, ID: 1, Seq: 1}, packet.EchoPayload(32, 0))
	a.SendIP(packet.ProtoICMP, ipB, withIPRoom(echo))
	s.Run()
	if len(taps) != 2 || taps[0] != Outbound || taps[1] != Inbound {
		t.Fatalf("taps = %v", taps)
	}
	wantSize := packet.IPv4HeaderLen + packet.ICMPHeaderLen + 32
	if sizes[0] != wantSize || sizes[1] != wantSize {
		t.Fatalf("sizes = %v, want %d", sizes, wantSize)
	}
}

func TestTimeVaryingQuality(t *testing.T) {
	// Provider that doubles per-byte cost after 1 second.
	prov := providerFunc(func(at sim.Time) Quality {
		q := Quality{Latency: 0, PerByte: 1000}
		if at >= sim.Time(time.Second) {
			q.PerByte = 2000
		}
		return q
	})
	s := sim.New(1)
	m := NewMedium(s, "vary", prov)
	a := NewNode(s, "a")
	a.AttachNIC(m, ipA, mask)
	b := NewNode(s, "b")
	b.AttachNIC(m, ipB, mask)
	var times []sim.Time
	b.RegisterProto(200, func(n *Node, ip packet.IPv4) { times = append(times, s.Now()) })
	payload := make([]byte, 966) // 1000B frame
	send := func(at time.Duration) { s.At(sim.Time(at), func() { a.SendIP(200, ipB, withIPRoom(payload)) }) }
	send(0)
	send(2 * time.Second)
	s.Run()
	if len(times) != 2 {
		t.Fatal("expected 2 deliveries")
	}
	if d := times[0].Duration(); d != time.Millisecond {
		t.Fatalf("early tx = %v, want 1ms", d)
	}
	if d := times[1].Duration() - 2*time.Second; d != 2*time.Millisecond {
		t.Fatalf("late tx = %v, want 2ms", d)
	}
}

type providerFunc func(at sim.Time) Quality

func (f providerFunc) Sample(at sim.Time) Quality { return f(at) }

func TestEthernet10Profile(t *testing.T) {
	q := Ethernet10().Sample(0)
	if q.PerByte != core.PerByteFromBandwidth(10e6) {
		t.Fatal("ethernet bandwidth wrong")
	}
	if q.Loss != 0 {
		t.Fatal("ethernet should be lossless")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []sim.Time {
		s := sim.New(99)
		a, b, _ := lan(s, Static{Latency: time.Millisecond, PerByte: 500, Loss: 0.3})
		var times []sim.Time
		b.RegisterProto(200, func(n *Node, ip packet.IPv4) { times = append(times, s.Now()) })
		s.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				a.SendIP(200, ipB, withIPRoom([]byte("abcdef")))
				p.Sleep(10 * time.Millisecond)
			}
		})
		s.Run()
		return times
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("lengths differ: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("run diverged at %d", i)
		}
	}
}

func TestBroadcastDelivery(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, "lan", fastQuality())
	a := NewNode(s, "a")
	na := a.AttachNIC(m, ipA, mask)
	recv, tapped := 0, 0
	for i := 2; i <= 4; i++ {
		n := NewNode(s, "n")
		n.AttachNIC(m, packet.IP4(10, 0, 0, byte(i)), mask)
		n.RegisterProto(200, func(nn *Node, ip packet.IPv4) { recv++ })
		n.NIC(0).SetTap(func(dir Direction, at sim.Time, ip []byte, q Quality) {
			if dir == Inbound && string(packet.IPv4(ip).Payload()) == "b" {
				tapped++
			}
		})
	}
	na.SetTap(func(dir Direction, at sim.Time, ip []byte, q Quality) {
		if dir == Inbound {
			t.Error("a broadcast frame must not come back to its sender")
		}
	})
	ip := packet.MarshalIPv4(packet.IPv4Fields{TTL: 4, Protocol: 200, Src: ipA, Dst: packet.IP4(255, 255, 255, 255)}, []byte("b"))
	m.enqueue(na, broadcastHW, ip)
	s.Run()
	// Broadcast reaches all attached NICs, but dst 255.255.255.255 is not
	// local to any node, so handlers never fire.
	if m.Stats().Frames != 1 {
		t.Fatal("broadcast frame not transmitted")
	}
	if want := int64(packet.EthernetHeaderLen + len(ip)); m.Stats().Bytes != want {
		t.Fatalf("medium bytes = %d, want %d (Ethernet header charged)", m.Stats().Bytes, want)
	}
	if tapped != 3 {
		t.Fatalf("broadcast reached %d receivers, want 3", tapped)
	}
	if recv != 0 {
		t.Fatal("non-local broadcast should not reach handlers")
	}
}

func TestForwardedBroadcastIsCopied(t *testing.T) {
	// A broadcast datagram addressed to c reaches both the router gw (which
	// forwards it back onto the LAN toward c) and c itself. Every receiver
	// shares the one buffer, so the router must rewrite a copy: c's view of
	// the broadcast must keep its original TTL.
	s := sim.New(1)
	m := NewMedium(s, "lan", fastQuality())
	a := NewNode(s, "a")
	na := a.AttachNIC(m, ipA, mask)
	gw := NewNode(s, "gw")
	gw.Forwarding = true
	gw.AttachNIC(m, ipGW, mask)
	c := NewNode(s, "c")
	c.AttachNIC(m, ipB, mask)
	var seen [][]byte // c's handler retains what it is given: it owns it
	c.RegisterProto(200, func(n *Node, ip packet.IPv4) { seen = append(seen, ip) })

	ip := packet.MarshalIPv4(packet.IPv4Fields{TTL: 9, Protocol: 200, Src: ipA, Dst: ipB}, []byte("bcast"))
	m.enqueue(na, broadcastHW, ip)
	s.Run()

	if gw.Stats().Forwarded != 1 {
		t.Fatalf("forwarded = %d, want 1", gw.Stats().Forwarded)
	}
	if len(seen) != 2 {
		t.Fatalf("c received %d datagrams, want the broadcast and the forwarded copy", len(seen))
	}
	if got := packet.IPv4(seen[0]).TTL(); got != 9 {
		t.Fatalf("broadcast TTL seen by c = %d, want 9: the router mutated a shared frame", got)
	}
	if !packet.IPv4(seen[0]).ChecksumOK() {
		t.Fatal("broadcast header checksum broken under another receiver")
	}
	if got := packet.IPv4(seen[1]).TTL(); got != 8 {
		t.Fatalf("forwarded TTL = %d, want 8", got)
	}
	if &seen[0][0] == &seen[1][0] {
		t.Fatal("forwarded broadcast shares the original buffer")
	}
}

func TestUnicastForwardIsInPlace(t *testing.T) {
	// A unicast datagram belongs to the router once it arrives, so the
	// router rewrites TTL and checksum in place: the server receives the
	// very buffer the client allocated.
	s := sim.New(1)
	a, _, c := routedNet(s)
	var got []byte
	c.RegisterProto(222, func(n *Node, ip packet.IPv4) { got = ip })
	buf := withIPRoom([]byte("ping"))
	a.SendIP(222, ipC, buf)
	s.Run()
	if got == nil {
		t.Fatal("not delivered")
	}
	if &got[0] != &buf[0] {
		t.Fatal("datagram was copied between sender and receiver")
	}
	if v := packet.IPv4(got); v.TTL() != 63 || !v.ChecksumOK() {
		t.Fatalf("TTL %d checksum ok %v after one hop", v.TTL(), v.ChecksumOK())
	}
}

func TestHookChainComposedOnce(t *testing.T) {
	// The chain is rebuilt by each Add*Hook: a hook added later runs after
	// earlier ones, and datagrams sent before it was added are unaffected.
	s := sim.New(1)
	a, b, _ := lan(s, fastQuality())
	var order []string
	a.AddOutboundHook(HookFunc(func(d Direction, ip []byte, next func([]byte)) {
		order = append(order, "h1")
		next(ip)
	}))
	a.SendIP(200, ipB, withIPRoom([]byte("1")))
	a.AddOutboundHook(HookFunc(func(d Direction, ip []byte, next func([]byte)) {
		order = append(order, "h2")
		next(ip)
	}))
	got := 0
	b.RegisterProto(200, func(n *Node, ip packet.IPv4) { got++ })
	a.SendIP(200, ipB, withIPRoom([]byte("2")))
	s.Run()
	if want := []string{"h1", "h1", "h2"}; len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
}

func TestSendIPNeedsHeaderRoom(t *testing.T) {
	s := sim.New(1)
	a, _, _ := lan(s, fastQuality())
	defer func() {
		if recover() == nil {
			t.Fatal("a buffer shorter than an IP header must panic")
		}
	}()
	a.SendIP(200, ipB, make([]byte, packet.IPv4HeaderLen-1))
}

func TestSimnetHopAllocations(t *testing.T) {
	// Steady state across a router: once the media's frame free lists and
	// the scheduler's datagram free list are warm, carrying a datagram
	// from SendIP through a two-medium routed path to its handler
	// allocates nothing. Each send takes a fresh buffer, as the ownership
	// rule demands, and the handler, its last owner, releases it.
	s := sim.New(1)
	a, _, c := routedNet(s)
	delivered := 0
	c.RegisterProto(222, func(n *Node, ip packet.IPv4) {
		delivered++
		n.Sched().ReleaseBuf(ip)
	})
	send := func() {
		a.SendIP(222, ipC, s.Buf(packet.IPv4HeaderLen+100))
		s.Run()
	}
	send() // warm the free lists and the event pool
	allocs := testing.AllocsPerRun(100, send)
	if allocs != 0 {
		t.Fatalf("routed hop allocates %.1f per datagram, want 0", allocs)
	}
	if delivered != 102 { // AllocsPerRun adds one warm-up call of its own
		t.Fatalf("delivered %d, want 102", delivered)
	}
}

func TestSaturatedMediumQueueStaysBounded(t *testing.T) {
	// Offered load above capacity keeps the medium busy from the first
	// frame to the last; its transmit queue must stay near the NIC queue
	// cap instead of growing with every frame ever sent.
	s := sim.New(1)
	a, b, m := lan(s, Static{PerByte: 1000}) // 1 µs/B: a 134-byte frame takes 134 µs
	got := 0
	b.RegisterProto(200, func(n *Node, ip packet.IPv4) { got++ })
	const sent = 20000
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < sent; i++ {
			a.SendIP(200, ipB, withIPRoom(make([]byte, 100)))
			p.Sleep(100 * time.Microsecond)
		}
	})
	s.Run()
	if got == 0 || m.Stats().QueueDrops == 0 {
		t.Fatalf("delivered %d, queue drops %d: the medium was not saturated", got, m.Stats().QueueDrops)
	}
	if c := cap(m.queue); c > 4*a.NIC(0).QueueCap {
		t.Fatalf("medium queue grew to cap %d over %d frames (NIC queue cap %d)", c, sent, a.NIC(0).QueueCap)
	}
}

// TestDropAndConsumeReleaseBuffers: a datagram's last owner gives its
// buffer back, zeroed, whether that owner is a drop point (the loss
// lottery here) or the protocol handler that consumed it (the ICMP echo
// responder). A stale reference, kept here by a tap against the rules,
// reads zeros.
func TestDropAndConsumeReleaseBuffers(t *testing.T) {
	for _, tc := range []struct {
		name string
		loss float64
	}{{"lost", 1}, {"consumed", 0}} {
		s := sim.New(1)
		a, _, _ := lan(s, Static{Latency: time.Millisecond, PerByte: 100, Loss: tc.loss})
		var sent []byte
		a.NIC(0).SetTap(func(dir Direction, at sim.Time, ip []byte, q Quality) {
			if dir == Outbound && sent == nil {
				sent = ip
			}
		})
		echo := packet.ICMP(make([]byte, packet.ICMPHeaderLen+32))
		packet.PutICMPHeader(echo, packet.ICMPFields{Type: packet.ICMPEcho, ID: 1, Seq: 1})
		buf := s.Buf(packet.IPv4HeaderLen + len(echo))
		copy(buf[packet.IPv4HeaderLen:], echo)
		a.SendIP(packet.ProtoICMP, ipB, buf)
		s.Run()
		if sent == nil {
			t.Fatalf("%s: the echo never left", tc.name)
		}
		for i, b := range sent[:cap(sent)] {
			if b != 0 {
				t.Fatalf("%s: byte %d of the echo's buffer = %#x after its last owner: not released", tc.name, i, b)
			}
		}
	}
}

// TestBroadcastFrameIsNeverReleased: every receiver of a broadcast frame
// sees the one buffer, so no receiver's release may recycle it, whether
// the receiver consumes it (b's echo responder), drops it (c, not
// forwarding) or forwards it (the router, which copies it).
func TestBroadcastFrameIsNeverReleased(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, "lan", fastQuality())
	a := NewNode(s, "a")
	na := a.AttachNIC(m, ipA, mask)
	b := NewNode(s, "b")
	b.AttachNIC(m, ipB, mask)
	c := NewNode(s, "c")
	c.AttachNIC(m, packet.IP4(10, 0, 0, 3), mask)
	gw := NewNode(s, "gw")
	gw.Forwarding = true
	gw.AttachNIC(m, ipGW, mask)

	echo := packet.ICMP(make([]byte, packet.ICMPHeaderLen+8))
	packet.PutICMPHeader(echo, packet.ICMPFields{Type: packet.ICMPEcho, ID: 1, Seq: 1})
	ip := s.Buf(packet.IPv4HeaderLen + len(echo))
	copy(ip[packet.IPv4HeaderLen:], echo)
	packet.PutIPv4Header(ip, packet.IPv4Fields{TTL: 9, Protocol: packet.ProtoICMP, Src: ipA, Dst: ipB})
	want := string(ip)
	m.enqueue(na, broadcastHW, ip)
	s.Run()

	if b.Stats().Received == 0 || gw.Stats().Forwarded != 1 {
		t.Fatalf("b received %d, gw forwarded %d: the broadcast did not reach its receivers", b.Stats().Received, gw.Stats().Forwarded)
	}
	if string(ip) != want {
		t.Fatal("a receiver released the shared broadcast frame: its bytes changed")
	}
	for i := 0; i < 8; i++ {
		if nb := s.Buf(len(ip)); &nb[0] == &ip[0] {
			t.Fatal("the shared broadcast frame was handed out again by the free list")
		}
	}
}
