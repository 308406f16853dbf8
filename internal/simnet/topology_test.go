package simnet

import (
	"testing"
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
)

// chain builds a linear topology a - r1 - r2 - b across three media and
// returns the end hosts.
func chain(s *sim.Scheduler) (*Node, *Node) {
	m1 := NewMedium(s, "m1", Static{Latency: time.Millisecond, PerByte: 100})
	m2 := NewMedium(s, "m2", Static{Latency: time.Millisecond, PerByte: 100})
	m3 := NewMedium(s, "m3", Static{Latency: time.Millisecond, PerByte: 100})

	net1a, net1r := packet.IP4(10, 1, 0, 1), packet.IP4(10, 1, 0, 254)
	net2a, net2b := packet.IP4(10, 2, 0, 1), packet.IP4(10, 2, 0, 2)
	net3r, net3b := packet.IP4(10, 3, 0, 254), packet.IP4(10, 3, 0, 1)
	m24 := packet.IP4(255, 255, 255, 0)

	a := NewNode(s, "a")
	a.AttachNIC(m1, net1a, m24)
	a.SetDefaultRoute(net1r)

	r1 := NewNode(s, "r1")
	r1.Forwarding = true
	r1.AttachNIC(m1, net1r, m24)
	r1.AttachNIC(m2, net2a, m24)
	r1.AddRoute(packet.IP4(10, 3, 0, 0), m24, net2b)

	r2 := NewNode(s, "r2")
	r2.Forwarding = true
	r2.AttachNIC(m2, net2b, m24)
	r2.AttachNIC(m3, net3r, m24)
	r2.AddRoute(packet.IP4(10, 1, 0, 0), m24, net2a)

	b := NewNode(s, "b")
	b.AttachNIC(m3, net3b, m24)
	b.SetDefaultRoute(net3r)
	return a, b
}

func TestTwoHopForwardingRoundTrip(t *testing.T) {
	s := sim.New(1)
	a, b := chain(s)
	var echoed bool
	var ttl uint8
	b.RegisterProto(200, func(n *Node, ip packet.IPv4) {
		ttl = ip.TTL()
		n.SendIP(201, ip.Src(), withIPRoom([]byte("pong")))
	})
	a.RegisterProto(201, func(n *Node, ip packet.IPv4) { echoed = true })
	if !a.SendIP(200, packet.IP4(10, 3, 0, 1), withIPRoom([]byte("ping"))) {
		t.Fatal("send failed")
	}
	s.Run()
	if !echoed {
		t.Fatal("no round trip across two routers")
	}
	if ttl != 62 {
		t.Fatalf("TTL = %d, want 62 after two hops", ttl)
	}
}

func TestICMPAcrossChain(t *testing.T) {
	s := sim.New(2)
	a, _ := chain(s)
	var rtt time.Duration
	a.RegisterProto(packet.ProtoICMP, func(n *Node, ip packet.IPv4) {
		m := packet.ICMP(ip.Payload())
		if m.Valid() && m.Type() == packet.ICMPEchoReply {
			if sent, ok := m.SentAt(); ok {
				rtt = s.Now().Sub(sim.Time(sent))
			}
		}
	})
	echo := packet.MarshalICMP(packet.ICMPFields{Type: packet.ICMPEcho, ID: 5, Seq: 1},
		packet.EchoPayload(64, int64(s.Now())))
	a.SendIP(packet.ProtoICMP, packet.IP4(10, 3, 0, 1), withIPRoom(echo))
	s.Run()
	// Six medium traversals at 1ms latency each, plus transmission time.
	if rtt < 6*time.Millisecond || rtt > 8*time.Millisecond {
		t.Fatalf("rtt = %v, want ≈6-7ms across three media each way", rtt)
	}
}

func TestSharedMediumFairness(t *testing.T) {
	// Two senders saturating one medium: the FIFO queue gives them
	// throughput within a factor of two of each other.
	s := sim.New(3)
	m := NewMedium(s, "shared", Static{Latency: 0, PerByte: 1000})
	m24 := packet.IP4(255, 255, 255, 0)
	mk := func(last byte) *Node {
		n := NewNode(s, "n")
		n.AttachNIC(m, packet.IP4(10, 0, 0, last), m24)
		return n
	}
	s1, s2, sink := mk(1), mk(2), mk(3)
	got := map[packet.IPAddr]int{}
	sink.RegisterProto(200, func(n *Node, ip packet.IPv4) { got[ip.Src()]++ })
	for _, snd := range []*Node{s1, s2} {
		snd := snd
		s.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				snd.SendIP(200, packet.IP4(10, 0, 0, 3), withIPRoom(make([]byte, 400)))
				p.Sleep(300 * time.Microsecond) // offered load ≈ 1.5x capacity each
			}
		})
	}
	s.Run()
	a, b := got[packet.IP4(10, 0, 0, 1)], got[packet.IP4(10, 0, 0, 2)]
	if a == 0 || b == 0 {
		t.Fatalf("starvation: %d vs %d", a, b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("unfair medium: %d vs %d", a, b)
	}
}

func TestHookDropCounting(t *testing.T) {
	// A dropping outbound hook must reduce Sent-side deliveries without
	// touching the medium's loss counter (the hook is above the device).
	s := sim.New(4)
	m := NewMedium(s, "lan", Static{Latency: time.Millisecond, PerByte: 100})
	m24 := packet.IP4(255, 255, 255, 0)
	a := NewNode(s, "a")
	a.AttachNIC(m, packet.IP4(10, 0, 0, 1), m24)
	b := NewNode(s, "b")
	b.AttachNIC(m, packet.IP4(10, 0, 0, 2), m24)
	n := 0
	a.AddOutboundHook(HookFunc(func(d Direction, ip []byte, next func([]byte)) {
		n++
		if n%2 == 0 {
			return
		}
		next(ip)
	}))
	got := 0
	b.RegisterProto(200, func(nn *Node, ip packet.IPv4) { got++ })
	for i := 0; i < 10; i++ {
		a.SendIP(200, packet.IP4(10, 0, 0, 2), withIPRoom([]byte("x")))
	}
	s.Run()
	if got != 5 {
		t.Fatalf("delivered %d, want 5", got)
	}
	if m.Stats().Lost != 0 {
		t.Fatal("hook drops must not count as medium loss")
	}
	if a.Stats().Sent != 10 {
		t.Fatalf("sent counter = %d, want 10 (counted at the IP layer)", a.Stats().Sent)
	}
}

func TestMTUEnforcement(t *testing.T) {
	s := sim.New(5)
	m := NewMedium(s, "lan", Static{PerByte: 1})
	a := NewNode(s, "a")
	a.AttachNIC(m, packet.IP4(10, 0, 0, 1), packet.IP4(255, 255, 255, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("oversize payload must panic")
		}
	}()
	a.SendIP(200, packet.IP4(10, 0, 0, 2), withIPRoom(make([]byte, packet.MTU)))
}

func TestSrcForRouting(t *testing.T) {
	s := sim.New(6)
	a, _ := chain(s)
	src, ok := a.SrcFor(packet.IP4(10, 3, 0, 1))
	if !ok || src != packet.IP4(10, 1, 0, 1) {
		t.Fatalf("SrcFor = %v,%v", src, ok)
	}
	if _, ok := a.SrcFor(packet.IP4(192, 168, 0, 1)); ok {
		// a has a default route, so everything resolves; flip to a node
		// without one.
		n := NewNode(s, "lonely")
		if _, ok2 := n.SrcFor(packet.IP4(1, 2, 3, 4)); ok2 {
			t.Fatal("node without routes should not resolve")
		}
	}
}
