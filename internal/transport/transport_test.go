package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

var (
	ipA  = packet.IP4(10, 0, 0, 1)
	ipB  = packet.IP4(10, 0, 0, 2)
	mask = packet.IP4(255, 255, 255, 0)
)

// pair builds two nodes on a medium with the given quality.
func pair(s *sim.Scheduler, q simnet.QualityProvider) (*simnet.Node, *simnet.Node) {
	m := simnet.NewMedium(s, "lan", q)
	a := simnet.NewNode(s, "a")
	a.AttachNIC(m, ipA, mask)
	b := simnet.NewNode(s, "b")
	b.AttachNIC(m, ipB, mask)
	return a, b
}

func fastLAN() simnet.Static {
	return simnet.Static{Latency: time.Millisecond, PerByte: 800} // 10 Mb/s
}

func lossyLAN(loss float64) simnet.Static {
	q := fastLAN()
	q.Loss = loss
	return q
}

func TestUDPSendRecv(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, fastLAN())
	ua, ub := NewUDP(a), NewUDP(b)
	sa, err := ua.Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ub.Bind(2049)
	if err != nil {
		t.Fatal(err)
	}
	var got Datagram
	s.Spawn("recv", func(p *sim.Proc) {
		got, _ = sb.Recv(p)
		// Echo back to the sender's port.
		sb.SendTo(got.From, got.FromPort, []byte("pong"))
	})
	var echo Datagram
	s.Spawn("send", func(p *sim.Proc) {
		sa.SendTo(ipB, 2049, []byte("ping"))
		echo, _, _ = sa.RecvTimeout(p, time.Second)
	})
	s.Run()
	if string(got.Data) != "ping" || got.From != ipA {
		t.Fatalf("server got %+v", got)
	}
	if string(echo.Data) != "pong" || echo.FromPort != 2049 {
		t.Fatalf("client got %+v", echo)
	}
}

func TestUDPReceivedDataNotClobbered(t *testing.T) {
	// The stack hands the socket a slice of the received datagram itself.
	// Neither the sender reusing its buffer, nor later traffic, nor an
	// append by the reader may change a Datagram already received.
	s := sim.New(1)
	a, b := pair(s, fastLAN())
	sa, _ := NewUDP(a).Bind(0)
	sb, _ := NewUDP(b).Bind(2049)
	msg := []byte("datagram-0")
	s.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			msg[len(msg)-1] = byte('0' + i)
			sa.SendTo(ipB, 2049, msg)
			p.Sleep(time.Millisecond)
		}
		copy(msg, "XXXXXXXXXX") // the caller's buffer stays the caller's
	})
	var got []Datagram
	s.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			d, _ := sb.Recv(p)
			got = append(got, d)
			_ = append(got[0].Data, "-grown"...)
		}
	})
	s.Run()
	if len(got) != 4 {
		t.Fatalf("received %d datagrams, want 4", len(got))
	}
	for i, d := range got {
		if want := fmt.Sprintf("datagram-%d", i); string(d.Data) != want {
			t.Fatalf("datagram %d reads %q after later traffic, want %q", i, d.Data, want)
		}
	}
}

func TestUDPBindErrors(t *testing.T) {
	s := sim.New(1)
	a, _ := pair(s, fastLAN())
	u := NewUDP(a)
	if _, err := u.Bind(53); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Bind(53); err != ErrPortInUse {
		t.Fatalf("err = %v", err)
	}
	s1, _ := u.Bind(0)
	s2, _ := u.Bind(0)
	if s1.Port() == s2.Port() {
		t.Fatal("ephemeral ports must differ")
	}
	s1.Close()
	if _, err := u.Bind(s1.Port()); err != nil {
		t.Fatal("closed port should be reusable")
	}
}

func TestUDPOversizePanics(t *testing.T) {
	s := sim.New(1)
	a, _ := pair(s, fastLAN())
	u := NewUDP(a)
	sock, _ := u.Bind(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sock.SendTo(ipB, 1, make([]byte, MaxDatagram+1))
}

func TestUDPRecvTimeout(t *testing.T) {
	s := sim.New(1)
	a, _ := pair(s, fastLAN())
	u := NewUDP(a)
	sock, _ := u.Bind(0)
	var timedOut bool
	s.Spawn("r", func(p *sim.Proc) {
		_, _, timedOut = sock.RecvTimeout(p, 50*time.Millisecond)
	})
	s.Run()
	if !timedOut {
		t.Fatal("should time out with no traffic")
	}
}

func TestTCPHandshakeAndEcho(t *testing.T) {
	s := sim.New(2)
	a, b := pair(s, fastLAN())
	ta, tb := NewTCP(a), NewTCP(b)
	l, err := tb.Listen(21)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("server", func(p *sim.Proc) {
		c, ok := l.Accept(p)
		if !ok {
			t.Error("accept failed")
			return
		}
		data := make([]byte, 5)
		if _, err := c.ReadFull(p, data); err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		c.Write(p, append([]byte("echo:"), data...))
		c.Close()
	})
	var got []byte
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Dial(p, ipB, 21)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Write(p, []byte("hello"))
		got = make([]byte, 10)
		n, _ := c.ReadFull(p, got)
		got = got[:n]
		c.Close()
	})
	s.Run()
	if string(got) != "echo:hello" {
		t.Fatalf("got %q", got)
	}
}

func TestReadFullReturnsPartialOnClose(t *testing.T) {
	// The peer sends 5 of the 10 bytes asked for, in two writes, then
	// closes: ReadFull returns what arrived with ErrClosed.
	s := sim.New(2)
	a, b := pair(s, fastLAN())
	ta, tb := NewTCP(a), NewTCP(b)
	l, err := tb.Listen(21)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("server", func(p *sim.Proc) {
		c, ok := l.Accept(p)
		if !ok {
			t.Error("accept failed")
			return
		}
		c.Write(p, []byte("hel"))
		p.Sleep(50 * time.Millisecond)
		c.Write(p, []byte("lo"))
		c.Close()
	})
	var got []byte
	var readErr error
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Dial(p, ipB, 21)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		got = make([]byte, 10)
		var n int
		n, readErr = c.ReadFull(p, got)
		got = got[:n]
		c.Close()
	})
	s.Run()
	if string(got) != "hello" || readErr != ErrClosed {
		t.Fatalf("ReadFull = %q, %v; want \"hello\", ErrClosed", got, readErr)
	}
}

func TestTCPDialRefused(t *testing.T) {
	s := sim.New(2)
	a, b := pair(s, fastLAN())
	ta := NewTCP(a)
	NewTCP(b) // stack exists but no listener
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		_, err = ta.Dial(p, ipB, 9999)
	})
	s.Run()
	if err != ErrRefused {
		t.Fatalf("err = %v, want refused", err)
	}
}

func TestTCPBulkTransferClean(t *testing.T) {
	s := sim.New(3)
	a, b := pair(s, fastLAN())
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(20)
	const size = 1 << 20 // 1 MB
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var received []byte
	var done sim.Time
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
		done = p.Now()
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Dial(p, ipB, 20)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if _, err := c.Write(p, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		c.Close()
	})
	s.Run()
	if !bytes.Equal(received, payload) {
		t.Fatalf("received %d bytes, want %d intact", len(received), size)
	}
	// Sanity: ~1MB at 10Mb/s should take roughly a second, not minutes.
	if done.Duration() > 10*time.Second {
		t.Fatalf("transfer took %v, throughput collapsed", done.Duration())
	}
}

func TestTCPBulkTransferLossy(t *testing.T) {
	// 5% loss each way: retransmission must deliver everything intact.
	s := sim.New(4)
	a, b := pair(s, lossyLAN(0.05))
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(20)
	const size = 256 * 1024
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 13)
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
	var rtx int
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Dial(p, ipB, 20)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Write(p, payload)
		c.Close()
		rtx = c.Retransmits + c.FastRetrans
	})
	s.RunUntil(sim.Time(10 * time.Minute))
	if !bytes.Equal(received, payload) {
		t.Fatalf("received %d bytes, want %d intact under loss", len(received), size)
	}
	if rtx == 0 {
		t.Fatal("5%% loss must force retransmissions")
	}
}

func TestTCPConcurrentConnections(t *testing.T) {
	s := sim.New(5)
	a, b := pair(s, fastLAN())
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(80)
	const conns = 5
	s.Spawn("server", func(p *sim.Proc) {
		for i := 0; i < conns; i++ {
			c, ok := l.Accept(p)
			if !ok {
				return
			}
			s.Spawn("server-conn", func(p *sim.Proc) {
				data := make([]byte, 1024)
				n, err := c.Read(p, data)
				if err != nil {
					return
				}
				c.Write(p, data[:n])
				c.Close()
			})
		}
	})
	done := 0
	for i := 0; i < conns; i++ {
		i := i
		s.Spawn("client", func(p *sim.Proc) {
			c, err := ta.Dial(p, ipB, 80)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			msg := []byte{byte(i), byte(i + 1)}
			c.Write(p, msg)
			got := make([]byte, 2)
			_, err = c.ReadFull(p, got)
			if err == nil && bytes.Equal(got, msg) {
				done++
			}
			c.Close()
		})
	}
	s.Run()
	if done != conns {
		t.Fatalf("completed %d of %d connections", done, conns)
	}
}

func TestTCPCloseDeliversEOFAfterData(t *testing.T) {
	s := sim.New(6)
	a, b := pair(s, fastLAN())
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(20)
	var got []byte
	var eof bool
	s.Spawn("server", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		buf := make([]byte, 1024)
		for {
			n, err := c.Read(p, buf)
			if err != nil {
				eof = err == ErrClosed
				break
			}
			got = append(got, buf[:n]...)
		}
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, _ := ta.Dial(p, ipB, 20)
		c.Write(p, []byte("last words"))
		c.Close()
	})
	s.Run()
	if string(got) != "last words" || !eof {
		t.Fatalf("got %q eof=%v", got, eof)
	}
}

func TestTCPWriteAfterCloseFails(t *testing.T) {
	s := sim.New(6)
	a, b := pair(s, fastLAN())
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(20)
	s.Spawn("server", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		c.Discard(p, 10)
	})
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		c, _ := ta.Dial(p, ipB, 20)
		c.Close()
		_, err = c.Write(p, []byte("x"))
	})
	s.Run()
	if err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPRTTEstimation(t *testing.T) {
	s := sim.New(7)
	a, b := pair(s, simnet.Static{Latency: 20 * time.Millisecond, PerByte: 100})
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(20)
	s.Spawn("server", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		for {
			if _, err := c.Discard(p, 64*1024); err != nil {
				break
			}
		}
	})
	var srtt time.Duration
	s.Spawn("client", func(p *sim.Proc) {
		c, _ := ta.Dial(p, ipB, 20)
		for i := 0; i < 20; i++ {
			c.Write(p, make([]byte, 512))
			p.Sleep(100 * time.Millisecond)
		}
		srtt = c.srtt
		c.Close()
	})
	s.Run()
	// True RTT ≈ 2*20ms + tx time; srtt should be in that neighbourhood.
	if srtt < 30*time.Millisecond || srtt > 80*time.Millisecond {
		t.Fatalf("srtt = %v, want ≈40-50ms", srtt)
	}
}

func TestTCPSlowStartGrowsCwnd(t *testing.T) {
	s := sim.New(8)
	a, b := pair(s, fastLAN())
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(20)
	s.Spawn("server", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		for {
			if _, err := c.Discard(p, 64*1024); err != nil {
				break
			}
		}
	})
	var initial, grown int
	s.Spawn("client", func(p *sim.Proc) {
		c, _ := ta.Dial(p, ipB, 20)
		initial = c.cwnd
		c.Write(p, make([]byte, 128*1024))
		p.Sleep(2 * time.Second)
		grown = c.cwnd
		c.Close()
	})
	s.Run()
	if initial != InitCwndSegs*MSS {
		t.Fatalf("initial cwnd = %d", initial)
	}
	if grown <= initial*2 {
		t.Fatalf("cwnd grew %d -> %d, want substantial growth", initial, grown)
	}
}

func TestTCPReordering(t *testing.T) {
	// A hook that swaps every pair of consecutive data segments forces
	// out-of-order arrival; the stream must still reassemble exactly.
	s := sim.New(9)
	a, b := pair(s, fastLAN())
	var held []byte
	a.AddOutboundHook(simnet.HookFunc(func(dir simnet.Direction, ip []byte, next func([]byte)) {
		v := packet.IPv4(ip)
		if v.Valid() == nil && v.Protocol() == packet.ProtoTCP && len(packet.TCP(v.Payload()).Payload()) > 0 {
			if held == nil {
				held = ip
				return
			}
			first := held
			held = nil
			next(ip)    // later segment goes first
			next(first) // then the held one
			return
		}
		next(ip)
	}))
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(20)
	payload := make([]byte, 100*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
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
		// Flush any final held segment by sending a tail marker after a
		// pause (the hook holds at most one segment).
		p.Sleep(time.Second)
		c.Close()
	})
	s.RunUntil(sim.Time(5 * time.Minute))
	if !bytes.Equal(received, payload) {
		t.Fatalf("received %d bytes, want %d intact under reordering", len(received), len(payload))
	}
}

func TestTCPDeterministic(t *testing.T) {
	run := func() time.Duration {
		s := sim.New(11)
		a, b := pair(s, lossyLAN(0.02))
		ta, tb := NewTCP(a), NewTCP(b)
		l, _ := tb.Listen(20)
		var done sim.Time
		s.Spawn("server", func(p *sim.Proc) {
			c, _ := l.Accept(p)
			for {
				if _, err := c.Discard(p, 64*1024); err != nil {
					break
				}
			}
			done = p.Now()
		})
		s.Spawn("client", func(p *sim.Proc) {
			c, _ := ta.Dial(p, ipB, 20)
			c.Write(p, make([]byte, 200*1024))
			c.Close()
		})
		s.RunUntil(sim.Time(5 * time.Minute))
		return done.Duration()
	}
	if a, b := run(), run(); a != b || a == 0 {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
}

// TestReleasedDatagramsReadZero: a receiver that is done with a datagram
// gives its buffer back, zeroed. For UDP that is the socket's reader,
// through Release; for TCP it is the stack's input, once the segment's
// data is in the receive queue. A stale reference (kept here against the
// ownership rule) reads zeros rather than another datagram's bytes.
func TestReleasedDatagramsReadZero(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, fastLAN())
	sa, _ := NewUDP(a).Bind(0)
	sb, _ := NewUDP(b).Bind(2049)
	s.Spawn("udp", func(p *sim.Proc) {
		sa.SendTo(ipB, 2049, []byte("released"))
		d, _ := sb.Recv(p)
		if string(d.Data) != "released" {
			t.Errorf("received %q", d.Data)
		}
		sb.Release(d)
		if !bytes.Equal(d.Data, make([]byte, len("released"))) {
			t.Errorf("a released datagram reads %q, want zeros", d.Data)
		}
	})
	s.Run()

	var segs [][]byte // every TCP datagram b's NIC took in
	b.NIC(0).SetTap(func(dir simnet.Direction, at sim.Time, ip []byte, q simnet.Quality) {
		if dir == simnet.Inbound && packet.IPv4(ip).Protocol() == packet.ProtoTCP {
			segs = append(segs, ip)
		}
	})
	ta, tb := NewTCP(a), NewTCP(b)
	l, _ := tb.Listen(20)
	payload := bytes.Repeat([]byte("x"), 8*MSS)
	var got []byte
	s.Spawn("server", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		got = make([]byte, len(payload))
		n, _ := c.ReadFull(p, got)
		got = got[:n]
		c.Close()
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, _ := ta.Dial(p, ipB, 20)
		c.Write(p, payload)
		c.Close()
	})
	s.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("TCP delivered %d bytes, want %d", len(got), len(payload))
	}
	if len(segs) < 8 {
		t.Fatalf("tapped %d inbound segments, want the 8 data segments at least", len(segs))
	}
	for i, seg := range segs {
		for _, c := range seg[:cap(seg)] {
			if c != 0 {
				t.Fatalf("inbound segment %d still holds bytes after TCP consumed it", i)
			}
		}
	}
}
