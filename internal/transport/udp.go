// Package transport provides the transport protocols the paper's
// benchmarks run over: a UDP-style datagram socket (NFS's transport) and a
// Reno-style TCP ("RenoLite") with slow start, congestion avoidance, fast
// retransmit, and Jacobson/Karn retransmission timing (FTP's and HTTP's
// transport). Both run over simnet nodes and carry real wire bytes, so the
// modulation layer below sees authentic traffic. Neither sums nor
// verifies a payload checksum: packet.PutUDPHeader and PutTCPHeader leave
// it 0, and under simnet's checksum offload a medium alters no byte while
// a datagram injected any other way is verified before it reaches a stack.
//
// A TCP connection's send and receive queues are byte slices consumed
// from the front inside backing arrays that each stack recycles: a queue
// slides its bytes to the front of its array only while they fill at most
// half of it and otherwise moves to an array twice their size, so every
// byte is copied O(1) times, and a closed connection's arrays go back to
// its stack (the receive array once the application has read it empty).
// The arrays die with their stack, as datagram buffers die with their
// scheduler. Conn.Read and Conn.ReadFull fill a buffer the caller owns,
// and Conn.Discard consumes bytes without copying them; none of them
// allocates.
package transport

import (
	"errors"
	"fmt"
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

// MaxDatagram is the largest UDP payload that fits the MTU unfragmented.
const MaxDatagram = packet.MTU - packet.IPv4HeaderLen - packet.UDPHeaderLen

// Datagram is one received UDP message. Data lies inside the datagram's
// network buffer; the receiver owns it and may give it back with
// UDPSocket.Release once done with Data.
type Datagram struct {
	From     packet.IPAddr
	FromPort uint16
	Data     []byte

	buf []byte // the whole IP datagram Data lies in
}

// UDPStack demultiplexes UDP traffic on one node.
type UDPStack struct {
	node      *simnet.Node
	socks     map[uint16]*UDPSocket
	ephemeral uint16
}

// NewUDP installs a UDP stack on node.
func NewUDP(node *simnet.Node) *UDPStack {
	u := &UDPStack{node: node, socks: map[uint16]*UDPSocket{}, ephemeral: 32768}
	node.RegisterProto(packet.ProtoUDP, u.input)
	return u
}

// Node returns the stack's node.
func (u *UDPStack) Node() *simnet.Node { return u.node }

func (u *UDPStack) input(n *simnet.Node, ip packet.IPv4) {
	dg := packet.UDP(ip.Payload())
	if dg.Valid() != nil {
		n.Sched().ReleaseBuf(ip)
		return
	}
	sock, ok := u.socks[dg.DstPort()]
	if !ok {
		n.Sched().ReleaseBuf(ip)
		return
	}
	// The datagram is this stack's by simnet's ownership rule: hand the
	// payload to the socket without copying, capped so an append by the
	// reader cannot run into bytes past it. A full receive queue drops it.
	data := dg.Payload()
	if !sock.recvq.TrySend(Datagram{From: ip.Src(), FromPort: dg.SrcPort(), Data: data[:len(data):len(data)], buf: ip}) {
		n.Sched().ReleaseBuf(ip)
	}
}

// ErrPortInUse is returned by Bind for an occupied port.
var ErrPortInUse = errors.New("transport: port in use")

// Bind opens a socket on the given port; port 0 picks an ephemeral one.
func (u *UDPStack) Bind(port uint16) (*UDPSocket, error) {
	if port == 0 {
		for u.socks[u.ephemeral] != nil {
			u.ephemeral++
			if u.ephemeral == 0 {
				u.ephemeral = 32768
			}
		}
		port = u.ephemeral
		u.ephemeral++
	} else if u.socks[port] != nil {
		return nil, ErrPortInUse
	}
	s := &UDPSocket{
		stack: u,
		port:  port,
		recvq: sim.NewChan[Datagram](u.node.Sched(), 128),
	}
	u.socks[port] = s
	return s, nil
}

// UDPSocket is a bound datagram endpoint.
type UDPSocket struct {
	stack *UDPStack
	port  uint16
	recvq *sim.Chan[Datagram]
}

// Port returns the bound local port.
func (s *UDPSocket) Port() uint16 { return s.port }

// NewDatagram returns buf, a zeroed buffer for one outgoing datagram of n
// payload bytes with room for the UDP and IPv4 headers in front, taken
// from the scheduler's datagram free list, and payload, its last n bytes.
// A sender fills payload in place and passes buf to SendDatagram, so the
// message is written once, straight into the wire datagram.
func (s *UDPSocket) NewDatagram(n int) (buf, payload []byte) {
	buf = s.stack.node.Sched().Buf(packet.IPv4HeaderLen + packet.UDPHeaderLen + n)
	return buf, buf[packet.IPv4HeaderLen+packet.UDPHeaderLen:]
}

// Release gives a received datagram's buffer back to the scheduler's free
// list. The caller must be done with d.Data: the bytes are zeroed and
// reused for a later datagram. Releasing is optional (an unreleased
// datagram is garbage) and must happen at most once.
func (s *UDPSocket) Release(d Datagram) {
	s.stack.node.Sched().ReleaseBuf(d.buf)
}

// SendTo transmits a copy of data to the remote address and port.
// Payloads larger than MaxDatagram panic: this stack does not fragment, so
// protocols above must chunk (as the NFS substrate does).
func (s *UDPSocket) SendTo(dst packet.IPAddr, port uint16, data []byte) bool {
	buf, payload := s.NewDatagram(len(data))
	copy(payload, data)
	return s.SendDatagram(dst, port, buf)
}

// SendDatagram transmits buf, made by NewDatagram with its payload filled
// in, to the remote address and port. It takes ownership of buf: the
// network writes the headers into it and may hold it until delivery, so
// the caller must not touch it again. It reports false if no route exists.
func (s *UDPSocket) SendDatagram(dst packet.IPAddr, port uint16, buf []byte) bool {
	if n := len(buf) - packet.IPv4HeaderLen - packet.UDPHeaderLen; n < 0 || n > MaxDatagram {
		panic(fmt.Sprintf("transport: datagram payload %d outside [0, %d]", n, MaxDatagram))
	}
	if _, ok := s.stack.node.SrcFor(dst); !ok {
		s.stack.node.Sched().ReleaseBuf(buf)
		return false
	}
	packet.PutUDPHeader(packet.UDP(buf[packet.IPv4HeaderLen:]), s.port, port)
	return s.stack.node.SendIP(packet.ProtoUDP, dst, buf)
}

// Recv blocks until a datagram arrives.
func (s *UDPSocket) Recv(p *sim.Proc) (Datagram, bool) {
	return s.recvq.Recv(p)
}

// RecvTimeout blocks until a datagram arrives or d elapses.
func (s *UDPSocket) RecvTimeout(p *sim.Proc, d time.Duration) (Datagram, bool, bool) {
	return s.recvq.RecvTimeout(p, d)
}

// Close releases the port.
func (s *UDPSocket) Close() {
	delete(s.stack.socks, s.port)
	s.recvq.Close()
}
