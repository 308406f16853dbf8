// RenoLite: a compact TCP implementation sufficient for the paper's
// benchmarks — three-way handshake, sliding window with cumulative ACKs,
// slow start and congestion avoidance, fast retransmit on triple duplicate
// ACKs, Jacobson RTT estimation with Karn's rule and exponential backoff,
// out-of-order reassembly, graceful FIN close, and a persist probe against
// zero windows. It deliberately omits what the benchmarks never exercise
// (urgent data, simultaneous open, time-wait recycling).

package transport

import (
	"errors"
	"math/rand"
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

// TCP tuning constants.
const (
	MSS          = packet.MTU - packet.IPv4HeaderLen - packet.TCPHeaderLen // 1460
	RecvBufSize  = 64 * 1024
	SendBufSize  = 64 * 1024
	InitialRTO   = 3 * time.Second
	MinRTO       = 300 * time.Millisecond
	MaxRTO       = 16 * time.Second
	MaxSynRetry  = 6
	MaxRetransmt = 12
	InitCwndSegs = 2
	// DelAckDelay bounds how long an acknowledgement may be withheld.
	DelAckDelay = 100 * time.Millisecond
)

// Errors returned by the TCP API.
var (
	ErrTimeout     = errors.New("transport: connection timed out")
	ErrRefused     = errors.New("transport: connection refused")
	ErrClosed      = errors.New("transport: connection closed")
	ErrListenInUse = errors.New("transport: listen port in use")
)

// connState is the TCP state machine, reduced to the states RenoLite uses.
type connState int

const (
	stSynSent connState = iota
	stSynRcvd
	stEstablished
	stFinWait   // we sent FIN, awaiting its ack
	stCloseWait // peer sent FIN, we still may send
	stLastAck   // peer FIN'd and we sent our FIN
	stClosed
)

type connKey struct {
	localPort  uint16
	remoteIP   packet.IPAddr
	remotePort uint16
}

// TCPStack demultiplexes TCP traffic on one node.
type TCPStack struct {
	node      *simnet.Node
	s         *sim.Scheduler
	rng       *rand.Rand
	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	ephemeral uint16
	arrays    queueArrays // send and receive queue arrays of closed conns
}

// NewTCP installs a TCP stack on node.
func NewTCP(node *simnet.Node) *TCPStack {
	t := &TCPStack{
		node:      node,
		s:         node.Sched(),
		rng:       node.Sched().RNG("tcp/" + node.Name),
		conns:     map[connKey]*Conn{},
		listeners: map[uint16]*Listener{},
		ephemeral: 40000,
	}
	node.RegisterProto(packet.ProtoTCP, t.input)
	return t
}

// Node returns the stack's node.
func (t *TCPStack) Node() *simnet.Node { return t.node }

// Listener accepts inbound connections on a port.
type Listener struct {
	stack   *TCPStack
	port    uint16
	backlog *sim.Chan[*Conn]
}

// Listen opens a passive socket on port.
func (t *TCPStack) Listen(port uint16) (*Listener, error) {
	if t.listeners[port] != nil {
		return nil, ErrListenInUse
	}
	l := &Listener{stack: t, port: port, backlog: sim.NewChan[*Conn](t.s, 16)}
	t.listeners[port] = l
	return l, nil
}

// Accept blocks until a connection is established; ok is false if the
// listener was closed.
func (l *Listener) Accept(p *sim.Proc) (*Conn, bool) {
	return l.backlog.Recv(p)
}

// Close stops accepting connections.
func (l *Listener) Close() {
	delete(l.stack.listeners, l.port)
	l.backlog.Close()
}

// Dial opens a connection to raddr:rport, blocking until established. SYNs
// are retransmitted with exponential backoff up to MaxSynRetry times.
func (t *TCPStack) Dial(p *sim.Proc, raddr packet.IPAddr, rport uint16) (*Conn, error) {
	for t.conns[connKey{t.ephemeral, raddr, rport}] != nil {
		t.ephemeral++
		if t.ephemeral < 40000 {
			t.ephemeral = 40000
		}
	}
	lport := t.ephemeral
	t.ephemeral++
	c := t.newConn(connKey{lport, raddr, rport}, stSynSent)
	c.iss = uint32(t.rng.Int63n(1 << 30))
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	c.sendSeg(packet.TCPSyn, c.iss, 0, nil)
	c.armRetransmit()

	c.established.Recv(p) // resumed on establishment or failure
	if c.state == stClosed {
		return nil, c.failure
	}
	return c, nil
}

func (t *TCPStack) newConn(key connKey, st connState) *Conn {
	c := &Conn{
		stack:       t,
		key:         key,
		state:       st,
		cwnd:        InitCwndSegs * MSS,
		ssthresh:    SendBufSize,
		rto:         InitialRTO,
		rwnd:        RecvBufSize,
		oo:          map[uint32]ooSeg{},
		established: sim.NewChan[struct{}](t.s, 1),
		readable:    sim.NewChan[struct{}](t.s, 1),
		writable:    sim.NewChan[struct{}](t.s, 1),
	}
	c.rtxFn = c.onRetransmitTimer
	c.delAckFn = c.onDelAckTimer
	t.conns[key] = c
	return c
}

// Conn is one TCP connection endpoint.
type Conn struct {
	stack *TCPStack
	key   connKey
	state connState

	// Send side.
	iss      uint32
	sndUna   uint32 // oldest unacknowledged sequence number
	sndNxt   uint32 // next sequence number to send
	sendBuf  []byte // unsent+unacked bytes; sendBuf[0] is at seq sndUna
	sendMem  []byte // sendBuf's backing array (see queueAppend)
	sendFin  bool   // application closed; FIN after buffer drains
	finSent  bool
	finSeq   uint32
	cwnd     int
	ssthresh int
	rwnd     int // peer's advertised window
	dupAcks  int

	// Fast recovery (NewReno-style).
	inRecovery bool
	recoverSeq uint32 // recovery ends when this sequence is acked

	// RTT estimation (Jacobson/Karn).
	srtt, rttvar time.Duration
	haveSRTT     bool
	rto          time.Duration
	sampleSeq    uint32 // ack covering this seq yields an RTT sample
	sampleAt     sim.Time
	sampleValid  bool

	// Retransmission/persist timer (cancellable; at most one armed).
	rtxTimer   sim.Timer
	rtxFn      func() // cached onRetransmitTimer closure
	retransmit int    // consecutive timeouts

	// Receive side.
	irs     uint32
	rcvNxt  uint32
	recvBuf []byte
	recvMem []byte           // recvBuf's backing array (see queueAppend)
	oo      map[uint32]ooSeg // out-of-order segments keyed by seq
	peerFin bool
	finRcvd uint32 // sequence number of peer FIN

	// Delayed ACK state (ack every second segment or after DelAckDelay).
	delAcks     int
	delAckTimer sim.Timer
	delAckFn    func() // cached onDelAckTimer closure

	// App wakeups.
	established *sim.Chan[struct{}]
	readable    *sim.Chan[struct{}]
	writable    *sim.Chan[struct{}]

	// listener receives this conn on establishment (passive opens only).
	listener *Listener

	failure error

	// Stats.
	Retransmits int
	FastRetrans int
}

// ooSeg is an out-of-order segment's data and the datagram buffer it
// lies in, released once the data is drained, replaced or discarded.
type ooSeg struct {
	data, buf []byte
}

// seqLT reports a < b in 32-bit sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLE reports a <= b in sequence space.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

func (c *Conn) sched() *sim.Scheduler { return c.stack.s }

// recvWindow is the space we can advertise.
func (c *Conn) recvWindow() int {
	w := RecvBufSize - len(c.recvBuf)
	if w < 0 {
		w = 0
	}
	if w > 0xffff {
		w = 0xffff
	}
	return w
}

func (c *Conn) sendSeg(flags uint8, seq, ack uint32, data []byte) {
	f := packet.TCPFields{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: seq, Ack: ack, Flags: flags, Window: uint16(c.recvWindow()),
	}
	c.stack.node.SendIP(packet.ProtoTCP, c.key.remoteIP, tcpDatagram(c.stack.s, f, data))
}

// minQueueArray is the smallest backing array a byte queue takes, so the
// arrays of short connections (a request line, a web object) recycle
// between them whatever each one carried.
const minQueueArray = 4 << 10

// queueArrays is a stack's free list of byte-queue backing arrays. Like
// the scheduler's datagram free lists it needs no lock and dies with its
// stack: nothing is shared between simulations.
type queueArrays [][]byte

// get returns an array of at least n bytes: the smallest free one that
// fits, so large arrays stay free for the queues that need them, or a new
// one.
func (f *queueArrays) get(n int) []byte {
	best := -1
	for i, b := range *f {
		if cap(b) >= n && (best < 0 || cap(b) < cap((*f)[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]byte, max(n, minQueueArray))
	}
	b := (*f)[best]
	last := len(*f) - 1
	(*f)[best] = (*f)[last]
	(*f)[last] = nil
	*f = (*f)[:last]
	return b[:cap(b)]
}

// put hands back an array whose queue no longer reads or writes it.
func (f *queueArrays) put(b []byte) {
	if cap(b) > 0 {
		*f = append(*f, b)
	}
}

// queueAppend appends data to q, a byte queue consumed by slicing bytes
// off its front, inside the backing array *mem. When q's tail reaches the
// end of *mem, q's live bytes slide back to the front of *mem if they
// then fill at most half of it; otherwise they move to an array of twice
// their new length from free, and the old array goes back to free.
// Either way the free room left behind is at least the number of live
// bytes, so each byte is copied O(1) times on average, and a queue in
// steady state allocates nothing however many bytes stream through it.
func queueAppend(q []byte, mem *[]byte, data []byte, free *queueArrays) []byte {
	if len(q)+len(data) <= cap(q) {
		return append(q, data...)
	}
	need := len(q) + len(data)
	if need > cap(*mem)/2 {
		grown := free.get(2 * need)
		copy(grown, q)
		free.put(*mem)
		*mem = grown
	} else {
		copy(*mem, q)
	}
	return append((*mem)[:len(q)], data...)
}

// tcpDatagram takes the one buffer a segment lives in from here to its
// receiver from s's datagram free list: IP header room (SendIP fills it),
// then the TCP segment.
func tcpDatagram(s *sim.Scheduler, f packet.TCPFields, data []byte) []byte {
	buf := s.Buf(packet.IPv4HeaderLen + packet.TCPHeaderLen + len(data))
	seg := packet.TCP(buf[packet.IPv4HeaderLen:])
	copy(seg[packet.TCPHeaderLen:], data)
	packet.PutTCPHeader(seg, f)
	return buf
}

func (c *Conn) sendAck() {
	c.delAcks = 0
	c.delAckTimer.Stop()
	c.sendSeg(packet.TCPAck, c.sndNxt, c.rcvNxt, nil)
}

// ackSoon implements the delayed-ACK policy: acknowledge at once for every
// second in-order segment, otherwise within DelAckDelay.
func (c *Conn) ackSoon() {
	c.delAcks++
	if c.delAcks >= 2 {
		c.sendAck()
		return
	}
	if c.delAckTimer.Active() {
		return
	}
	c.delAckTimer = c.sched().AfterTimer(DelAckDelay, c.delAckFn)
}

func (c *Conn) onDelAckTimer() {
	if c.delAcks > 0 && c.state != stClosed {
		c.sendAck()
	}
}

// flight is the number of bytes in flight.
func (c *Conn) flight() int { return int(c.sndNxt - c.sndUna) }

// trySend transmits new data allowed by min(cwnd, rwnd).
func (c *Conn) trySend() {
	if c.state != stEstablished && c.state != stCloseWait && c.state != stSynRcvd {
		return
	}
	wnd := c.cwnd
	if c.rwnd < wnd {
		wnd = c.rwnd
	}
	for {
		unsent := len(c.sendBuf) - c.flight()
		if c.finSent {
			unsent = 0
		}
		if unsent <= 0 {
			break
		}
		room := wnd - c.flight()
		if room <= 0 {
			c.armPersistIfNeeded()
			return
		}
		n := unsent
		if n > MSS {
			n = MSS
		}
		if n > room {
			// Avoid silly-window dribbles unless it's the last data.
			if room < MSS && unsent > room {
				c.armPersistIfNeeded()
				return
			}
			n = room
		}
		off := c.flight()
		seq := c.sndNxt
		data := c.sendBuf[off : off+n]
		flags := uint8(packet.TCPAck | packet.TCPPsh)
		c.sendSeg(flags, seq, c.rcvNxt, data)
		c.sndNxt += uint32(n)
		if !c.sampleValid {
			c.sampleSeq = c.sndNxt
			c.sampleAt = c.sched().Now()
			c.sampleValid = true
		}
		c.armRetransmit()
	}
	c.maybeSendFin()
}

// maybeSendFin sends our FIN once all data is out.
func (c *Conn) maybeSendFin() {
	if !c.sendFin || c.finSent {
		return
	}
	if c.flight() != len(c.sendBuf) {
		return // unsent data remains
	}
	c.finSeq = c.sndNxt
	c.sndNxt++
	c.finSent = true
	c.sendSeg(packet.TCPFin|packet.TCPAck, c.finSeq, c.rcvNxt, nil)
	if c.state == stCloseWait {
		c.state = stLastAck
	} else if c.state == stEstablished {
		c.state = stFinWait
	}
	c.armRetransmit()
}

// armRetransmit starts the retransmission timer if anything is in flight.
func (c *Conn) armRetransmit() {
	if c.rtxTimer.Active() {
		return
	}
	if c.flight() == 0 && c.state != stSynSent && !c.finSent {
		return
	}
	c.rtxTimer = c.sched().AfterTimer(c.rto, c.rtxFn)
}

// disarmRetransmit cancels the pending timer outright, so acked
// connections leave no dead events behind in the scheduler heap.
func (c *Conn) disarmRetransmit() {
	c.rtxTimer.Stop()
}

func (c *Conn) onRetransmitTimer() {
	if c.state == stClosed {
		return
	}
	if c.flight() == 0 && c.state != stSynSent && !c.finSent {
		return
	}
	c.retransmit++
	limit := MaxRetransmt
	if c.state == stSynSent {
		limit = MaxSynRetry
	}
	if c.retransmit > limit {
		c.fail(ErrTimeout)
		return
	}
	// Karn: no RTT sample across a retransmission; back off the timer.
	c.sampleValid = false
	c.rto *= 2
	if c.rto > MaxRTO {
		c.rto = MaxRTO
	}
	c.Retransmits++

	switch c.state {
	case stSynSent:
		c.sendSeg(packet.TCPSyn, c.iss, 0, nil)
	case stSynRcvd:
		c.sendSeg(packet.TCPSyn|packet.TCPAck, c.iss, c.rcvNxt, nil)
	default:
		// Timeout congestion response: multiplicative decrease, restart
		// slow start, retransmit the oldest outstanding segment.
		half := c.flight() / 2
		if half < 2*MSS {
			half = 2 * MSS
		}
		c.ssthresh = half
		c.cwnd = MSS
		c.dupAcks = 0
		c.retransmitOldest()
	}
	c.armRetransmit()
}

// retransmitOldest resends the segment starting at sndUna (or the FIN).
func (c *Conn) retransmitOldest() {
	if c.flight() == 0 || (c.finSent && c.sndUna == c.finSeq) {
		if c.finSent {
			c.sendSeg(packet.TCPFin|packet.TCPAck, c.finSeq, c.rcvNxt, nil)
		}
		return
	}
	n := c.flight()
	if c.finSent {
		n-- // the FIN occupies one sequence slot beyond the data
	}
	if n > MSS {
		n = MSS
	}
	if n > len(c.sendBuf) {
		n = len(c.sendBuf)
	}
	if n <= 0 {
		if c.finSent {
			c.sendSeg(packet.TCPFin|packet.TCPAck, c.finSeq, c.rcvNxt, nil)
		}
		return
	}
	c.sendSeg(packet.TCPAck|packet.TCPPsh, c.sndUna, c.rcvNxt, c.sendBuf[:n])
}

// armPersistIfNeeded keeps a probe going against a zero/small peer window.
func (c *Conn) armPersistIfNeeded() {
	if c.rwnd >= MSS || len(c.sendBuf) == c.flight() {
		return
	}
	if c.rtxTimer.Active() {
		return
	}
	c.rtxTimer = c.sched().AfterTimer(c.rto, func() {
		if c.state == stClosed {
			return
		}
		// Window probe: one byte beyond the window.
		if len(c.sendBuf) > c.flight() {
			off := c.flight()
			c.sendSeg(packet.TCPAck, c.sndNxt, c.rcvNxt, c.sendBuf[off:off+1])
			c.sndNxt++
			c.armRetransmit()
		}
	})
}

func (c *Conn) fail(err error) {
	if c.state == stClosed {
		return
	}
	c.state = stClosed
	c.failure = err
	c.disarmRetransmit()
	c.delAckTimer.Stop()
	delete(c.stack.conns, c.key)
	c.releaseQueues()
	c.established.TrySend(struct{}{})
	c.readable.TrySend(struct{}{})
	c.writable.TrySend(struct{}{})
}

// updateRTT folds in an RTT sample (Jacobson).
func (c *Conn) updateRTT(sample time.Duration) {
	if !c.haveSRTT {
		c.srtt = sample
		c.rttvar = sample / 2
		c.haveSRTT = true
	} else {
		delta := sample - c.srtt
		if delta < 0 {
			delta = -delta
		}
		c.rttvar = (3*c.rttvar + delta) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < MinRTO {
		c.rto = MinRTO
	}
	if c.rto > MaxRTO {
		c.rto = MaxRTO
	}
}

// input is the stack's segment demultiplexer. It owns the datagram and
// releases its buffer once the segment is consumed, unless the
// connection kept it for reassembly.
func (t *TCPStack) input(n *simnet.Node, ip packet.IPv4) {
	seg := packet.TCP(ip.Payload())
	if seg.Valid() != nil {
		t.s.ReleaseBuf(ip)
		return
	}
	key := connKey{seg.DstPort(), ip.Src(), seg.SrcPort()}
	if c, ok := t.conns[key]; ok {
		if !c.segment(seg, ip) {
			t.s.ReleaseBuf(ip)
		}
		return
	}
	// New connection?
	if seg.Flags()&packet.TCPSyn != 0 && seg.Flags()&packet.TCPAck == 0 {
		if l, ok := t.listeners[seg.DstPort()]; ok {
			l.acceptSyn(ip.Src(), seg)
			t.s.ReleaseBuf(ip)
			return
		}
	}
	// No socket: refuse non-RST segments.
	if seg.Flags()&packet.TCPRst == 0 {
		rst := tcpDatagram(t.s, packet.TCPFields{
			SrcPort: seg.DstPort(), DstPort: seg.SrcPort(),
			Seq: seg.Ack(), Ack: seg.Seq() + 1, Flags: packet.TCPRst | packet.TCPAck,
		}, nil)
		t.node.SendIP(packet.ProtoTCP, ip.Src(), rst)
	}
	t.s.ReleaseBuf(ip)
}

func (l *Listener) acceptSyn(from packet.IPAddr, seg packet.TCP) {
	t := l.stack
	key := connKey{l.port, from, seg.SrcPort()}
	c := t.newConn(key, stSynRcvd)
	c.listener = l
	c.irs = seg.Seq()
	c.rcvNxt = c.irs + 1
	c.iss = uint32(t.rng.Int63n(1 << 30))
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	c.rwnd = int(seg.Window())
	c.sendSeg(packet.TCPSyn|packet.TCPAck, c.iss, c.rcvNxt, nil)
	c.armRetransmit()
}

// segment handles one arriving segment for an existing connection; buf
// is the datagram it lies in. It reports whether the connection kept buf
// (an out-of-order segment held for reassembly); otherwise the caller
// releases it.
func (c *Conn) segment(seg packet.TCP, buf []byte) (kept bool) {
	flags := seg.Flags()
	if flags&packet.TCPRst != 0 {
		c.fail(ErrRefused)
		return false
	}

	switch c.state {
	case stSynSent:
		if flags&(packet.TCPSyn|packet.TCPAck) == packet.TCPSyn|packet.TCPAck && seg.Ack() == c.iss+1 {
			c.irs = seg.Seq()
			c.rcvNxt = c.irs + 1
			c.sndUna = seg.Ack()
			c.rwnd = int(seg.Window())
			c.state = stEstablished
			c.retransmit = 0
			c.disarmRetransmit()
			c.sendAck()
			c.established.TrySend(struct{}{})
		}
		return false
	case stSynRcvd:
		if flags&packet.TCPAck != 0 && seg.Ack() == c.iss+1 {
			c.sndUna = seg.Ack()
			c.rwnd = int(seg.Window())
			c.state = stEstablished
			c.retransmit = 0
			c.disarmRetransmit()
			if c.listener != nil {
				c.listener.backlog.TrySend(c)
			}
			// The handshake ACK may carry data; fall through.
		} else if flags&packet.TCPSyn != 0 {
			// Duplicate SYN: re-answer.
			c.sendSeg(packet.TCPSyn|packet.TCPAck, c.iss, c.rcvNxt, nil)
			return false
		} else {
			return false
		}
	case stClosed:
		return false
	}

	// ACK processing.
	if flags&packet.TCPAck != 0 {
		c.processAck(seg)
	}

	// Data and FIN processing.
	data := seg.Payload()
	if len(data) > 0 {
		kept = c.processData(seg.Seq(), data, buf)
	}
	if flags&packet.TCPFin != 0 {
		finSeq := seg.Seq() + uint32(len(data))
		if !c.peerFin {
			c.peerFin = true
			c.finRcvd = finSeq
		}
		if c.rcvNxt == c.finRcvd {
			c.rcvNxt = c.finRcvd + 1
			if c.state == stEstablished {
				c.state = stCloseWait
			} else if c.state == stFinWait {
				c.teardown()
			}
			c.sendAck()
			c.readable.TrySend(struct{}{})
		} else {
			c.sendAck() // FIN beyond a hole: ack what we have
		}
	}
	return kept
}

func (c *Conn) processAck(seg packet.TCP) {
	ack := seg.Ack()
	if seqLT(c.sndUna, ack) && seqLE(ack, c.sndNxt) {
		// New data acknowledged.
		acked := ack - c.sndUna
		dataAcked := acked
		if c.finSent && seqLE(c.finSeq+1, ack) {
			dataAcked-- // the FIN's slot
		}
		if int(dataAcked) <= len(c.sendBuf) {
			c.sendBuf = c.sendBuf[dataAcked:]
		} else {
			c.sendBuf = nil
		}
		c.sndUna = ack
		c.retransmit = 0
		c.dupAcks = 0
		c.rwnd = int(seg.Window())
		// Forward progress collapses any retransmission backoff, as BSD
		// recomputes the timer from srtt on every ack; without this a
		// backed-off timer outlives the loss episode that caused it
		// (Karn's rule blocks new samples during recovery).
		if c.haveSRTT {
			c.rto = c.srtt + 4*c.rttvar
			if c.rto < MinRTO {
				c.rto = MinRTO
			}
			if c.rto > MaxRTO {
				c.rto = MaxRTO
			}
		}

		// RTT sample (Karn-validated).
		if c.sampleValid && seqLE(c.sampleSeq, ack) {
			c.updateRTT(c.sched().Now().Sub(c.sampleAt))
			c.sampleValid = false
		}

		// Congestion window management.
		switch {
		case c.inRecovery && seqLE(c.recoverSeq, ack):
			// Recovery complete: deflate.
			c.inRecovery = false
			c.cwnd = c.ssthresh
		case c.inRecovery:
			// Partial ack: the next hole is already lost; retransmit it
			// immediately (NewReno) and stay in recovery.
			c.retransmitOldest()
		case c.cwnd < c.ssthresh:
			// Slow start with appropriate byte counting.
			inc := int(dataAcked)
			if inc > 2*MSS {
				inc = 2 * MSS
			}
			c.cwnd += inc
		default:
			c.cwnd += MSS * MSS / c.cwnd // congestion avoidance
		}
		if c.cwnd > SendBufSize {
			c.cwnd = SendBufSize
		}

		c.disarmRetransmit()
		if c.flight() > 0 || (c.finSent && seqLT(ack, c.finSeq+1)) {
			c.armRetransmit()
		}

		// FIN fully acknowledged?
		if c.finSent && seqLE(c.finSeq+1, ack) {
			switch c.state {
			case stFinWait:
				if c.peerFin && c.rcvNxt == c.finRcvd+1 {
					c.teardown()
				}
				// else: wait for peer FIN
			case stLastAck:
				c.teardown()
			}
		}
		c.writable.TrySend(struct{}{})
		c.trySend()
		return
	}
	if ack == c.sndUna && c.flight() > 0 && len(seg.Payload()) == 0 {
		// Duplicate ACK.
		c.dupAcks++
		switch {
		case c.dupAcks == 3 && !c.inRecovery:
			// Fast retransmit, then NewReno-style fast recovery with
			// window inflation so transmission continues.
			half := c.flight() / 2
			if half < 2*MSS {
				half = 2 * MSS
			}
			c.ssthresh = half
			c.inRecovery = true
			c.recoverSeq = c.sndNxt
			c.cwnd = c.ssthresh + 3*MSS
			c.FastRetrans++
			c.sampleValid = false
			c.retransmitOldest()
			c.trySend()
		case c.inRecovery:
			c.cwnd += MSS // inflate per additional dup ack
			c.trySend()
		case c.dupAcks < 3:
			// Limited transmit (RFC 3042): send one new segment per early
			// duplicate ack so a small window can still produce the third
			// dupack instead of stalling into a timeout.
			c.limitedTransmit()
		}
		return
	}
	// Stale ACK: update window only.
	if ack == c.sndUna {
		c.rwnd = int(seg.Window())
		c.writable.TrySend(struct{}{})
		c.trySend()
	}
}

// processData takes in a segment's data; buf is the datagram it lies in.
// It reports whether it kept buf (see segment).
func (c *Conn) processData(seq uint32, data, buf []byte) (kept bool) {
	// Trim data already received.
	if seqLT(seq, c.rcvNxt) {
		skip := c.rcvNxt - seq
		if int(skip) >= len(data) {
			c.sendAck() // pure duplicate
			return false
		}
		data = data[skip:]
		seq = c.rcvNxt
	}
	if seq != c.rcvNxt {
		// Out of order: buffer (bounded by window) and send a dup ack.
		// Keep the longest data seen at a given offset; retransmissions
		// may re-segment the stream at different boundaries. The segment
		// is this stack's by simnet's ownership rule, so it is kept as is,
		// datagram buffer and all.
		if existing, dup := c.oo[seq]; dup {
			if len(data) > len(existing.data) {
				c.stack.s.ReleaseBuf(existing.buf)
				c.oo[seq] = ooSeg{data, buf}
				kept = true
			}
		} else if len(c.oo) < 256 {
			c.oo[seq] = ooSeg{data, buf}
			kept = true
		}
		c.sendAck()
		return kept
	}
	// In order: append, then drain out-of-order segments. Segment
	// boundaries may not align with the hole (post-RTO retransmissions
	// re-segment), so the drain is overlap-tolerant rather than an
	// exact-key lookup.
	filledHole := len(c.oo) > 0
	c.recvBuf = queueAppend(c.recvBuf, &c.recvMem, data, &c.stack.arrays)
	c.rcvNxt += uint32(len(data))
	c.drainOutOfOrder()
	// Deferred FIN that data just reached?
	finReached := false
	if c.peerFin && c.rcvNxt == c.finRcvd {
		c.rcvNxt = c.finRcvd + 1
		finReached = true
		if c.state == stEstablished {
			c.state = stCloseWait
		} else if c.state == stFinWait {
			c.teardown()
		}
	}
	// Acknowledge immediately when this segment interacted with a hole or
	// a FIN (the sender needs the news for loss recovery); otherwise the
	// delayed-ACK policy applies.
	if filledHole || len(c.oo) > 0 || finReached {
		c.sendAck()
	} else {
		c.ackSoon()
	}
	c.readable.TrySend(struct{}{})
	return false
}

// limitedTransmit sends one previously unsent segment in response to an
// early duplicate ack, ignoring cwnd but respecting the peer's window.
func (c *Conn) limitedTransmit() {
	unsent := len(c.sendBuf) - c.flight()
	if c.finSent || unsent <= 0 {
		return
	}
	room := c.rwnd - c.flight()
	if room <= 0 {
		return
	}
	n := unsent
	if n > MSS {
		n = MSS
	}
	if n > room {
		n = room
	}
	off := c.flight()
	c.sendSeg(packet.TCPAck|packet.TCPPsh, c.sndNxt, c.rcvNxt, c.sendBuf[off:off+n])
	c.sndNxt += uint32(n)
	c.armRetransmit()
}

// drainOutOfOrder folds buffered segments into the in-order stream. Any
// entry overlapping rcvNxt contributes its unseen suffix; entries entirely
// below rcvNxt are discarded. The final recvBuf/rcvNxt state is unique
// regardless of map iteration order because the stream content at a given
// sequence number is fixed.
func (c *Conn) drainOutOfOrder() {
	for {
		advanced := false
		for seq, e := range c.oo {
			end := seq + uint32(len(e.data))
			if seqLE(end, c.rcvNxt) {
				delete(c.oo, seq) // entirely stale
				c.stack.s.ReleaseBuf(e.buf)
				continue
			}
			if seqLE(seq, c.rcvNxt) {
				skip := c.rcvNxt - seq
				c.recvBuf = queueAppend(c.recvBuf, &c.recvMem, e.data[skip:], &c.stack.arrays)
				c.rcvNxt = end
				delete(c.oo, seq)
				c.stack.s.ReleaseBuf(e.buf)
				advanced = true
			}
		}
		if !advanced {
			return
		}
	}
}

// teardown finishes a fully closed connection.
func (c *Conn) teardown() {
	if c.state == stClosed {
		return
	}
	c.state = stClosed
	c.disarmRetransmit()
	c.delAckTimer.Stop()
	delete(c.stack.conns, c.key)
	c.releaseQueues()
	c.readable.TrySend(struct{}{})
	c.writable.TrySend(struct{}{})
}

// releaseQueues hands a closed connection's queue arrays back to its
// stack: the send array at once, since nothing is sent any more, and the
// receive array once the application has read it empty (see consume).
func (c *Conn) releaseQueues() {
	c.stack.arrays.put(c.sendMem)
	c.sendBuf, c.sendMem = nil, nil
	if len(c.recvBuf) == 0 {
		c.stack.arrays.put(c.recvMem)
		c.recvBuf, c.recvMem = nil, nil
	}
}

// --- Application API (called from simulation processes) ---

// Write queues data for transmission, blocking while the send buffer is
// full. It returns len(data) or an error if the connection failed.
func (c *Conn) Write(p *sim.Proc, data []byte) (int, error) {
	written := 0
	for written < len(data) {
		if c.state == stClosed {
			if c.failure != nil {
				return written, c.failure
			}
			return written, ErrClosed
		}
		if c.sendFin {
			return written, ErrClosed
		}
		room := SendBufSize - len(c.sendBuf)
		if room <= 0 {
			c.writable.Recv(p)
			continue
		}
		n := len(data) - written
		if n > room {
			n = room
		}
		c.sendBuf = queueAppend(c.sendBuf, &c.sendMem, data[written:written+n], &c.stack.arrays)
		written += n
		c.trySend()
	}
	return written, nil
}

// Read copies up to len(buf) buffered bytes into buf, blocking until data
// is available, the peer closes (io-style: remaining data first, then
// ErrClosed), or the connection fails. It returns the number of bytes
// copied; buf stays the caller's.
func (c *Conn) Read(p *sim.Proc, buf []byte) (int, error) {
	return c.consume(p, buf, len(buf))
}

// ReadFull fills buf unless the connection ends first, in which case it
// returns the number of bytes received so far with Read's error. Each
// pass takes what is buffered, as Read does.
func (c *Conn) ReadFull(p *sim.Proc, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := c.consume(p, buf[n:], len(buf)-n)
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Discard consumes up to n buffered bytes without copying them, blocking
// and failing as Read does, and returns how many it consumed.
func (c *Conn) Discard(p *sim.Proc, n int) (int, error) {
	return c.consume(p, nil, n)
}

// consume takes up to max bytes off the front of the receive queue,
// copying them into dst unless dst is nil. Once at most half the receive
// buffer is left full the window has reopened, and the peer hears of it
// at once. A closed connection's receive array goes back to the stack
// when the application reads it empty.
func (c *Conn) consume(p *sim.Proc, dst []byte, max int) (int, error) {
	for {
		if len(c.recvBuf) > 0 {
			n := min(len(c.recvBuf), max)
			copy(dst, c.recvBuf[:n])
			c.recvBuf = c.recvBuf[n:]
			if RecvBufSize-len(c.recvBuf) >= RecvBufSize/2 {
				// Window reopened substantially; let the peer know.
				if c.state != stClosed {
					c.sendAck()
				}
			}
			if c.state == stClosed && len(c.recvBuf) == 0 {
				c.releaseQueues()
			}
			return n, nil
		}
		if c.peerFin && c.rcvNxt == c.finRcvd+1 {
			return 0, ErrClosed // clean EOF
		}
		if c.state == stClosed {
			if c.failure != nil {
				return 0, c.failure
			}
			return 0, ErrClosed
		}
		c.readable.Recv(p)
	}
}

// Close initiates a graceful close: queued data is still delivered, then a
// FIN is sent. Close does not block.
func (c *Conn) Close() {
	if c.state == stClosed || c.sendFin {
		return
	}
	c.sendFin = true
	c.trySend()
	c.maybeSendFin()
}

// State description for diagnostics.
func (c *Conn) StateString() string {
	switch c.state {
	case stSynSent:
		return "SYN-SENT"
	case stSynRcvd:
		return "SYN-RCVD"
	case stEstablished:
		return "ESTABLISHED"
	case stFinWait:
		return "FIN-WAIT"
	case stCloseWait:
		return "CLOSE-WAIT"
	case stLastAck:
		return "LAST-ACK"
	default:
		return "CLOSED"
	}
}

// Closed reports whether the connection has fully terminated.
func (c *Conn) Closed() bool { return c.state == stClosed }
