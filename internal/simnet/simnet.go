// Package simnet is the in-process network substrate: nodes with one or
// more NICs, shared transmission media with time-varying quality, IP
// forwarding, and hook chains on the path between the IP layer and the
// device — the place where the paper's trace-collection and modulation
// layers install themselves ("between the IP and Ethernet layers of the
// protocol stack").
//
// Datagrams are real serialized IPv4 bytes, so every layer above sees
// authentic sizes and headers. The link layer is modelled rather than
// serialized: a frame on a Medium is the datagram plus its source NIC and
// destination hardware address, and transmission time and byte counts
// still charge the 14-byte Ethernet header.
//
// Checksum offload. A Medium never alters a byte, so a datagram it
// delivers reaches its node marked as checked, as Linux marks loopback
// traffic CHECKSUM_UNNECESSARY, and its sums are never verified. A
// datagram handed to a node's input any other way is verified there, in
// one place: IPv4 header sum, then the UDP sum when nonzero, then the TCP
// sum (Node.Stats().BadSum counts failures). Transports therefore send
// UDP and TCP without payload sums (packet.PutUDPHeader, PutTCPHeader),
// and routers patch the header sum after decrementing TTL
// (packet.IPv4.DecTTL). A future medium that models corruption must fill
// in the sums before it alters a datagram and deliver it unmarked, as a
// NIC completes a partial sum on egress.
//
// Buffer ownership. Every datagram is allocated once, by whoever creates
// it (a transport, the pinger, the ICMP echo responder), from the
// scheduler's datagram free list (sim.Scheduler.Buf), with
// packet.IPv4HeaderLen bytes of room in front that SendIP fills in place.
// From there the same slice is handed from owner to owner: output hooks,
// the NIC, the medium, the receiving NIC, router forwarding, protocol
// dispatch. The rule is one sentence: a layer never reads or writes a
// datagram after passing it on. A hook holds a datagram only until it
// calls next; a Tap sees it for the duration of the call and must not
// retain it; a protocol handler owns what it is given. The last owner
// releases the buffer (sim.Scheduler.ReleaseBuf): a drop point here, or
// the protocol handler that consumed it. An unreleased buffer is garbage,
// never a leak, so a missed release costs only an allocation, while a
// release by anyone but the last owner hands live bytes to the next
// datagram. The one exception is a broadcast frame, which every receiver
// sees at once: it is pinned, so no release recycles it; receivers may
// read it, and a router that forwards it copies it first.
package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/packet"
	"tracemod/internal/sim"
)

// Quality is the instantaneous condition of a medium: one-way latency, a
// per-byte transmission cost (inverse bandwidth), a per-packet loss
// probability, and the device-reported signal characteristics that trace
// collection records alongside packets.
type Quality struct {
	Latency time.Duration
	PerByte core.PerByte
	Loss    float64

	// Device characteristics in WaveLAN units (Section 3.1.1).
	Signal  float64
	Quality float64
	Silence float64
}

// QualityProvider yields the medium's condition at a virtual time.
type QualityProvider interface {
	Sample(at sim.Time) Quality
}

// Static is a QualityProvider with constant conditions (a wired LAN).
type Static Quality

// Sample implements QualityProvider.
func (q Static) Sample(sim.Time) Quality { return Quality(q) }

// Ethernet10 returns the quality of the isolated 10 Mb/s Ethernet the paper
// uses as its modulation testbed.
func Ethernet10() Static {
	return Static{
		Latency: 150 * time.Microsecond,
		PerByte: core.PerByteFromBandwidth(10e6),
		Loss:    0,
		Signal:  0, // wired: no radio statistics
	}
}

// Direction distinguishes the two hook paths on a node.
type Direction int

// Hook directions.
const (
	Outbound Direction = iota
	Inbound
)

func (d Direction) String() string {
	if d == Outbound {
		return "out"
	}
	return "in"
}

// Hook intercepts IP datagrams on a node's input or output path. The hook
// must either call next (immediately or from a scheduled event) to let the
// datagram continue, or drop it by never calling next. Hooks run in
// registration order.
type Hook interface {
	Filter(dir Direction, ip []byte, next func(ip []byte))
}

// HookFunc adapts a function to the Hook interface.
type HookFunc func(dir Direction, ip []byte, next func(ip []byte))

// Filter implements Hook.
func (f HookFunc) Filter(dir Direction, ip []byte, next func(ip []byte)) { f(dir, ip, next) }

// Tap observes frames at the device boundary (the paper's traced-device
// hooks). at is the time the frame passed the device, q the device's
// current conditions.
type Tap func(dir Direction, at sim.Time, ip []byte, q Quality)

// MediumStats counts traffic through a medium.
type MediumStats struct {
	Frames     int64 // frames fully transmitted
	Bytes      int64 // bytes fully transmitted (including Ethernet framing)
	Lost       int64 // frames dropped by the loss process
	QueueDrops int64 // frames dropped at a full NIC queue
}

// broadcastHW is the all-ones link-layer destination.
var broadcastHW = packet.HWAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// frame is one datagram in flight on a medium: the link-layer header is
// modelled (source NIC, destination address), the datagram is not copied.
// Frames are recycled per medium, and each caches its two event callbacks
// as method values, so a transmission schedules no fresh closures.
type frame struct {
	m   *Medium
	src *NIC
	dst packet.HWAddr
	ip  []byte

	// Conditions sampled when transmission starts.
	latency time.Duration
	loss    float64

	sentFn, deliverFn func()
}

// wireLen is the frame's size on the medium, Ethernet header included.
func (f *frame) wireLen() int { return packet.EthernetHeaderLen + len(f.ip) }

// Medium is a shared, half-duplex broadcast transmission domain: one
// transmission at a time, serialized FIFO (the contention behaviour of both
// 1997 Ethernet and the WaveLAN air interface). Latency pipelines;
// transmission time does not.
type Medium struct {
	s        *sim.Scheduler
	name     string
	provider QualityProvider
	rng      *rand.Rand
	nics     []*NIC
	hwSeq    uint16   // NICs attached so far; addresses only resolve within a medium (see nicAt)
	queue    []*frame // FIFO from head
	head     int
	free     []*frame
	busy     bool
	stats    MediumStats
}

// NewMedium creates a medium whose conditions come from provider.
func NewMedium(s *sim.Scheduler, name string, provider QualityProvider) *Medium {
	return &Medium{s: s, name: name, provider: provider, rng: s.RNG("medium/" + name)}
}

// Name returns the medium's name.
func (m *Medium) Name() string { return m.name }

// Stats returns a snapshot of the medium's counters.
func (m *Medium) Stats() MediumStats { return m.stats }

// Sample returns the medium's current conditions.
func (m *Medium) Sample() Quality { return m.provider.Sample(m.s.Now()) }

func (m *Medium) attach(n *NIC) { m.nics = append(m.nics, n) }

func (m *Medium) enqueue(src *NIC, dst packet.HWAddr, ip []byte) {
	if src.queued >= src.QueueCap {
		m.stats.QueueDrops++
		m.s.ReleaseBuf(ip)
		return
	}
	src.queued++
	f := m.newFrame()
	f.src, f.dst, f.ip = src, dst, ip
	if m.head > 0 && len(m.queue) == cap(m.queue) {
		// Slide the waiting frames to the front rather than grow past the
		// sent ones: a medium that never idles keeps a bounded queue.
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
	m.queue = append(m.queue, f)
	if !m.busy {
		m.startNext()
	}
}

func (m *Medium) newFrame() *frame {
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return f
	}
	f := &frame{m: m}
	f.sentFn, f.deliverFn = f.sent, f.deliver
	return f
}

func (m *Medium) release(f *frame) {
	f.src, f.ip = nil, nil
	m.free = append(m.free, f)
}

func (m *Medium) startNext() {
	if m.head == len(m.queue) {
		m.queue, m.head = m.queue[:0], 0
		m.busy = false
		return
	}
	m.busy = true
	f := m.queue[m.head]
	m.queue[m.head] = nil
	m.head++
	q := m.provider.Sample(m.s.Now())
	f.latency = q.Latency
	f.loss = q.Loss + f.src.TxExtraLoss
	if f.loss > 1 {
		f.loss = 1
	}
	m.s.After(q.PerByte.Cost(f.wireLen()), f.sentFn)
}

// sent runs when f has fully left the transmitter: the loss lottery
// decides whether it reaches the receivers one latency later.
func (f *frame) sent() {
	m := f.m
	f.src.queued--
	m.stats.Frames++
	m.stats.Bytes += int64(f.wireLen())
	if m.rng.Float64() < f.loss {
		m.stats.Lost++
		m.s.ReleaseBuf(f.ip)
		m.release(f)
	} else {
		m.s.After(f.latency, f.deliverFn)
	}
	m.startNext()
}

func (f *frame) deliver() {
	m, src, dst, ip := f.m, f.src, f.dst, f.ip
	m.release(f)
	if dst == broadcastHW {
		m.s.PinBuf(ip)
		for _, n := range m.nics {
			if n != src {
				n.receive(ip, true)
			}
		}
		return
	}
	if n := m.nicAt(dst); n != nil && n != src {
		n.receive(ip, false)
		return
	}
	m.s.ReleaseBuf(ip) // no receiver
}

// nicAt returns the NIC on this medium whose hardware address is hw, or
// nil. AttachNIC numbers a medium's NICs 1, 2, ... in attach order and
// writes the number into the address's last two bytes, so the NIC is
// found by index, not by a scan.
func (m *Medium) nicAt(hw packet.HWAddr) *NIC {
	i := int(hw[4])<<8 | int(hw[5]) - 1
	if i < 0 || i >= len(m.nics) || m.nics[i].HW != hw {
		return nil
	}
	return m.nics[i]
}

// NIC is a node's attachment to a medium.
type NIC struct {
	node   *Node
	medium *Medium

	IP   packet.IPAddr
	Mask packet.IPAddr
	HW   packet.HWAddr

	// QueueCap bounds the frames this NIC may have queued on the medium
	// (device + driver queue); excess is dropped at the tail.
	QueueCap int
	queued   int

	// TxExtraLoss is additional loss probability for frames this NIC
	// transmits, modelling an asymmetric channel (a mobile transmitter is
	// often weaker than the base station's).
	TxExtraLoss float64

	tap Tap
}

// Medium returns the medium the NIC is attached to.
func (n *NIC) Medium() *Medium { return n.medium }

// SetTap installs (or clears, with nil) the device-level trace tap.
func (n *NIC) SetTap(t Tap) { n.tap = t }

// Conditions returns the device's current reported conditions.
func (n *NIC) Conditions() Quality { return n.medium.Sample() }

func (n *NIC) sameSubnet(ip packet.IPAddr) bool {
	return n.IP&n.Mask == ip&n.Mask
}

// send queues an IP datagram on the medium toward the NIC holding nextHop.
func (n *NIC) send(ip []byte, nextHop packet.IPAddr) {
	dstHW, ok := n.medium.resolve(nextHop)
	if !ok {
		n.node.s.ReleaseBuf(ip) // no such neighbour: dropped like a failed ARP
		return
	}
	if n.tap != nil {
		n.tap(Outbound, n.node.s.Now(), ip, n.medium.Sample())
	}
	n.medium.enqueue(n, dstHW, ip)
}

// resolve finds the hardware address of the NIC holding ip on this medium.
func (m *Medium) resolve(ip packet.IPAddr) (packet.HWAddr, bool) {
	for _, n := range m.nics {
		if n.IP == ip {
			return n.HW, true
		}
	}
	return packet.HWAddr{}, false
}

// receive takes a datagram off the medium, which altered no byte of it,
// so it reaches the node marked checked. shared marks a broadcast frame,
// which the other receivers see too.
func (n *NIC) receive(ip []byte, shared bool) {
	if n.tap != nil {
		n.tap(Inbound, n.node.s.Now(), ip, n.medium.Sample())
	}
	n.node.input(ip, shared, true)
}

// Handler processes a received IP datagram addressed to this node.
type Handler func(n *Node, ip packet.IPv4)

// route is one entry in a node's routing table.
type route struct {
	prefix  packet.IPAddr
	mask    packet.IPAddr
	gateway packet.IPAddr // 0 means directly connected
	nic     *NIC
}

// NodeStats counts a node's IP-layer activity.
type NodeStats struct {
	Sent      int64
	Received  int64
	Forwarded int64
	NoRoute   int64
	TTLDrops  int64
	BadSum    int64
}

// Node is a host or router in the emulated network.
type Node struct {
	Name string

	// Forwarding enables router behaviour for datagrams not addressed to
	// this node.
	Forwarding bool

	s        *sim.Scheduler
	nics     []*NIC
	routes   []route
	outHooks []Hook
	inHooks  []Hook
	// out and in are the hook chains composed once per Add*Hook, ending
	// at transmit and dispatch respectively.
	out, in  func(ip []byte)
	handlers [256]Handler // by IP protocol number; nil drops the datagram
	ipID     uint16
	stats    NodeStats
}

// NewNode creates a node on scheduler s.
func NewNode(s *sim.Scheduler, name string) *Node {
	n := &Node{Name: name, s: s}
	n.handlers[packet.ProtoICMP] = icmpEchoResponder
	n.out, n.in = n.transmit, n.dispatch
	return n
}

// Sched returns the owning scheduler.
func (n *Node) Sched() *sim.Scheduler { return n.s }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats { return n.stats }

// AttachNIC connects the node to a medium with the given address and mask,
// adds a directly-connected route for the subnet, and returns the NIC.
func (n *Node) AttachNIC(m *Medium, ip, mask packet.IPAddr) *NIC {
	if m.hwSeq == math.MaxUint16 {
		panic(fmt.Sprintf("simnet: medium %s has no hardware address left", m.name))
	}
	m.hwSeq++
	nic := &NIC{
		node: n, medium: m, IP: ip, Mask: mask,
		HW:       packet.HWAddr{0x02, 0x00, 0x00, 0x00, byte(m.hwSeq >> 8), byte(m.hwSeq)},
		QueueCap: 50,
	}
	n.nics = append(n.nics, nic)
	m.attach(nic)
	n.routes = append(n.routes, route{prefix: ip & mask, mask: mask, nic: nic})
	return nic
}

// AddRoute adds a gateway route for the given prefix.
func (n *Node) AddRoute(prefix, mask, gateway packet.IPAddr) {
	nic := n.lookupNIC(gateway)
	if nic == nil {
		panic(fmt.Sprintf("simnet: %s: gateway %v is not on any attached subnet", n.Name, gateway))
	}
	n.routes = append(n.routes, route{prefix: prefix & mask, mask: mask, gateway: gateway, nic: nic})
}

// SetDefaultRoute adds a 0.0.0.0/0 route via gateway.
func (n *Node) SetDefaultRoute(gateway packet.IPAddr) {
	n.AddRoute(0, 0, gateway)
}

func (n *Node) lookupNIC(ip packet.IPAddr) *NIC {
	for _, nic := range n.nics {
		if nic.sameSubnet(ip) {
			return nic
		}
	}
	return nil
}

// lookupRoute picks the longest-prefix matching route for dst.
func (n *Node) lookupRoute(dst packet.IPAddr) *route {
	var best *route
	for i := range n.routes {
		r := &n.routes[i]
		if dst&r.mask == r.prefix {
			if best == nil || r.mask > best.mask {
				best = r
			}
		}
	}
	return best
}

// Addr returns the node's primary (first NIC) address.
func (n *Node) Addr() packet.IPAddr {
	if len(n.nics) == 0 {
		panic("simnet: node has no NIC")
	}
	return n.nics[0].IP
}

// NIC returns the i-th attached NIC.
func (n *Node) NIC(i int) *NIC { return n.nics[i] }

// SrcFor returns the source address the node would use to reach dst (the
// IP of the route's outgoing NIC). ok is false when no route exists.
func (n *Node) SrcFor(dst packet.IPAddr) (packet.IPAddr, bool) {
	r := n.lookupRoute(dst)
	if r == nil {
		return 0, false
	}
	return r.nic.IP, true
}

// IsLocal reports whether ip is one of the node's addresses.
func (n *Node) IsLocal(ip packet.IPAddr) bool {
	for _, nic := range n.nics {
		if nic.IP == ip {
			return true
		}
	}
	return false
}

// AddOutboundHook appends a hook to the output path (runs after the IP
// layer, before the device).
func (n *Node) AddOutboundHook(h Hook) {
	n.outHooks = append(n.outHooks, h)
	n.out = composeHooks(n.outHooks, Outbound, n.transmit)
}

// AddInboundHook appends a hook to the input path (runs after the device,
// before protocol dispatch).
func (n *Node) AddInboundHook(h Hook) {
	n.inHooks = append(n.inHooks, h)
	n.in = composeHooks(n.inHooks, Inbound, n.dispatch)
}

// composeHooks composes hooks in registration order in front of final. Each
// hook's next is built here once, not per datagram.
func composeHooks(hooks []Hook, dir Direction, final func(ip []byte)) func(ip []byte) {
	next := final
	for i := len(hooks) - 1; i >= 0; i-- {
		h, after := hooks[i], next
		next = func(ip []byte) { h.Filter(dir, ip, after) }
	}
	return next
}

// RegisterProto installs the handler for an IP protocol number, replacing
// any previous handler (including the built-in ICMP echo responder).
func (n *Node) RegisterProto(proto uint8, h Handler) { n.handlers[proto] = h }

// SendIP sends the IPv4 datagram buf through the output hooks and routing.
// buf is the whole datagram: packet.IPv4HeaderLen bytes of room, which
// SendIP fills with the header in place, followed by the protocol payload.
// SendIP takes ownership of buf. It returns false if no route exists.
func (n *Node) SendIP(proto uint8, dst packet.IPAddr, buf []byte) bool {
	if len(buf) < packet.IPv4HeaderLen {
		panic(fmt.Sprintf("simnet: datagram %d bytes has no room for the IP header", len(buf)))
	}
	if len(buf) > packet.MTU {
		panic(fmt.Sprintf("simnet: payload %d exceeds MTU", len(buf)-packet.IPv4HeaderLen))
	}
	r := n.lookupRoute(dst)
	if r == nil {
		n.stats.NoRoute++
		n.s.ReleaseBuf(buf)
		return false
	}
	n.ipID++
	packet.PutIPv4Header(buf, packet.IPv4Fields{
		ID: n.ipID, TTL: 64, Protocol: proto, Src: r.nic.IP, Dst: dst,
	})
	n.stats.Sent++
	n.out(buf)
	return true
}

// transmit routes a post-hook datagram out the proper NIC.
func (n *Node) transmit(ip []byte) {
	v := packet.IPv4(ip)
	if v.Valid() != nil {
		n.s.ReleaseBuf(ip)
		return
	}
	r := n.lookupRoute(v.Dst())
	if r == nil {
		n.stats.NoRoute++
		n.s.ReleaseBuf(ip)
		return
	}
	nextHop := v.Dst()
	if r.gateway != 0 {
		nextHop = r.gateway
	}
	r.nic.send(ip, nextHop)
}

// input handles a datagram arriving at the node; shared marks a broadcast
// frame other receivers also hold, and checked one that a Medium
// delivered, whose sums are not verified.
func (n *Node) input(ip []byte, shared, checked bool) {
	v := packet.IPv4(ip)
	if v.Valid() != nil || !checked && !sumsOK(v) {
		n.stats.BadSum++
		n.s.ReleaseBuf(ip)
		return
	}
	if !n.IsLocal(v.Dst()) {
		if !n.Forwarding {
			n.s.ReleaseBuf(ip)
			return
		}
		n.forward(ip, shared)
		return
	}
	n.in(ip)
}

// sumsOK verifies the IPv4 header sum of a valid datagram, then its UDP
// sum when nonzero or its TCP sum. This is the only place a datagram's
// sums are checked. A UDP header too short to sum passes, and its
// transport drops it.
func sumsOK(v packet.IPv4) bool {
	if !v.ChecksumOK() {
		return false
	}
	switch v.Protocol() {
	case packet.ProtoUDP:
		u := packet.UDP(v.Payload())
		return u.Valid() != nil || u.ChecksumOK(v.Src(), v.Dst())
	case packet.ProtoTCP:
		return packet.TCP(v.Payload()).ChecksumOK(v.Src(), v.Dst())
	}
	return true
}

// dispatch hands a datagram that cleared the input hooks to its protocol,
// which becomes the buffer's owner.
func (n *Node) dispatch(ip []byte) {
	w := packet.IPv4(ip)
	if w.Valid() != nil {
		n.s.ReleaseBuf(ip)
		return
	}
	n.stats.Received++
	if h := n.handlers[w.Protocol()]; h != nil {
		h(n, w)
	} else {
		n.s.ReleaseBuf(ip)
	}
}

// forward decrements the TTL, patching the header sum, and retransmits. A
// unicast datagram is the router's own by the ownership rule and is
// rewritten in place; a shared broadcast one is copied first.
func (n *Node) forward(ip []byte, shared bool) {
	if packet.IPv4(ip).TTL() <= 1 {
		n.stats.TTLDrops++
		n.s.ReleaseBuf(ip)
		return
	}
	if shared {
		own := n.s.Buf(len(ip))
		copy(own, ip)
		ip = own
	}
	packet.IPv4(ip).DecTTL()
	n.stats.Forwarded++
	n.transmit(ip)
}

// icmpEchoResponder is every node's built-in answer to ICMP ECHO: reply
// with ECHOREPLY carrying the same id, sequence number, and payload. The
// request is consumed here: its buffer goes back to the free list.
func icmpEchoResponder(n *Node, ip packet.IPv4) {
	defer n.s.ReleaseBuf(ip)
	m := packet.ICMP(ip.Payload())
	if !m.Valid() || m.Type() != packet.ICMPEcho {
		return
	}
	buf := n.s.Buf(packet.IPv4HeaderLen + len(m))
	reply := packet.ICMP(buf[packet.IPv4HeaderLen:])
	copy(reply.Payload(), m.Payload())
	packet.PutICMPHeader(reply, packet.ICMPFields{
		Type: packet.ICMPEchoReply, ID: m.ID(), Seq: m.Seq(),
	})
	n.SendIP(packet.ProtoICMP, ip.Src(), buf)
}
