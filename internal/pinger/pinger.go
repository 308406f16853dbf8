// Package pinger implements the paper's known workload (Sections 3.1.1 and
// 3.2.2): a modified ping that each second sends an ICMP ECHO with a small
// payload s1 and, upon receiving its ECHOREPLY, immediately sends two
// larger ECHOs of payload size s2 back-to-back. The first pair of
// round-trips yields the latency F and total per-byte cost V; the
// back-to-back pair separates the bottleneck cost Vb from the residual Vr;
// sequence-number gaps yield the loss rate.
//
// Every echo payload carries the send timestamp in its first 8 bytes, so
// the tracer can compute round-trip times from a single host's clock.
package pinger

import (
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

// Default workload geometry. Sizes are ICMP payload bytes; on the wire an
// echo is payload + 8 (ICMP) + 20 (IP) bytes.
const (
	DefaultS1       = 32   // small probe payload
	DefaultS2       = 1000 // large back-to-back probe payload
	DefaultInterval = time.Second
)

// WireSize returns the IP datagram size of an echo with the given payload.
func WireSize(payload int) int {
	return packet.IPv4HeaderLen + packet.ICMPHeaderLen + payload
}

type reply struct {
	seq uint16
	at  sim.Time
}

// Stats summarizes a pinger run.
type Stats struct {
	Sent     int // ECHO requests transmitted
	Received int // ECHOREPLYs received
	Triplets int // complete three-packet groups initiated
}

// Pinger drives the known workload from a node toward a target.
type Pinger struct {
	// S1 and S2 are the two payload sizes; S1 < S2.
	S1, S2 int
	// Interval separates successive groups (one second in the paper).
	Interval time.Duration
	// ID is the echo identifier; the paper stores the generating process
	// id in this field.
	ID uint16

	node    *simnet.Node
	target  packet.IPAddr
	seq     uint16
	replies *sim.Chan[reply]
	stats   Stats
}

// New prepares a pinger and installs its ICMP handler on node (replacing
// the default echo responder; the mobile host is the measurement endpoint,
// not a ping target).
func New(node *simnet.Node, target packet.IPAddr) *Pinger {
	pg := &Pinger{
		S1: DefaultS1, S2: DefaultS2, Interval: DefaultInterval,
		ID:      4242,
		node:    node,
		target:  target,
		replies: sim.NewChan[reply](node.Sched(), 64),
	}
	node.RegisterProto(packet.ProtoICMP, pg.handleICMP)
	return pg
}

// Stats returns the workload counters so far.
func (pg *Pinger) Stats() Stats { return pg.stats }

// handleICMP consumes every ICMP datagram the node receives and releases
// its buffer.
func (pg *Pinger) handleICMP(n *simnet.Node, ip packet.IPv4) {
	m := packet.ICMP(ip.Payload())
	if m.Valid() && m.Type() == packet.ICMPEchoReply && m.ID() == pg.ID {
		pg.stats.Received++
		pg.replies.TrySend(reply{seq: m.Seq(), at: n.Sched().Now()})
	}
	n.Sched().ReleaseBuf(ip)
}

// sendEcho transmits one ECHO with the given payload size and returns its
// sequence number.
func (pg *Pinger) sendEcho(payloadSize int) uint16 {
	pg.seq++
	seq := pg.seq
	now := int64(pg.node.Sched().Now())
	buf := pg.node.Sched().Buf(packet.IPv4HeaderLen + packet.ICMPHeaderLen + payloadSize)
	echo := packet.ICMP(buf[packet.IPv4HeaderLen:])
	packet.PutEchoPayload(echo.Payload(), now)
	packet.PutICMPHeader(echo, packet.ICMPFields{Type: packet.ICMPEcho, ID: pg.ID, Seq: seq})
	pg.node.SendIP(packet.ProtoICMP, pg.target, buf)
	pg.stats.Sent++
	return seq
}

// waitFor blocks until the reply for seq arrives or the deadline passes,
// discarding stale replies for earlier sequence numbers.
func (pg *Pinger) waitFor(p *sim.Proc, seq uint16, deadline sim.Time) bool {
	for {
		remaining := deadline.Sub(p.Now())
		if remaining <= 0 {
			return false
		}
		r, ok, timedOut := pg.replies.RecvTimeout(p, remaining)
		if timedOut || !ok {
			return false
		}
		if r.seq == seq {
			return true
		}
		// Stale reply from an earlier group: keep waiting.
	}
}

// Run executes the workload for dur, generating one group per Interval.
// It must be called from a simulation process.
func (pg *Pinger) Run(p *sim.Proc, dur time.Duration) {
	end := p.Now().Add(dur)
	for p.Now() < end {
		groupStart := p.Now()
		pg.runGroup(p, groupStart.Add(pg.Interval))
		// Sleep out the rest of the interval.
		if wait := groupStart.Add(pg.Interval).Sub(p.Now()); wait > 0 {
			p.Sleep(wait)
		}
	}
}

// runGroup performs one two-stage probe group: a small echo, then — once
// its reply arrives — two large echoes sent back-to-back.
func (pg *Pinger) runGroup(p *sim.Proc, deadline sim.Time) {
	pg.stats.Triplets++
	seq1 := pg.sendEcho(pg.S1)
	if !pg.waitFor(p, seq1, deadline) {
		return // stage-1 reply lost or late; no stage 2 this interval
	}
	pg.sendEcho(pg.S2)
	seq3 := pg.sendEcho(pg.S2)
	// Wait (bounded) so stale replies don't leak into the next group.
	pg.waitFor(p, seq3, deadline)
}

// Start spawns the workload as a process and returns the pinger.
func Start(s *sim.Scheduler, node *simnet.Node, target packet.IPAddr, dur time.Duration) *Pinger {
	pg := New(node, target)
	s.Spawn("pinger", func(p *sim.Proc) { pg.Run(p, dur) })
	return pg
}
