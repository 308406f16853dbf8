package simnet

import (
	"encoding/binary"
	"testing"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
)

// TestInjectedDatagramSums: a datagram handed to input without the
// medium's mark is verified at that one site — IPv4 header sum, then the
// UDP sum when nonzero, then the TCP sum — and every failure counts in
// BadSum instead of reaching the protocol handler.
func TestInjectedDatagramSums(t *testing.T) {
	udp := func(corrupt func(packet.UDP)) []byte {
		u := packet.MarshalUDP(5000, 2049, ipA, ipB, []byte("nfs call"))
		corrupt(u)
		return packet.MarshalIPv4(packet.IPv4Fields{TTL: 4, Protocol: packet.ProtoUDP, Src: ipA, Dst: ipB}, u)
	}
	tcp := func(corrupt func(packet.TCP)) []byte {
		seg := packet.MarshalTCP(packet.TCPFields{SrcPort: 20, DstPort: 1025, Seq: 1, Flags: packet.TCPAck}, ipA, ipB, []byte("ftp data"))
		corrupt(seg)
		return packet.MarshalIPv4(packet.IPv4Fields{TTL: 4, Protocol: packet.ProtoTCP, Src: ipA, Dst: ipB}, seg)
	}
	for _, tc := range []struct {
		name      string
		ip        []byte
		delivered bool
	}{
		{"valid UDP", udp(func(packet.UDP) {}), true},
		{"valid TCP", tcp(func(packet.TCP) {}), true},
		{"bad IPv4 header sum", func() []byte {
			ip := udp(func(packet.UDP) {})
			ip[8] ^= 0xff // TTL changed, header sum left stale
			return ip
		}(), false},
		{"bad UDP sum", udp(func(u packet.UDP) { u[packet.UDPHeaderLen] ^= 1 }), false},
		{"UDP sum 0 (none computed)", udp(func(u packet.UDP) {
			u[packet.UDPHeaderLen] ^= 1
			binary.BigEndian.PutUint16(u[6:8], 0)
		}), true},
		{"bad TCP sum", tcp(func(seg packet.TCP) { seg[packet.TCPHeaderLen] ^= 1 }), false},
	} {
		s := sim.New(1)
		_, b, _ := lan(s, fastQuality())
		got := 0
		b.RegisterProto(packet.ProtoUDP, func(n *Node, ip packet.IPv4) { got++ })
		b.RegisterProto(packet.ProtoTCP, func(n *Node, ip packet.IPv4) { got++ })
		b.input(tc.ip, false, false)
		s.Run()
		wantGot, wantBad := 0, int64(1)
		if tc.delivered {
			wantGot, wantBad = 1, 0
		}
		if got != wantGot || b.Stats().BadSum != wantBad {
			t.Errorf("%s: handler ran %d times, BadSum %d; want %d and %d", tc.name, got, b.Stats().BadSum, wantGot, wantBad)
		}
	}
}

// TestMediumDeliveredSumsAreNotVerified pins the offload: a datagram a
// medium delivers is never re-verified, so one whose UDP or TCP sum field
// holds garbage still reaches its handler. The garbage is written by an
// outbound hook, which runs after the IP layer and before the medium.
func TestMediumDeliveredSumsAreNotVerified(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto uint8
		seg   []byte
		sumAt int // offset of the checksum field in seg
	}{
		{"UDP", packet.ProtoUDP, packet.MarshalUDP(5000, 2049, ipA, ipB, []byte("nfs call")), 6},
		{"TCP", packet.ProtoTCP, packet.MarshalTCP(packet.TCPFields{SrcPort: 20, DstPort: 1025, Flags: packet.TCPAck}, ipA, ipB, []byte("ftp data")), 16},
	} {
		s := sim.New(1)
		a, b, _ := lan(s, fastQuality())
		a.AddOutboundHook(HookFunc(func(d Direction, ip []byte, next func([]byte)) {
			binary.BigEndian.PutUint16(packet.IPv4(ip).Payload()[tc.sumAt:], 0xbad5)
			next(ip)
		}))
		got := 0
		b.RegisterProto(tc.proto, func(n *Node, ip packet.IPv4) {
			if binary.BigEndian.Uint16(ip.Payload()[tc.sumAt:]) == 0xbad5 {
				got++
			}
		})
		a.SendIP(tc.proto, ipB, withIPRoom(tc.seg))
		s.Run()
		if got != 1 || b.Stats().BadSum != 0 {
			t.Errorf("%s: handler saw the garbage sum %d times, BadSum %d; want 1 and 0", tc.name, got, b.Stats().BadSum)
		}
	}
}
