package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// setHeaderSum picks h's ID field so that its header checksum comes out
// as want (any value but 0xffff, which a recomputed sum never is).
func setHeaderSum(h IPv4, want uint16) {
	binary.BigEndian.PutUint16(h[4:6], 0)
	h.SetChecksum()
	u := uint32(^h.HeaderChecksum()) // the other words' sum, in [1, 0xffff]
	t := uint32(^want)               // the sum the header must have
	binary.BigEndian.PutUint16(h[4:6], uint16((t+0xffff-u)%0xffff))
	h.SetChecksum()
}

// TestDecTTLMatchesRecompute: over random headers, the RFC 1624 patch
// leaves exactly the bytes a full recompute does. Every fourth header has
// its stored sum forced to an edge, 0x0000 or 0xfffe, before or after the
// decrement, where a one's-complement patch could pick the other zero.
func TestDecTTLMatchesRecompute(t *testing.T) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1624))
	h, want := make(IPv4, IPv4HeaderLen), make(IPv4, IPv4HeaderLen)
	var edges [2]map[uint16]int // stored sums at the edges, before and after
	edges[0], edges[1] = map[uint16]int{}, map[uint16]int{}
	for i := 0; i < n; i++ {
		rng.Read(h)
		h[0] = 4<<4 | 5
		ttl := uint8(2 + rng.Intn(254))
		h.SetTTL(ttl)
		h.SetChecksum()
		if i%4 == 0 {
			edge := [2]uint16{0x0000, 0xfffe}[i/4%2]
			if i/8%2 == 0 {
				setHeaderSum(h, edge) // the stored sum is the edge
			} else {
				h.SetTTL(ttl - 1) // the patched sum is the edge
				setHeaderSum(h, edge)
				h.SetTTL(ttl)
				h.SetChecksum()
			}
		}
		edges[0][h.HeaderChecksum()]++
		copy(want, h)
		want.SetTTL(ttl - 1)
		want.SetChecksum()
		h.DecTTL()
		if !bytes.Equal(h, want) {
			t.Fatalf("header %d: DecTTL gave % x, recompute % x", i, []byte(h), []byte(want))
		}
		edges[1][want.HeaderChecksum()]++
	}
	for i, when := range []string{"before", "after"} {
		if e := edges[i]; e[0x0000] < n/16 || e[0xfffe] < n/16 {
			t.Fatalf("stored sums %s the decrement: %d × 0x0000, %d × 0xfffe; want ≥ %d each", when, e[0x0000], e[0xfffe], n/16)
		}
	}
}

// TestPutIPv4HeaderSumMatchesRecompute: the header sum PutIPv4Header
// builds from field values is the one SetChecksum computes from the bytes.
func TestPutIPv4HeaderSumMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(791))
	b, want := make([]byte, MTU), make(IPv4, IPv4HeaderLen)
	for i := 0; i < 1<<16; i++ {
		f := IPv4Fields{
			TOS: uint8(rng.Uint32()), ID: uint16(rng.Uint32()), TTL: uint8(rng.Uint32()),
			Protocol: uint8(rng.Uint32()), Src: IPAddr(rng.Uint32()), Dst: IPAddr(rng.Uint32()),
		}
		if i%1024 == 0 {
			f = IPv4Fields{} // every field zero but version and length
		}
		got := PutIPv4Header(b[:IPv4HeaderLen+rng.Intn(MTU-IPv4HeaderLen+1)], f)
		copy(want, got)
		want.SetChecksum()
		if !bytes.Equal(got[:IPv4HeaderLen], want) {
			t.Fatalf("fields %+v: PutIPv4Header % x, SetChecksum % x", f, []byte(got[:IPv4HeaderLen]), []byte(want))
		}
	}
}

// TestPutHeadersLeaveTheSumToMarshal: PutUDPHeader and PutTCPHeader write
// no transport checksum; MarshalUDP and MarshalTCP differ from them in the
// checksum field alone.
func TestPutHeadersLeaveTheSumToMarshal(t *testing.T) {
	payload := []byte("offloaded payload")
	u := MarshalUDP(5000, 2049, srcIP, dstIP, payload)
	pu := make(UDP, len(u))
	copy(pu[UDPHeaderLen:], payload)
	PutUDPHeader(pu, 5000, 2049)
	if binary.BigEndian.Uint16(pu[6:8]) != 0 || !bytes.Equal(pu[:6], u[:6]) || !bytes.Equal(pu[8:], u[8:]) {
		t.Fatalf("PutUDPHeader % x, MarshalUDP % x: want equal but for a zero checksum", []byte(pu), []byte(u))
	}
	f := TCPFields{SrcPort: 20, DstPort: 1025, Seq: 7, Ack: 9, Flags: TCPAck | TCPPsh, Window: 8192}
	seg := MarshalTCP(f, srcIP, dstIP, payload)
	pt := make(TCP, len(seg))
	copy(pt[TCPHeaderLen:], payload)
	PutTCPHeader(pt, f)
	if binary.BigEndian.Uint16(pt[16:18]) != 0 || !bytes.Equal(pt[:16], seg[:16]) || !bytes.Equal(pt[18:], seg[18:]) {
		t.Fatalf("PutTCPHeader % x, MarshalTCP % x: want equal but for a zero checksum", []byte(pt), []byte(seg))
	}
}
