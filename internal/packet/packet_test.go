package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	srcIP = IP4(10, 0, 0, 1)
	dstIP = IP4(10, 0, 0, 2)
)

func TestIPAddr(t *testing.T) {
	ip := IP4(192, 168, 1, 42)
	if ip.String() != "192.168.1.42" {
		t.Fatalf("String = %q", ip.String())
	}
	if IP4(0, 0, 0, 0) != 0 {
		t.Fatal("zero address should be 0")
	}
	if IP4(255, 255, 255, 255) != 0xffffffff {
		t.Fatal("broadcast should be all ones")
	}
}

func TestHWAddrString(t *testing.T) {
	a := HWAddr{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if a.String() != "de:ad:be:ef:00:01" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2 -> checksum 220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != 0x220d {
		t.Fatalf("checksum = %04x, want 220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	data := []byte{0x01, 0x02, 0x03}
	// 0102 + 0300 = 0402 -> ^ = fbfd
	if got := Checksum(data, 0); got != 0xfbfd {
		t.Fatalf("checksum = %04x", got)
	}
}

// checksum16 is the straightforward RFC 1071 loop, one 16-bit word at a
// time, kept as the reference the word-at-a-time Checksum must match. Its
// accumulator is 64 bits wide so that an initial partial sum near 2^32
// cannot wrap it.
func checksum16(data []byte, initial uint32) uint16 {
	sum := uint64(initial)
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if n%2 == 1 {
		sum += uint64(data[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// TestChecksumMatchesReference checks the word-at-a-time sum against the
// 16-bit reference: random lengths, half of them odd so a lone final byte
// is left, starting at any offset, over random, all-0xff and zero data,
// with initial sums (the pseudo-header's) that push the end-around carry.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	buf := make([]byte, 4096+8)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(4096 + 1)
		if i%2 == 1 {
			n |= 1
		}
		off := rng.Intn(8)
		data := buf[off : off+n]
		switch i % 3 {
		case 0:
			rng.Read(data)
		case 1: // all ones: every word is 0xffff, the carry-heavy case
			for j := range data {
				data[j] = 0xff
			}
		case 2:
			for j := range data {
				data[j] = 0
			}
		}
		initial := rng.Uint32()
		if i%4 == 0 {
			initial = 0
		}
		if got, want := Checksum(data, initial), checksum16(data, initial); got != want {
			t.Fatalf("len %d offset %d initial %#x: Checksum = %04x, reference %04x", n, off, initial, got, want)
		}
	}
	for n := 0; n < 80; n++ { // every tail shape around the 8- and 32-byte strides
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(j*37 + 11)
		}
		for _, initial := range []uint32{0, 1, 0xffff, 0x1fffe, 0xffffffff} {
			if got, want := Checksum(data, initial), checksum16(data, initial); got != want {
				t.Fatalf("len %d initial %#x: Checksum = %04x, reference %04x", n, initial, got, want)
			}
		}
	}
}

func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0x01, 0x02, 0x03}, uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}, uint32(0xffffffff))
	f.Add(bytes.Repeat([]byte{0xab, 0xcd, 0xef}, 200), uint32(0x12345))
	f.Fuzz(func(t *testing.T, data []byte, initial uint32) {
		if got, want := Checksum(data, initial), checksum16(data, initial); got != want {
			t.Fatalf("len %d initial %#x: Checksum = %04x, reference %04x", len(data), initial, got, want)
		}
	})
}

func TestIPv4RoundTrip(t *testing.T) {
	payload := []byte("hello world")
	p := MarshalIPv4(IPv4Fields{TOS: 0x10, ID: 1234, TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP}, payload)
	if err := p.Valid(); err != nil {
		t.Fatalf("Valid: %v", err)
	}
	if p.Version() != 4 || p.IHL() != 5 {
		t.Fatal("version/ihl wrong")
	}
	if p.TOS() != 0x10 || p.ID() != 1234 || p.TTL() != 64 || p.Protocol() != ProtoUDP {
		t.Fatal("fields wrong")
	}
	if p.Src() != srcIP || p.Dst() != dstIP {
		t.Fatal("addresses wrong")
	}
	if int(p.TotalLen()) != IPv4HeaderLen+len(payload) {
		t.Fatal("total length wrong")
	}
	if !bytes.Equal(p.Payload(), payload) {
		t.Fatal("payload mismatch")
	}
	if !p.ChecksumOK() {
		t.Fatal("checksum should verify")
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	p := MarshalIPv4(IPv4Fields{TTL: 64, Protocol: ProtoICMP, Src: srcIP, Dst: dstIP}, []byte{1, 2, 3})
	p[9] ^= 0xff
	if p.ChecksumOK() {
		t.Fatal("corrupted header should fail checksum")
	}
}

func TestIPv4SetTTLAndReChecksum(t *testing.T) {
	p := MarshalIPv4(IPv4Fields{TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP}, nil)
	p.SetTTL(63)
	if p.ChecksumOK() {
		t.Fatal("stale checksum should fail after TTL change")
	}
	p.SetChecksum()
	if !p.ChecksumOK() || p.TTL() != 63 {
		t.Fatal("SetChecksum should restore validity")
	}
}

func TestIPv4ValidRejects(t *testing.T) {
	if err := IPv4(make([]byte, 10)).Valid(); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	p := MarshalIPv4(IPv4Fields{TTL: 1, Protocol: 0, Src: srcIP, Dst: dstIP}, nil)
	p[0] = 6 << 4
	if err := p.Valid(); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	p2 := MarshalIPv4(IPv4Fields{TTL: 1, Protocol: 0, Src: srcIP, Dst: dstIP}, nil)
	p2[2] = 0xff // total length larger than buffer
	p2[3] = 0xff
	if err := p2.Valid(); err != ErrBadLength {
		t.Fatalf("length: %v", err)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	pl := EchoPayload(32, 987654321)
	m := MarshalICMP(ICMPFields{Type: ICMPEcho, ID: 777, Seq: 42}, pl)
	if !m.Valid() || m.Type() != ICMPEcho || m.Code() != 0 || m.ID() != 777 || m.Seq() != 42 {
		t.Fatal("icmp fields wrong")
	}
	if !m.ChecksumOK() {
		t.Fatal("checksum should verify")
	}
	ts, ok := m.SentAt()
	if !ok || ts != 987654321 {
		t.Fatalf("SentAt = %d,%v", ts, ok)
	}
	if len(m.Payload()) != 32 {
		t.Fatal("payload size wrong")
	}
	m[6] ^= 0x01
	if m.ChecksumOK() {
		t.Fatal("corruption should break checksum")
	}
}

func TestEchoPayloadTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size < 8")
		}
	}()
	EchoPayload(4, 0)
}

func TestICMPSentAtMissing(t *testing.T) {
	m := MarshalICMP(ICMPFields{Type: ICMPEchoReply}, []byte{1, 2, 3})
	if _, ok := m.SentAt(); ok {
		t.Fatal("short payload should have no timestamp")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte("datagram body")
	u := MarshalUDP(5000, 2049, srcIP, dstIP, payload)
	if err := u.Valid(); err != nil {
		t.Fatalf("Valid: %v", err)
	}
	if u.SrcPort() != 5000 || u.DstPort() != 2049 {
		t.Fatal("ports wrong")
	}
	if int(u.Length()) != UDPHeaderLen+len(payload) {
		t.Fatal("length wrong")
	}
	if !bytes.Equal(u.Payload(), payload) {
		t.Fatal("payload mismatch")
	}
	if !u.ChecksumOK(srcIP, dstIP) {
		t.Fatal("checksum should verify")
	}
	if u.ChecksumOK(srcIP, IP4(1, 2, 3, 4)) {
		t.Fatal("checksum should bind addresses")
	}
}

func TestUDPZeroChecksumPasses(t *testing.T) {
	u := MarshalUDP(1, 2, srcIP, dstIP, nil)
	u[6], u[7] = 0, 0
	if !u.ChecksumOK(srcIP, dstIP) {
		t.Fatal("zero checksum means unchecked")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 100)
	f := TCPFields{SrcPort: 1234, DstPort: 21, Seq: 0xdeadbeef, Ack: 0x01020304, Flags: TCPAck | TCPPsh, Window: 8760}
	seg := MarshalTCP(f, srcIP, dstIP, payload)
	if err := seg.Valid(); err != nil {
		t.Fatalf("Valid: %v", err)
	}
	if seg.SrcPort() != 1234 || seg.DstPort() != 21 {
		t.Fatal("ports wrong")
	}
	if seg.Seq() != 0xdeadbeef || seg.Ack() != 0x01020304 {
		t.Fatal("seq/ack wrong")
	}
	if seg.Flags() != TCPAck|TCPPsh || seg.Window() != 8760 {
		t.Fatal("flags/window wrong")
	}
	if !bytes.Equal(seg.Payload(), payload) {
		t.Fatal("payload mismatch")
	}
	if !seg.ChecksumOK(srcIP, dstIP) {
		t.Fatal("checksum should verify")
	}
	seg[20] ^= 1
	if seg.ChecksumOK(srcIP, dstIP) {
		t.Fatal("payload corruption should break checksum")
	}
}

func TestDecodeICMP(t *testing.T) {
	m := MarshalICMP(ICMPFields{Type: ICMPEcho, ID: 9, Seq: 1}, EchoPayload(16, 5))
	p := MarshalIPv4(IPv4Fields{TTL: 64, Protocol: ProtoICMP, Src: srcIP, Dst: dstIP}, m)
	in, err := Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Has(LayerTypeIPv4) || !in.Has(LayerTypeICMPv4) || in.Has(LayerTypeTCP) {
		t.Fatalf("layers = %v", in.Layers)
	}
	if in.ICMP.ID() != 9 {
		t.Fatal("decoded view wrong")
	}
}

func TestDecodeUDPAndTCP(t *testing.T) {
	u := MarshalUDP(1, 2, srcIP, dstIP, []byte("x"))
	p := MarshalIPv4(IPv4Fields{TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP}, u)
	in, err := Decode(p)
	if err != nil || !in.Has(LayerTypeUDP) {
		t.Fatalf("udp decode: %v %v", in.Layers, err)
	}
	seg := MarshalTCP(TCPFields{SrcPort: 5, DstPort: 6, Flags: TCPSyn}, srcIP, dstIP, nil)
	p2 := MarshalIPv4(IPv4Fields{TTL: 64, Protocol: ProtoTCP, Src: srcIP, Dst: dstIP}, seg)
	in2, err := Decode(p2)
	if err != nil || !in2.Has(LayerTypeTCP) {
		t.Fatalf("tcp decode: %v %v", in2.Layers, err)
	}
	if in2.TCP.Flags() != TCPSyn {
		t.Fatal("tcp view wrong")
	}
}

func TestDecodeUnknownProtocol(t *testing.T) {
	p := MarshalIPv4(IPv4Fields{TTL: 64, Protocol: 99, Src: srcIP, Dst: dstIP}, []byte{1, 2})
	in, err := Decode(p)
	if err != nil || !in.Has(LayerTypePayload) {
		t.Fatalf("unknown proto: %v %v", in.Layers, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short packet should error")
	}
	// IPv4 claiming ICMP but with a truncated ICMP body.
	p := MarshalIPv4(IPv4Fields{TTL: 64, Protocol: ProtoICMP, Src: srcIP, Dst: dstIP}, []byte{8, 0})
	if _, err := Decode(p); err != ErrTruncated {
		t.Fatalf("truncated icmp: %v", err)
	}
}

func TestLayerTypeString(t *testing.T) {
	if LayerTypeTCP.String() != "TCP" {
		t.Fatal("known name wrong")
	}
	if LayerType(99).String() != "LayerType(99)" {
		t.Fatal("unknown name wrong")
	}
}

// Property: UDP marshal/decode round-trips arbitrary payloads and the
// checksum always verifies.
func TestUDPRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > MTU-IPv4HeaderLen-UDPHeaderLen {
			payload = payload[:MTU-IPv4HeaderLen-UDPHeaderLen]
		}
		u := MarshalUDP(sp, dp, srcIP, dstIP, payload)
		if u.Valid() != nil || !u.ChecksumOK(srcIP, dstIP) {
			return false
		}
		return u.SrcPort() == sp && u.DstPort() == dp && bytes.Equal(u.Payload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: TCP checksum verification fails for any single-bit flip.
func TestTCPChecksumBitFlipProperty(t *testing.T) {
	f := func(seed uint32, bit uint16) bool {
		payload := []byte{byte(seed), byte(seed >> 8), byte(seed >> 16)}
		seg := MarshalTCP(TCPFields{SrcPort: 1, DstPort: 2, Seq: seed, Flags: TCPAck}, srcIP, dstIP, payload)
		pos := int(bit) % (len(seg) * 8)
		seg[pos/8] ^= 1 << (pos % 8)
		return !seg.ChecksumOK(srcIP, dstIP)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: IPv4 marshal preserves payload bytes exactly.
func TestIPv4PayloadProperty(t *testing.T) {
	f := func(payload []byte, id uint16) bool {
		if len(payload) > MTU-IPv4HeaderLen {
			payload = payload[:MTU-IPv4HeaderLen]
		}
		p := MarshalIPv4(IPv4Fields{ID: id, TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP}, payload)
		return p.Valid() == nil && p.ChecksumOK() && bytes.Equal(p.Payload(), payload) && p.ID() == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
