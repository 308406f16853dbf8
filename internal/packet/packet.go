// Package packet implements the wire formats carried through the emulated
// network: IPv4, ICMP (echo/echoreply), UDP, and TCP segments. (The link
// layer is modelled by simnet, not serialized; only its header length and
// hardware addresses live here.)
//
// The design follows the gopacket idiom of typed, zero-copy header views
// over a frame's bytes: each header type is a named []byte whose accessor
// methods read fields in place, paired with a registry of LayerTypes and a
// Decode walk that classifies a raw frame. Serialization goes through
// explicit Put/Marshal helpers so byte layouts live in exactly one place.
//
// Checksum offload. The Put*Header helpers for UDP and TCP leave the
// transport checksum 0, as a NIC driver leaves a CHECKSUM_PARTIAL segment
// for the hardware: a simulated medium alters no byte, so the sum would
// never be read. Marshal* fill it in, through the one summing step that
// ChecksumOK also verifies with. IPv4 header and ICMP sums are always
// filled: PutIPv4Header sums the header from its field values, and
// IPv4.DecTTL patches the header sum rather than recomputing it.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// LayerType identifies a protocol layer in the registry.
type LayerType int

// Known layer types.
const (
	LayerTypeInvalid LayerType = iota
	LayerTypeIPv4
	LayerTypeICMPv4
	LayerTypeUDP
	LayerTypeTCP
	LayerTypePayload
)

var layerTypeNames = map[LayerType]string{
	LayerTypeInvalid: "Invalid",
	LayerTypeIPv4:    "IPv4",
	LayerTypeICMPv4:  "ICMPv4",
	LayerTypeUDP:     "UDP",
	LayerTypeTCP:     "TCP",
	LayerTypePayload: "Payload",
}

func (t LayerType) String() string {
	if n, ok := layerTypeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("LayerType(%d)", int(t))
}

// Errors returned by decoders.
var (
	ErrTruncated  = errors.New("packet: truncated header")
	ErrBadVersion = errors.New("packet: bad IP version")
	ErrBadLength  = errors.New("packet: bad length field")
)

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Sizes of the fixed headers (no options are used in this system).
const (
	EthernetHeaderLen = 14 // charged on the medium, never serialized
	IPv4HeaderLen     = 20
	ICMPHeaderLen     = 8
	UDPHeaderLen      = 8
	TCPHeaderLen      = 20

	// MTU is the Ethernet payload limit used throughout the emulation.
	MTU = 1500
)

// HWAddr is a 48-bit link-layer address.
type HWAddr [6]byte

func (a HWAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// IPAddr is an IPv4 address in host-order uint32 form.
type IPAddr uint32

// IP4 builds an address from dotted-quad components.
func IP4(a, b, c, d byte) IPAddr {
	return IPAddr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

func (ip IPAddr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Checksum computes the RFC 1071 internet checksum over data with an
// initial partial sum (pass 0 unless folding in a pseudo-header).
//
// It adds 64-bit big-endian words with an end-around carry (each carry
// out of bit 63 is added back in at bit 0) and folds the sum to 16 bits
// once at the end. Since 2^16 ≡ 1 modulo 0xffff, so is 2^64, and a 64-bit
// word is congruent to the sum of its four 16-bit halves: this is the
// 16-bit ones'-complement sum computed four words at a time (RFC 1071
// §2(B) and (C)).
func Checksum(data []byte, initial uint32) uint16 {
	sum, carry := uint64(initial), uint64(0)
	for len(data) >= 32 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[0:8]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[8:16]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[16:24]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[24:32]), carry)
		data = data[32:]
	}
	for len(data) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	// The tail (under 8 bytes) starts at an even offset, so its 16-bit
	// words keep their alignment; where they land in the sum does not
	// matter, as 2^16 ≡ 1.
	var tail uint64
	if len(data) >= 4 {
		tail = uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		tail += uint64(data[0]) << 8
	}
	sum, carry = bits.Add64(sum, tail, carry)
	sum, carry = bits.Add64(sum, 0, carry)
	sum += carry // sum is 0 here if it wrapped, so this cannot carry
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	return ^uint16(sum)
}

// l4Checksum sums the UDP or TCP segment seg together with its IPv4
// pseudo-header for src/dst. With seg's checksum field 0 it returns the
// checksum to store; over a segment carrying its checksum it returns 0
// when the checksum is right.
func l4Checksum(seg []byte, proto uint8, src, dst IPAddr) uint16 {
	pseudo := uint32(src>>16) + uint32(src&0xffff) + uint32(dst>>16) + uint32(dst&0xffff) +
		uint32(proto) + uint32(len(seg))
	return Checksum(seg, pseudo)
}

// IPv4 is a zero-copy view over an IPv4 header and payload.
type IPv4 []byte

// Valid reports whether the view holds a complete, version-4 header whose
// total length fits the buffer.
func (p IPv4) Valid() error {
	if len(p) < IPv4HeaderLen {
		return ErrTruncated
	}
	if p.Version() != 4 || p.IHL() < 5 {
		return ErrBadVersion
	}
	if int(p.TotalLen()) > len(p) || int(p.TotalLen()) < int(p.IHL())*4 {
		return ErrBadLength
	}
	return nil
}

// Version returns the IP version nibble.
func (p IPv4) Version() uint8 { return p[0] >> 4 }

// IHL returns the header length in 32-bit words.
func (p IPv4) IHL() uint8 { return p[0] & 0x0f }

// TOS returns the type-of-service byte.
func (p IPv4) TOS() uint8 { return p[1] }

// TotalLen returns the datagram's total length in bytes.
func (p IPv4) TotalLen() uint16 { return binary.BigEndian.Uint16(p[2:4]) }

// ID returns the identification field.
func (p IPv4) ID() uint16 { return binary.BigEndian.Uint16(p[4:6]) }

// TTL returns the time-to-live.
func (p IPv4) TTL() uint8 { return p[8] }

// Protocol returns the payload protocol number.
func (p IPv4) Protocol() uint8 { return p[9] }

// HeaderChecksum returns the stored header checksum.
func (p IPv4) HeaderChecksum() uint16 { return binary.BigEndian.Uint16(p[10:12]) }

// Src returns the source address.
func (p IPv4) Src() IPAddr { return IPAddr(binary.BigEndian.Uint32(p[12:16])) }

// Dst returns the destination address.
func (p IPv4) Dst() IPAddr { return IPAddr(binary.BigEndian.Uint32(p[16:20])) }

// Payload returns the transport payload (header options are not used).
func (p IPv4) Payload() []byte {
	h := int(p.IHL()) * 4
	return p[h:p.TotalLen()]
}

// SetTTL writes the time-to-live without fixing the checksum.
func (p IPv4) SetTTL(ttl uint8) { p[8] = ttl }

// DecTTL decrements the time-to-live and patches the header checksum
// incrementally (RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m'), m the 16-bit
// word holding TTL and protocol). For a header whose stored sum is right,
// the result equals SetTTL(TTL()-1) followed by SetChecksum, byte for byte.
func (p IPv4) DecTTL() {
	m := binary.BigEndian.Uint16(p[8:10])
	p[8]--
	sum := uint32(^p.HeaderChecksum()) + uint32(^m) + uint32(binary.BigEndian.Uint16(p[8:10]))
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	binary.BigEndian.PutUint16(p[10:12], ^uint16(sum))
}

// SetChecksum recomputes and stores the header checksum.
func (p IPv4) SetChecksum() {
	h := int(p.IHL()) * 4
	binary.BigEndian.PutUint16(p[10:12], 0)
	binary.BigEndian.PutUint16(p[10:12], Checksum(p[:h], 0))
}

// ChecksumOK verifies the stored header checksum.
func (p IPv4) ChecksumOK() bool {
	h := int(p.IHL()) * 4
	return Checksum(p[:h], 0) == 0
}

// IPv4Fields describes an IPv4 header to serialize.
type IPv4Fields struct {
	TOS      uint8
	ID       uint16
	TTL      uint8
	Protocol uint8
	Src, Dst IPAddr
}

// PutIPv4Header fills the first IPv4HeaderLen bytes of b with a header
// for the datagram b: total length len(b), checksum set. The payload must
// already sit at b[IPv4HeaderLen:]. This is how a datagram built behind
// reserved header room gets its header without being copied.
//
// The checksum is summed from the field values, not read back from the
// bytes just written (a load over fresh narrower stores stalls until they
// land), and equals what SetChecksum would store.
func PutIPv4Header(b []byte, f IPv4Fields) IPv4 {
	if len(b) < IPv4HeaderLen {
		panic("packet: PutIPv4Header buffer shorter than a header")
	}
	const versionIHL = 4<<4 | 5
	b[0] = versionIHL
	b[1] = f.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	binary.BigEndian.PutUint16(b[4:6], f.ID)
	binary.BigEndian.PutUint16(b[6:8], 0) // flags+fragment offset
	b[8] = f.TTL
	b[9] = f.Protocol
	binary.BigEndian.PutUint32(b[12:16], uint32(f.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(f.Dst))
	sum := uint32(versionIHL)<<8 + uint32(f.TOS) + uint32(uint16(len(b))) + uint32(f.ID) +
		uint32(f.TTL)<<8 + uint32(f.Protocol) +
		uint32(f.Src>>16) + uint32(f.Src&0xffff) + uint32(f.Dst>>16) + uint32(f.Dst&0xffff)
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	binary.BigEndian.PutUint16(b[10:12], ^uint16(sum))
	return IPv4(b)
}

// MarshalIPv4 allocates and serializes an IPv4 datagram.
func MarshalIPv4(f IPv4Fields, payload []byte) IPv4 {
	b := make([]byte, IPv4HeaderLen+len(payload))
	copy(b[IPv4HeaderLen:], payload)
	return PutIPv4Header(b, f)
}

// ICMP message types used by the known workload.
const (
	ICMPEchoReply   = 0
	ICMPEcho        = 8
	ICMPUnreachable = 3
)

// ICMP is a zero-copy view over an ICMP message.
type ICMP []byte

// Valid reports whether the view holds a complete ICMP header.
func (m ICMP) Valid() bool { return len(m) >= ICMPHeaderLen }

// Type returns the message type.
func (m ICMP) Type() uint8 { return m[0] }

// Code returns the message code.
func (m ICMP) Code() uint8 { return m[1] }

// ID returns the echo identifier (the paper records the sender's pid here).
func (m ICMP) ID() uint16 { return binary.BigEndian.Uint16(m[4:6]) }

// Seq returns the echo sequence number.
func (m ICMP) Seq() uint16 { return binary.BigEndian.Uint16(m[6:8]) }

// Payload returns the echo data.
func (m ICMP) Payload() []byte { return m[ICMPHeaderLen:] }

// ChecksumOK verifies the message checksum.
func (m ICMP) ChecksumOK() bool { return Checksum(m, 0) == 0 }

// SentAt returns the 8-byte big-endian nanosecond timestamp the modified
// ping stores at the head of the echo payload, and whether it is present.
func (m ICMP) SentAt() (int64, bool) {
	p := m.Payload()
	if len(p) < 8 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(p[:8])), true
}

// ICMPFields describes an ICMP message to serialize.
type ICMPFields struct {
	Type, Code uint8
	ID, Seq    uint16
}

// MarshalICMP serializes an ICMP message with checksum set.
func MarshalICMP(f ICMPFields, payload []byte) ICMP {
	m := ICMP(make([]byte, ICMPHeaderLen+len(payload)))
	copy(m.Payload(), payload)
	PutICMPHeader(m, f)
	return m
}

// PutICMPHeader fills m's header and checksum around a payload already in
// place at m.Payload().
func PutICMPHeader(m ICMP, f ICMPFields) {
	m[0] = f.Type
	m[1] = f.Code
	binary.BigEndian.PutUint16(m[2:4], 0)
	binary.BigEndian.PutUint16(m[4:6], f.ID)
	binary.BigEndian.PutUint16(m[6:8], f.Seq)
	binary.BigEndian.PutUint16(m[2:4], Checksum(m, 0))
}

// EchoPayload builds an echo payload of exactly size bytes carrying sentAt
// (virtual-clock nanoseconds) in its first 8 bytes; remaining bytes are a
// deterministic fill pattern. Size must be at least 8.
func EchoPayload(size int, sentAt int64) []byte {
	p := make([]byte, size)
	PutEchoPayload(p, sentAt)
	return p
}

// PutEchoPayload writes EchoPayload(len(p), sentAt) into p.
func PutEchoPayload(p []byte, sentAt int64) {
	if len(p) < 8 {
		panic("packet: echo payload must hold an 8-byte timestamp")
	}
	binary.BigEndian.PutUint64(p[:8], uint64(sentAt))
	for i := 8; i < len(p); i++ {
		p[i] = byte(i)
	}
}

// UDP is a zero-copy view over a UDP header and payload.
type UDP []byte

// Valid reports whether the view holds a complete header with a consistent
// length field.
func (u UDP) Valid() error {
	if len(u) < UDPHeaderLen {
		return ErrTruncated
	}
	if int(u.Length()) > len(u) || int(u.Length()) < UDPHeaderLen {
		return ErrBadLength
	}
	return nil
}

// SrcPort returns the source port.
func (u UDP) SrcPort() uint16 { return binary.BigEndian.Uint16(u[0:2]) }

// DstPort returns the destination port.
func (u UDP) DstPort() uint16 { return binary.BigEndian.Uint16(u[2:4]) }

// Length returns the UDP length field (header + payload).
func (u UDP) Length() uint16 { return binary.BigEndian.Uint16(u[4:6]) }

// Payload returns the datagram body.
func (u UDP) Payload() []byte { return u[UDPHeaderLen:u.Length()] }

// ChecksumOK verifies the checksum against the pseudo-header; a stored
// checksum of zero means "not computed" and passes.
func (u UDP) ChecksumOK(src, dst IPAddr) bool {
	if binary.BigEndian.Uint16(u[6:8]) == 0 {
		return true
	}
	return l4Checksum(u[:u.Length()], ProtoUDP, src, dst) == 0
}

// MarshalUDP serializes a UDP datagram with checksum computed over the
// pseudo-header for src/dst.
func MarshalUDP(srcPort, dstPort uint16, src, dst IPAddr, payload []byte) UDP {
	u := UDP(make([]byte, UDPHeaderLen+len(payload)))
	copy(u[UDPHeaderLen:], payload)
	PutUDPHeader(u, srcPort, dstPort)
	ck := l4Checksum(u, ProtoUDP, src, dst)
	if ck == 0 {
		ck = 0xffff // a computed zero is sent as all ones (RFC 768)
	}
	binary.BigEndian.PutUint16(u[6:8], ck)
	return u
}

// PutUDPHeader fills the header of the datagram u — length len(u),
// checksum 0, which RFC 768 defines as "no checksum" — around a payload
// already in place at u[UDPHeaderLen:].
func PutUDPHeader(u UDP, srcPort, dstPort uint16) {
	binary.BigEndian.PutUint16(u[0:2], srcPort)
	binary.BigEndian.PutUint16(u[2:4], dstPort)
	binary.BigEndian.PutUint16(u[4:6], uint16(len(u)))
	binary.BigEndian.PutUint16(u[6:8], 0)
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)

// TCP is a zero-copy view over a TCP segment.
type TCP []byte

// Valid reports whether the view holds a complete header.
func (t TCP) Valid() error {
	if len(t) < TCPHeaderLen {
		return ErrTruncated
	}
	if off := int(t[12]>>4) * 4; off < TCPHeaderLen || off > len(t) {
		return ErrBadLength
	}
	return nil
}

// SrcPort returns the source port.
func (t TCP) SrcPort() uint16 { return binary.BigEndian.Uint16(t[0:2]) }

// DstPort returns the destination port.
func (t TCP) DstPort() uint16 { return binary.BigEndian.Uint16(t[2:4]) }

// Seq returns the sequence number.
func (t TCP) Seq() uint32 { return binary.BigEndian.Uint32(t[4:8]) }

// Ack returns the acknowledgement number.
func (t TCP) Ack() uint32 { return binary.BigEndian.Uint32(t[8:12]) }

// Flags returns the control bits.
func (t TCP) Flags() uint8 { return t[13] & 0x3f }

// Window returns the advertised receive window.
func (t TCP) Window() uint16 { return binary.BigEndian.Uint16(t[14:16]) }

// Payload returns the segment body.
func (t TCP) Payload() []byte { return t[int(t[12]>>4)*4:] }

// ChecksumOK verifies the segment checksum against the pseudo-header.
func (t TCP) ChecksumOK(src, dst IPAddr) bool {
	return l4Checksum(t, ProtoTCP, src, dst) == 0
}

// TCPFields describes a TCP segment to serialize.
type TCPFields struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// MarshalTCP serializes a TCP segment with checksum computed over the
// pseudo-header for src/dst.
func MarshalTCP(f TCPFields, src, dst IPAddr, payload []byte) TCP {
	t := TCP(make([]byte, TCPHeaderLen+len(payload)))
	copy(t[TCPHeaderLen:], payload)
	PutTCPHeader(t, f)
	binary.BigEndian.PutUint16(t[16:18], l4Checksum(t, ProtoTCP, src, dst))
	return t
}

// PutTCPHeader fills the header of the segment t (no options) around a
// payload already in place at t[TCPHeaderLen:]. The checksum field is
// left 0, like a CHECKSUM_PARTIAL segment whose sum nothing completes.
func PutTCPHeader(t TCP, f TCPFields) {
	binary.BigEndian.PutUint16(t[0:2], f.SrcPort)
	binary.BigEndian.PutUint16(t[2:4], f.DstPort)
	binary.BigEndian.PutUint32(t[4:8], f.Seq)
	binary.BigEndian.PutUint32(t[8:12], f.Ack)
	t[12] = 5 << 4 // data offset: 5 words
	t[13] = f.Flags
	binary.BigEndian.PutUint16(t[14:16], f.Window)
	binary.BigEndian.PutUint16(t[16:18], 0)
	binary.BigEndian.PutUint16(t[18:20], 0) // urgent pointer
}

// Info is the classification produced by Decode: which layers are present
// and zero-copy views into each.
type Info struct {
	Layers []LayerType
	IP     IPv4
	ICMP   ICMP
	UDP    UDP
	TCP    TCP
}

// Has reports whether the decoded packet contains the given layer.
func (in *Info) Has(t LayerType) bool {
	for _, l := range in.Layers {
		if l == t {
			return true
		}
	}
	return false
}

// Decode classifies an IPv4 datagram (as carried by simnet) into its
// layers. It is zero-copy: the returned views alias b.
func Decode(b []byte) (Info, error) {
	var in Info
	ip := IPv4(b)
	if err := ip.Valid(); err != nil {
		return in, err
	}
	in.IP = ip
	in.Layers = append(in.Layers, LayerTypeIPv4)
	body := ip.Payload()
	switch ip.Protocol() {
	case ProtoICMP:
		m := ICMP(body)
		if !m.Valid() {
			return in, ErrTruncated
		}
		in.ICMP = m
		in.Layers = append(in.Layers, LayerTypeICMPv4)
	case ProtoUDP:
		u := UDP(body)
		if err := u.Valid(); err != nil {
			return in, err
		}
		in.UDP = u
		in.Layers = append(in.Layers, LayerTypeUDP)
	case ProtoTCP:
		t := TCP(body)
		if err := t.Valid(); err != nil {
			return in, err
		}
		in.TCP = t
		in.Layers = append(in.Layers, LayerTypeTCP)
	default:
		in.Layers = append(in.Layers, LayerTypePayload)
	}
	return in, nil
}
