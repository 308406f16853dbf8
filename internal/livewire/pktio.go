package livewire

import "net"

// DefaultBatch is the data plane's per-syscall datagram budget: how many
// packets one recvmmsg may return, and how many queued deliveries one
// sendmmsg may carry. 32 keeps a batch's pooled buffers (32 × 64 KiB)
// within a sane working set while amortizing the syscall and engine-lock
// cost over enough packets to matter.
const DefaultBatch = 32

// ioMessage is one datagram slot in a batched I/O exchange. buf is always
// a pooled max-datagram buffer (getBuf/putBuf); n is the payload length —
// set by ReadBatch, honored by WriteBatch. addr is the datagram's source
// (reads on unconnected sockets) or destination (writes on unconnected
// sockets); it is nil on connected sockets, which already know their peer.
type ioMessage struct {
	buf  *[]byte
	n    int
	addr *net.UDPAddr
}

// batchConn is the pktio surface the pumps drive. Two implementations
// exist: mmsgConn moves whole slices of datagrams per recvmmsg/sendmmsg
// syscall on Linux (amd64/arm64), and genericConn is the portable
// fallback that moves exactly one datagram per call through the stdlib
// net methods — same contract, so the pump logic above it is identical.
//
// ReadBatch blocks until at least one datagram is available, then fills
// as many slots as the socket can supply without blocking again and
// returns the count. It gives an empty slot (nil buf) a pooled buffer
// only when it may fill it, so a reader parked on an idle socket pins at
// most the one buffer genericConn reads into. WriteBatch sends the
// messages in order and returns how many were sent; a non-nil error
// refers to the first unsent message.
// ReadBatch must only be called from the socket's single reader (its pump
// goroutine or its owning shard); WriteBatch is safe to call concurrently.
type batchConn interface {
	ReadBatch(ms []ioMessage) (int, error)
	WriteBatch(ms []ioMessage) (int, error)
}

// genericConn is the portable single-message pktio: batches degrade to
// one datagram per syscall, trading throughput for running anywhere the
// stdlib does. It is also what ForceGenericIO selects in tests, so the
// fallback path is exercised on every platform.
type genericConn struct {
	c         *net.UDPConn
	connected bool
}

func (g *genericConn) ReadBatch(ms []ioMessage) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	m := &ms[0]
	if m.buf == nil {
		m.buf = getBuf()
	}
	if g.connected {
		n, err := g.c.Read(*m.buf)
		if err != nil {
			return 0, err
		}
		m.n, m.addr = n, nil
		return 1, nil
	}
	n, addr, err := g.c.ReadFromUDP(*m.buf)
	if err != nil {
		return 0, err
	}
	m.n, m.addr = n, addr
	return 1, nil
}

func (g *genericConn) WriteBatch(ms []ioMessage) (int, error) {
	for i := range ms {
		m := &ms[i]
		var err error
		if m.addr != nil && !g.connected {
			_, err = g.c.WriteToUDP((*m.buf)[:m.n], m.addr)
		} else {
			_, err = g.c.Write((*m.buf)[:m.n])
		}
		if err != nil {
			return i, err
		}
	}
	return len(ms), nil
}

// newBatchConn picks the fastest pktio available for the socket.
func newBatchConn(c *net.UDPConn, connected, forceGeneric bool) batchConn {
	if !forceGeneric && batchIOSupported {
		if bc, ok := newFastConn(c, connected); ok {
			return bc
		}
	}
	return &genericConn{c: c, connected: connected}
}

// BatchIOSupported reports whether this build has the batched
// recvmmsg/sendmmsg fast path (Linux on amd64/arm64). Elsewhere — and
// under ForceGenericIO — relays run the portable single-message pktio.
func BatchIOSupported() bool { return batchIOSupported }
