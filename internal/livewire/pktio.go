package livewire

import "net"

// DefaultBatch is the data plane's per-syscall datagram budget: how many
// packets one recvmmsg may return, and how many queued deliveries one
// sendmmsg may carry. A read borrows scratch for a whole batch of
// max-size datagrams (32 × 64 KiB) only for the length of the read, so
// the budget costs a transient working set per active reader, not memory
// held per socket, while amortizing the syscall and engine-lock cost over
// enough packets to matter.
const DefaultBatch = 32

// ioMessage is one datagram slot in a batched I/O exchange. buf is a
// pooled buffer of the datagram's size class (getBuf/putBuf), owned by
// whoever holds the slot; n is the payload length — set by ReadBatch,
// honored by WriteBatch. addr is the datagram's source (reads on
// unconnected sockets) or destination (writes on unconnected sockets); it
// is nil on connected sockets, which already know their peer. A source
// address may be shared by many datagrams and is never mutated.
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
// returns the count. The kernel writes into borrowed read scratch; each
// datagram is then copied into a pooled buffer of its size class, which
// the filled slot hands to the caller. The scratch goes back to its pool
// before ReadBatch returns, and mmsgConn gives it back before it parks,
// so an idle reader pins no buffers (genericConn holds its one borrowed
// 64 KiB buffer across the stdlib's parked read). WriteBatch sends the
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
	scratch := getBuf(maxDatagram)
	defer putBuf(scratch)
	var n int
	var addr *net.UDPAddr
	var err error
	if g.connected {
		n, err = g.c.Read(*scratch)
	} else {
		n, addr, err = g.c.ReadFromUDP(*scratch)
	}
	if err != nil {
		return 0, err
	}
	ms[0] = ioMessage{buf: copyOut((*scratch)[:n]), n: n, addr: addr}
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
