// Package livewire drives the modulation engine against a real network: a
// transparent UDP relay that subjects live traffic to a replay trace's
// delays and losses in wall-clock time. It is the modern analogue of
// running the paper's modulated kernel on a physical testbed — the same
// engine the simulator uses, under a real clock and real sockets.
//
// Topology: client ⇄ relay (this process) ⇄ target server. Traffic from
// the client is treated as the mobile host's outbound direction; traffic
// from the target as inbound (and so receives delay compensation).
package livewire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tracemod/internal/faults"
	"tracemod/internal/modulation"
	"tracemod/internal/packet"
	"tracemod/internal/simnet"
)

// Datagram buffers come in two size classes, each with its own pool
// shared by every relay in the process (emud runs many). An in-flight
// packet holds one buffer of its class from read until delivery or drop,
// so a packet held for its trace delay pins about its own size, not the
// largest datagram the socket could have carried.
const (
	// smallDatagram is the small class: every datagram up to 2 KiB,
	// which covers anything that fits an Ethernet-sized MTU.
	smallDatagram = 2 * 1024
	// maxDatagram is the large class and the largest UDP payload a relay
	// accepts (the IPv4 limit).
	maxDatagram = 64 * 1024
)

var (
	smallPool = sync.Pool{New: func() any {
		b := make([]byte, smallDatagram)
		return &b
	}}
	largePool = sync.Pool{New: func() any {
		b := make([]byte, maxDatagram)
		return &b
	}}
)

// getBuf returns a pooled buffer of the size class that holds n bytes.
func getBuf(n int) *[]byte {
	if n <= smallDatagram {
		return smallPool.Get().(*[]byte)
	}
	return largePool.Get().(*[]byte)
}

// putBuf returns b to the pool of its size class.
func putBuf(b *[]byte) {
	if cap(*b) <= smallDatagram {
		smallPool.Put(b)
		return
	}
	largePool.Put(b)
}

// copyOut moves one received datagram out of read scratch into a pooled
// buffer of its size class; the caller owns the result.
func copyOut(p []byte) *[]byte {
	b := getBuf(len(p))
	copy(*b, p)
	return b
}

// Submitter is the shaping surface a relay pushes datagrams through: a
// whole read burst enters it at once, and exactly one of each
// Submission's Deliver or Drop must eventually run. *modulation.Engine
// implements it directly (one engine-lock acquisition per burst); the
// emud session farm interposes its per-packet admission control and
// accounting by implementing it on Session.
type Submitter interface {
	SubmitBatch(subs []modulation.Submission)
}

// RelayOpts tunes a relay's data plane.
type RelayOpts struct {
	// Group, if enabled, places the relay's sockets on the shared
	// sharded pumps instead of spawning two goroutines.
	Group *PumpGroup
	// ForceGenericIO selects the portable single-message pktio even
	// where the batched recvmmsg/sendmmsg path is available — the
	// fallback test suite runs the relay this way on Linux.
	ForceGenericIO bool
	// Retry shapes how a pump backs off after a transient socket error
	// (an ICMP port-unreachable bounced off a not-yet-started target, an
	// interrupted syscall) before reading again. The zero value uses the
	// faults package defaults.
	Retry faults.Backoff
}

// Stats counts relay activity.
type Stats struct {
	ClientToTarget int64
	TargetToClient int64
	Dropped        int64
	SubmitPanics   int64 // panics recovered while submitting into the shaper
	SocketErrors   int64 // socket errors observed by the pumps (reads and writes)
	Reconnects     int64 // pump retries that resumed reading after a socket error
	SendErrors     int64 // post-modulation writes that failed (neither delivered nor lottery-dropped)

	ReadPackets    int64 // datagrams read by the data plane, both directions
	ReadBytes      int64 // payload bytes read
	SentBytes      int64 // payload bytes written
	Batches        int64 // read batches drained
	BatchedPackets int64 // datagrams carried by those read batches
	FlushFull      int64 // write flushes forced by a full batch mid-burst
	FlushBurst     int64 // write flushes at the end of a read burst
	DirectSends    int64 // deliveries sent outside any burst window
}

// AvgBatch returns the mean datagrams-per-read-batch.
func (s Stats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedPackets) / float64(s.Batches)
}

// Relay is a live packet-shaping daemon.
type Relay struct {
	submit Submitter

	clientSide *net.UDPConn // clients talk to this
	targetSide *net.UDPConn // connected toward the target

	clientIO batchConn // pktio over clientSide
	targetIO batchConn // pktio over targetSide

	qClient sendQ // coalesced writes toward the client
	qTarget sendQ // coalesced writes toward the target

	group   *PumpGroup       // nil when running per-relay pumps
	gins    *pumpInstruments // group-level series; nil-safe
	detach  func()           // shard deregistration; nil when not attached
	started time.Time

	clientAddr atomic.Pointer[net.UDPAddr]

	closeOnce sync.Once
	closed    chan struct{}

	retry faults.Backoff

	c2t, t2c, dropped, submitPanics atomic.Int64
	socketErrs, reconnects          atomic.Int64
	sendErrs                        atomic.Int64
	rxPkts, rxBytes, txBytes        atomic.Int64
	batches, batchedPkts            atomic.Int64
	cFlushFull, cFlushBurst         atomic.Int64
	cDirect                         atomic.Int64
}

// Sharded reports whether the relay runs on a PumpGroup shard rather
// than its own pump goroutines.
func (r *Relay) Sharded() bool { return r.group != nil }

// Uptime returns how long the relay has been running.
func (r *Relay) Uptime() time.Duration { return time.Since(r.started) }

// bindSockets resolves and binds the relay's two sockets.
func bindSockets(listenAddr, targetAddr string) (*net.UDPConn, *net.UDPConn, error) {
	laddr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("livewire: listen addr: %w", err)
	}
	taddr, err := net.ResolveUDPAddr("udp", targetAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("livewire: target addr: %w", err)
	}
	clientSide, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, nil, err
	}
	targetSide, err := net.DialUDP("udp", nil, taddr)
	if err != nil {
		clientSide.Close()
		return nil, nil, err
	}
	return clientSide, targetSide, nil
}

// NewRelayWithSubmitterOpts binds sockets and shapes traffic through a
// Submitter the caller owns — the emud session farm attaches one relay per
// session this way (the session interposes its accounting, and every
// engine shares the farm's timer wheel). It starts the data plane: pktio
// over both sockets, then either a PumpGroup shard (batched Linux path)
// or two per-relay pump goroutines (everywhere else). The relay never
// closes the submitter's clock; revoking pending timers is the caller's
// teardown responsibility.
func NewRelayWithSubmitterOpts(listenAddr, targetAddr string, sub Submitter, opts RelayOpts) (*Relay, error) {
	if sub == nil {
		return nil, errors.New("livewire: nil submitter")
	}
	clientSide, targetSide, err := bindSockets(listenAddr, targetAddr)
	if err != nil {
		return nil, err
	}
	r := &Relay{
		submit:     sub,
		clientSide: clientSide,
		targetSide: targetSide,
		closed:     make(chan struct{}),
		retry:      opts.Retry,
		started:    time.Now(),
		clientIO:   newBatchConn(clientSide, false, opts.ForceGenericIO),
		targetIO:   newBatchConn(targetSide, true, opts.ForceGenericIO),
		gins:       opts.Group.instruments(),
	}
	if opts.Group.attach(r) {
		r.group = opts.Group
	} else {
		go r.pump(simnet.Outbound)
		go r.pump(simnet.Inbound)
	}
	return r, nil
}

// Addr returns the client-facing address.
func (r *Relay) Addr() *net.UDPAddr { return r.clientSide.LocalAddr().(*net.UDPAddr) }

// Stats returns a snapshot of relay counters.
func (r *Relay) Stats() Stats {
	return Stats{
		ClientToTarget: r.c2t.Load(),
		TargetToClient: r.t2c.Load(),
		Dropped:        r.dropped.Load(),
		SubmitPanics:   r.submitPanics.Load(),
		SocketErrors:   r.socketErrs.Load(),
		Reconnects:     r.reconnects.Load(),
		SendErrors:     r.sendErrs.Load(),
		ReadPackets:    r.rxPkts.Load(),
		ReadBytes:      r.rxBytes.Load(),
		SentBytes:      r.txBytes.Load(),
		Batches:        r.batches.Load(),
		BatchedPackets: r.batchedPkts.Load(),
		FlushFull:      r.cFlushFull.Load(),
		FlushBurst:     r.cFlushBurst.Load(),
		DirectSends:    r.cDirect.Load(),
	}
}

// Close shuts the relay down.
// A shard-attached relay deregisters from its shard before the sockets
// close, so the event loop never touches a dying fd; whatever the write
// queues still hold is released back to the buffer pool.
func (r *Relay) Close() {
	r.closeOnce.Do(func() {
		close(r.closed)
		if r.detach != nil {
			r.detach()
		}
		r.clientSide.Close()
		r.targetSide.Close()
		r.drainQ(&r.qClient)
		r.drainQ(&r.qTarget)
	})
}

// wireSize approximates the IP datagram size of a UDP payload, which is
// what the model's per-byte costs apply to.
func wireSize(payload int) int {
	return payload + packet.IPv4HeaderLen + packet.UDPHeaderLen
}

// transientSocketErr reports whether a pump's socket error is worth
// retrying: the socket is still healthy, the condition momentary. On a
// connected UDP socket an ICMP port-unreachable from a dead target
// surfaces as ECONNREFUSED on a later read — precisely the error a
// relay pointed at a not-yet-started (or restarting) server sees, and
// precisely the one it must outlive.
func transientSocketErr(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return false // the socket is gone; no retry can help
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	for _, errno := range []syscall.Errno{
		syscall.ECONNREFUSED, syscall.ECONNRESET, syscall.EINTR,
		syscall.EAGAIN, syscall.ENOBUFS, syscall.EHOSTUNREACH,
		syscall.ENETUNREACH, syscall.ENETDOWN,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// maxPumpErrStreak bounds consecutive retries for errors the pump cannot
// classify as transient: an unknown condition gets a fair chance to
// clear, but a socket that is permanently broken must not spin forever.
const maxPumpErrStreak = 8

// recoverPump decides a pump's fate after a read error: false means exit
// (the relay is closing, or the error streak exhausted its budget), true
// means the backoff has been slept and the pump should read again.
func (r *Relay) recoverPump(streak *int, err error) bool {
	select {
	case <-r.closed:
		return false
	default:
	}
	r.socketErrs.Add(1)
	if !transientSocketErr(err) && *streak >= maxPumpErrStreak {
		return false
	}
	if !r.retry.Wait(*streak, r.closed) {
		return false // closed mid-sleep
	}
	*streak++
	r.reconnects.Add(1)
	return true
}

// The data plane itself — batch reading, shaping, and coalesced writing —
// lives in pump.go (processBatch and friends); the platform pktio
// implementations live in pktio*.go, and the shared sharded event loops
// in pump_linux.go. A reader borrows read scratch only for the length of
// one read; every datagram then moves in one pooled buffer of its size
// class from read to delivery or drop. (A buffer whose delivery timer is
// revoked by an emud session Stop is simply left to the garbage collector
// — sync.Pool does not require returns.)
