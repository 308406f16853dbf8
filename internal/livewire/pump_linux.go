//go:build linux && (amd64 || arm64)

// PumpGroup shards: each shard is one goroutine around its own epoll set.
// The shard loop is strictly run-to-completion: ready socket →
// nonblocking recvmmsg → SubmitBatch → coalesced write flush, then the
// next ready socket. Both of a relay's sockets register with the same
// shard, so a session's packets never migrate between loops and need no
// cross-shard synchronization. The epoll fd itself is non-blocking and
// registered with the runtime netpoller (epoll sets nest), so an idle
// shard parks in IO wait like any socket reader: it never holds an OS
// thread and its P in a blocking epoll_wait, where due timers and
// netpoll-ready goroutines would wait for sysmon to retake the P.

package livewire

import (
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"tracemod/internal/simnet"
)

// shardDrainRounds bounds how many read batches one readiness event may
// drain before the loop moves on: a firehose socket cannot starve its
// shard-mates. Level-triggered epoll re-reports the socket if data
// remains.
const shardDrainRounds = 4

type pumpShard struct {
	g  *PumpGroup
	ep *os.File        // the shard's epoll set, parked on the netpoller
	rc syscall.RawConn // ep's fd, pinned for the length of each callback

	mu   sync.Mutex
	ends map[uint64]*pumpEnd

	done chan struct{}
}

// pumpEnd is one registered socket: the relay it belongs to and the
// traffic direction read from it.
type pumpEnd struct {
	id  uint64
	r   *Relay
	dir simnet.Direction
	io  *mmsgConn
}

func newShards(g *PumpGroup, n int) []*pumpShard {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	shards := make([]*pumpShard, 0, n)
	for i := 0; i < n; i++ {
		sh, err := newShard(g)
		if err != nil {
			for _, s := range shards {
				s.close()
			}
			return nil // no shards at all: the group reports disabled
		}
		shards = append(shards, sh)
	}
	return shards
}

func newShard(g *PumpGroup) (*pumpShard, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	ep := os.NewFile(uintptr(epfd), "livewire-pump-epoll")
	rc, err := ep.SyscallConn()
	// A deadline is settable only on a netpoller-registered file: this
	// rejects a shard that would otherwise fail on its first wait.
	if err == nil {
		err = ep.SetReadDeadline(time.Time{})
	}
	if err != nil {
		ep.Close()
		return nil, err
	}
	sh := &pumpShard{
		g: g, ep: ep, rc: rc,
		ends: make(map[uint64]*pumpEnd),
		done: make(chan struct{}),
	}
	go sh.loop()
	return sh, nil
}

// setEventID/eventID pack a 64-bit registration token into the epoll
// event's data union (the Fd/Pad field pair on both supported ABIs).
func setEventID(ev *syscall.EpollEvent, id uint64) {
	ev.Fd = int32(uint32(id))
	ev.Pad = int32(uint32(id >> 32))
}

func eventID(ev *syscall.EpollEvent) uint64 {
	return uint64(uint32(ev.Fd)) | uint64(uint32(ev.Pad))<<32
}

// attachShards registers both relay sockets with one shard (round-robin).
func (g *PumpGroup) attachShards(r *Relay) bool {
	cio, ok1 := r.clientIO.(*mmsgConn)
	tio, ok2 := r.targetIO.(*mmsgConn)
	if !ok1 || !ok2 {
		return false // ForceGenericIO relay: shards cannot drive it
	}
	sh := g.shards[int(g.next.Add(1))%len(g.shards)]
	ce := &pumpEnd{id: g.nextID.Add(1), r: r, dir: simnet.Outbound, io: cio}
	te := &pumpEnd{id: g.nextID.Add(1), r: r, dir: simnet.Inbound, io: tio}
	if err := sh.register(ce); err != nil {
		return false
	}
	if err := sh.register(te); err != nil {
		sh.unregister(ce)
		return false
	}
	r.detach = func() {
		sh.unregister(ce)
		sh.unregister(te)
	}
	return true
}

// epollCtl applies one epoll_ctl for pe's socket. Both descriptors are
// pinned by their RawConn for the call, so a closed group or socket
// yields an error rather than touching a reused fd number.
func (sh *pumpShard) epollCtl(op int, pe *pumpEnd) error {
	var ctlErr error
	err := sh.rc.Control(func(epfd uintptr) {
		err := pe.io.raw.Control(func(fd uintptr) {
			ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN)}
			setEventID(&ev, pe.id)
			ctlErr = syscall.EpollCtl(int(epfd), op, int(fd), &ev)
		})
		if ctlErr == nil {
			ctlErr = err
		}
	})
	if err != nil {
		return err
	}
	return ctlErr
}

func (sh *pumpShard) register(pe *pumpEnd) error {
	sh.mu.Lock()
	sh.ends[pe.id] = pe
	sh.mu.Unlock()
	err := sh.epollCtl(syscall.EPOLL_CTL_ADD, pe)
	if err != nil {
		sh.mu.Lock()
		delete(sh.ends, pe.id)
		sh.mu.Unlock()
	}
	return err
}

// unregister detaches one socket. Relay.Close calls this before closing
// the socket, so the shard can never service a dying fd; the map removal
// alone already makes any in-flight event for the id a no-op.
func (sh *pumpShard) unregister(pe *pumpEnd) {
	sh.mu.Lock()
	delete(sh.ends, pe.id)
	sh.mu.Unlock()
	sh.epollCtl(syscall.EPOLL_CTL_DEL, pe)
}

func (sh *pumpShard) loop() {
	defer close(sh.done)
	events := make([]syscall.EpollEvent, 128)
	ms := make([]ioMessage, DefaultBatch)
	// The wait callback is built once: a zero-timeout epoll_wait that
	// parks the goroutine on the netpoller (return false) only when the
	// set has nothing ready.
	var n int
	var werr error
	wait := func(fd uintptr) bool {
		for {
			n, werr = syscall.EpollWait(int(fd), events, 0)
			if werr != syscall.EINTR {
				return n > 0 || werr != nil
			}
		}
	}
	for {
		// Read fails only once close has closed ep ("use of closed
		// file"), which also wakes a parked wait.
		if err := sh.rc.Read(wait); err != nil || werr != nil {
			return
		}
		for i := 0; i < n; i++ {
			id := eventID(&events[i])
			sh.mu.Lock()
			pe := sh.ends[id]
			sh.mu.Unlock()
			if pe != nil {
				sh.service(pe, ms)
			}
		}
	}
}

// service drains one ready socket run-to-completion, up to the round
// budget.
func (sh *pumpShard) service(pe *pumpEnd, ms []ioMessage) {
	for round := 0; round < shardDrainRounds; round++ {
		n, err := pe.io.readBatch(ms, false)
		if err != nil {
			// Reading consumed the pending socket error (e.g. an ICMP
			// bounce on the connected target side); the shard moves on
			// and the socket re-arms via level-triggered epoll.
			if !errors.Is(err, net.ErrClosed) {
				pe.r.socketErrs.Add(1)
			}
			return
		}
		if n == 0 {
			return // EAGAIN: drained
		}
		pe.r.processBatch(pe.dir, ms[:n])
		clear(ms[:n]) // the buffers are processBatch's now
		if n < len(ms) {
			return
		}
	}
}

func (sh *pumpShard) close() {
	sh.ep.Close()
	<-sh.done
}
