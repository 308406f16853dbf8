//go:build linux && (amd64 || arm64)

// Linux fast path: recvmmsg/sendmmsg move a whole slice of datagrams per
// syscall. The issue's suggested golang.org/x/net ReadBatch/WriteBatch is
// not available to this zero-dependency module, so the same two syscalls
// are driven directly through syscall.RawConn; the build tag limits the
// hand-laid mmsghdr layout to the 64-bit ABIs it matches (32-bit Linux
// takes the portable pktio like every other platform).

package livewire

import (
	"bytes"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

const batchIOSupported = true

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit ABIs: a msghdr
// plus the per-message byte count the kernel writes back, padded to
// pointer alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	cnt uint32
	_   [4]byte
}

// readScratch is what one recvmmsg needs: headers, iovecs, source
// names and a slab of max-size datagram slots for the kernel to write
// into. A reader borrows one from scratchPool per read and returns it
// before the read returns (or before it parks), so scratch is held per
// active read, never per socket.
type readScratch struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny
	slab  []byte
}

var scratchPool sync.Pool

// getScratch borrows read scratch for a batch of n datagrams. A pooled
// scratch too small for n is left to the garbage collector.
func getScratch(n int) *readScratch {
	if s, _ := scratchPool.Get().(*readScratch); s != nil && len(s.hdrs) >= n {
		return s
	}
	s := &readScratch{
		hdrs:  make([]mmsghdr, n),
		iovs:  make([]syscall.Iovec, n),
		names: make([]syscall.RawSockaddrAny, n),
		slab:  make([]byte, n*maxDatagram),
	}
	for i := range s.hdrs {
		s.iovs[i].Base = &s.slab[i*maxDatagram]
		s.iovs[i].Len = maxDatagram
		s.hdrs[i].hdr.Iov = &s.iovs[i]
		s.hdrs[i].hdr.Iovlen = 1
	}
	return s
}

// mmsgConn drives one UDP socket with recvmmsg/sendmmsg. All direct
// syscalls run inside RawConn callbacks, which both serializes them with
// the runtime's fd lifecycle (no fd-reuse race with Close) and provides
// the blocking behaviour: returning false from a Read callback parks the
// goroutine on the netpoller until the socket is readable.
//
// The read callback's arguments and results (rn..rerr) and the last
// source address (src, srcName) are confined to the socket's single
// reader; the read scratch itself is borrowed per read. Write scratch has
// its own lock because burst flushes and direct sends (delayed
// deliveries firing off the timer wheel) may overlap.
type mmsgConn struct {
	c         *net.UDPConn
	raw       syscall.RawConn
	connected bool

	recv   func(fd uintptr) bool // m.recvmmsg, bound once per conn
	rn     int
	rblock bool
	rs     *readScratch
	rgot   int
	rerr   error

	src     *net.UDPAddr // last source address handed out
	srcName [syscall.SizeofSockaddrInet6]byte
	srcLen  int

	wmu    sync.Mutex
	whdrs  []mmsghdr
	wiovs  []syscall.Iovec
	wnames []syscall.RawSockaddrAny
}

func newFastConn(c *net.UDPConn, connected bool) (batchConn, bool) {
	raw, err := c.SyscallConn()
	if err != nil {
		return nil, false
	}
	m := &mmsgConn{c: c, raw: raw, connected: connected}
	m.recv = m.recvmmsg
	return m, true
}

// ReadBatch implements batchConn (blocking).
func (m *mmsgConn) ReadBatch(ms []ioMessage) (int, error) {
	return m.readBatch(ms, true)
}

// readBatch fills ms from the socket: blocking waits on the netpoller for
// the first datagram; non-blocking (the shard loops, which learn about
// readiness from their own epoll set) returns 0 on EAGAIN. Each datagram
// leaves in a pooled buffer of its size class; the read scratch goes back
// to its pool before readBatch returns.
func (m *mmsgConn) readBatch(ms []ioMessage, block bool) (int, error) {
	n := len(ms)
	if n == 0 {
		return 0, nil
	}
	m.rn, m.rblock, m.rgot, m.rerr = n, block, 0, nil
	err := m.raw.Read(m.recv)
	s, got, serr := m.rs, m.rgot, m.rerr
	m.rs, m.rerr = nil, nil
	if s != nil {
		defer scratchPool.Put(s)
	}
	if err != nil {
		return 0, err
	}
	if serr != nil {
		return 0, serr
	}
	for i := 0; i < got; i++ {
		k := int(s.hdrs[i].cnt)
		ms[i] = ioMessage{buf: copyOut(s.slab[i*maxDatagram:][:k]), n: k}
		if !m.connected {
			ms[i].addr = m.source(&s.names[i], s.hdrs[i].hdr.Namelen)
		}
	}
	return got, nil
}

// recvmmsg is readBatch's RawConn.Read callback. It borrows read scratch
// just before the syscall, and a blocking reader hands it back before it
// parks: a pump on an idle socket pins none.
func (m *mmsgConn) recvmmsg(fd uintptr) bool {
	if m.rs == nil {
		m.rs = getScratch(m.rn)
	}
	s, n := m.rs, m.rn
	hdrs := s.hdrs[:n]
	for i := range hdrs {
		h := &hdrs[i].hdr
		if m.connected {
			h.Name, h.Namelen = nil, 0
		} else {
			h.Name = (*byte)(unsafe.Pointer(&s.names[i]))
			h.Namelen = uint32(syscall.SizeofSockaddrAny)
		}
	}
	r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(n),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	switch errno {
	case 0:
		m.rgot = int(r1)
		return true
	case syscall.EAGAIN, syscall.EINTR:
		if m.rblock {
			scratchPool.Put(s)
			m.rs = nil
			return false // park on the netpoller until readable
		}
		return true
	default:
		m.rerr = os.NewSyscallError("recvmmsg", errno)
		return true
	}
}

// source returns a datagram's source address. A reader's peers rarely
// change between datagrams, so when the raw sockaddr bytes match the last
// ones the previous address is handed out again instead of a new one.
// Published addresses are never mutated, so sharing is safe.
func (m *mmsgConn) source(rsa *syscall.RawSockaddrAny, namelen uint32) *net.UDPAddr {
	if int(namelen) > len(m.srcName) {
		return sockaddrToUDP(rsa)
	}
	raw := unsafe.Slice((*byte)(unsafe.Pointer(rsa)), namelen)
	if m.src != nil && bytes.Equal(raw, m.srcName[:m.srcLen]) {
		return m.src
	}
	m.src = sockaddrToUDP(rsa)
	m.srcLen = copy(m.srcName[:], raw)
	return m.src
}

// WriteBatch implements batchConn. Partial sends without error retry the
// remainder; an error is charged to the first unsent message.
func (m *mmsgConn) WriteBatch(ms []ioMessage) (int, error) {
	n := len(ms)
	if n == 0 {
		return 0, nil
	}
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if cap(m.whdrs) < n {
		m.whdrs = make([]mmsghdr, n)
		m.wiovs = make([]syscall.Iovec, n)
		m.wnames = make([]syscall.RawSockaddrAny, n)
	}
	hdrs, iovs, names := m.whdrs[:n], m.wiovs[:n], m.wnames[:n]
	defer clear(iovs) // sent buffers return to the pool, not to this scratch
	for i := 0; i < n; i++ {
		iovs[i].Base = &(*ms[i].buf)[0]
		iovs[i].Len = uint64(ms[i].n)
		h := &hdrs[i]
		*h = mmsghdr{}
		h.hdr.Iov = &iovs[i]
		h.hdr.Iovlen = 1
		if !m.connected && ms[i].addr != nil {
			nl, ok := udpToSockaddr(&names[i], ms[i].addr)
			if !ok {
				return i, os.NewSyscallError("sendmmsg", syscall.EAFNOSUPPORT)
			}
			h.hdr.Name = (*byte)(unsafe.Pointer(&names[i]))
			h.hdr.Namelen = nl
		}
	}
	sent := 0
	for sent < n {
		var k int
		var serr error
		err := m.raw.Write(func(fd uintptr) bool {
			r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&hdrs[sent])), uintptr(n-sent),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			switch errno {
			case 0:
				k = int(r1)
				return true
			case syscall.EAGAIN, syscall.EINTR:
				return false // park until writable
			default:
				serr = os.NewSyscallError("sendmmsg", errno)
				return true
			}
		})
		if err != nil {
			runtime.KeepAlive(ms)
			return sent, err
		}
		if serr != nil {
			runtime.KeepAlive(ms)
			return sent, serr
		}
		if k <= 0 {
			break
		}
		sent += k
	}
	runtime.KeepAlive(ms)
	return sent, nil
}

// sockaddrToUDP converts a kernel-filled source address. Port bytes are
// read positionally, so the conversion is endianness-agnostic.
func sockaddrToUDP(rsa *syscall.RawSockaddrAny) *net.UDPAddr {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return &net.UDPAddr{
			IP:   net.IPv4(sa.Addr[0], sa.Addr[1], sa.Addr[2], sa.Addr[3]),
			Port: int(p[0])<<8 | int(p[1]),
		}
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		ip := make(net.IP, net.IPv6len)
		copy(ip, sa.Addr[:])
		return &net.UDPAddr{IP: ip, Port: int(p[0])<<8 | int(p[1])}
	}
	return nil
}

// udpToSockaddr fills a destination address for sendmmsg.
func udpToSockaddr(rsa *syscall.RawSockaddrAny, a *net.UDPAddr) (uint32, bool) {
	if ip4 := a.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(a.Port>>8), byte(a.Port)
		copy(sa.Addr[:], ip4)
		return uint32(syscall.SizeofSockaddrInet4), true
	}
	if ip6 := a.IP.To16(); ip6 != nil {
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(a.Port>>8), byte(a.Port)
		copy(sa.Addr[:], ip6)
		return uint32(syscall.SizeofSockaddrInet6), true
	}
	return 0, false
}
