//go:build linux && (amd64 || arm64)

// Linux fast path: recvmmsg/sendmmsg move a whole slice of datagrams per
// syscall. The issue's suggested golang.org/x/net ReadBatch/WriteBatch is
// not available to this zero-dependency module, so the same two syscalls
// are driven directly through syscall.RawConn; the build tag limits the
// hand-laid mmsghdr layout to the 64-bit ABIs it matches (32-bit Linux
// takes the portable pktio like every other platform).

package livewire

import (
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

// mmsgConn drives one UDP socket with recvmmsg/sendmmsg. All direct
// syscalls run inside RawConn callbacks, which both serializes them with
// the runtime's fd lifecycle (no fd-reuse race with Close) and provides
// the blocking behaviour: returning false from a Read callback parks the
// goroutine on the netpoller until the socket is readable.
//
// Read scratch (rhdrs/riovs/rnames) and the read callback's arguments
// and results (rms..rerr) are confined to the socket's single reader.
// Write scratch has its own lock because burst flushes and direct sends
// (delayed deliveries firing off the timer wheel) may overlap.
type mmsgConn struct {
	c         *net.UDPConn
	raw       syscall.RawConn
	connected bool

	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames []syscall.RawSockaddrAny
	recv   func(fd uintptr) bool // m.recvmmsg, bound once per conn
	rms    []ioMessage
	rblock bool
	rgot   int
	rerr   error

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
// readiness from their own epoll set) returns 0 on EAGAIN.
func (m *mmsgConn) readBatch(ms []ioMessage, block bool) (int, error) {
	n := len(ms)
	if n == 0 {
		return 0, nil
	}
	if cap(m.rhdrs) < n {
		m.rhdrs = make([]mmsghdr, n)
		m.riovs = make([]syscall.Iovec, n)
		m.rnames = make([]syscall.RawSockaddrAny, n)
	}
	m.rms, m.rblock, m.rgot, m.rerr = ms, block, 0, nil
	err := m.raw.Read(m.recv)
	got, serr := m.rgot, m.rerr
	m.rms, m.rerr = nil, nil
	clear(m.riovs[:n]) // the scratch must not keep handed-off buffers alive
	if err != nil {
		return 0, err
	}
	if serr != nil {
		return 0, serr
	}
	names := m.rnames[:n]
	for i := 0; i < got; i++ {
		ms[i].n = int(m.rhdrs[i].cnt)
		if m.connected {
			ms[i].addr = nil
		} else {
			ms[i].addr = sockaddrToUDP(&names[i])
		}
	}
	return got, nil
}

// recvmmsg is readBatch's RawConn.Read callback. Empty slots take a
// pooled buffer just before the syscall, and a blocking reader hands
// every buffer back before it parks: a pump on an idle socket pins none.
func (m *mmsgConn) recvmmsg(fd uintptr) bool {
	ms := m.rms
	n := len(ms)
	hdrs, iovs, names := m.rhdrs[:n], m.riovs[:n], m.rnames[:n]
	for i := 0; i < n; i++ {
		if ms[i].buf == nil {
			ms[i].buf = getBuf()
		}
		iovs[i].Base = &(*ms[i].buf)[0]
		iovs[i].Len = uint64(len(*ms[i].buf))
		h := &hdrs[i]
		*h = mmsghdr{}
		h.hdr.Iov = &iovs[i]
		h.hdr.Iovlen = 1
		if !m.connected {
			h.hdr.Name = (*byte)(unsafe.Pointer(&names[i]))
			h.hdr.Namelen = uint32(syscall.SizeofSockaddrAny)
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
			releaseSlots(ms)
			clear(iovs)
			return false // park on the netpoller until readable
		}
		return true
	default:
		m.rerr = os.NewSyscallError("recvmmsg", errno)
		return true
	}
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
