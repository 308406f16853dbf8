// Package nfs implements the paper's third benchmark substrate: an
// NFS-like remote filesystem over UDP (Section 4.2) and the Andrew
// benchmark that runs on it. The protocol has the two NFS traffic classes
// the paper calls out — small status-check messages (GETATTR, LOOKUP,
// READDIR) and larger data exchanges (READ, WRITE) — a retransmitting
// hard-mount client with attribute and data caches (so ScanDir and ReadAll
// run warm and emit only status checks), and an in-memory server.
package nfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/transport"
)

// Port is the NFS service port.
const Port = 2049

// Procedure numbers.
const (
	procNull uint8 = iota
	procGetattr
	procLookup
	procMkdir
	procCreate
	procRead
	procWrite
	procReaddir
	procRemove
	procRename
	procSetattr
)

// Message types.
const (
	msgCall  uint8 = 0
	msgReply uint8 = 1
)

// Reply status codes.
const (
	statOK      uint8 = 0
	statNoEnt   uint8 = 2
	statExist   uint8 = 17
	statNotDir  uint8 = 20
	statBadProc uint8 = 22
	statTooBig  uint8 = 27
)

// BlockSize is the READ/WRITE transfer size (a conservative early-NFS
// rsize/wsize, friendly to lossy links).
const BlockSize = 1024

// Attr is a file attribute record (the payload of status checks).
type Attr struct {
	FH    uint32
	IsDir bool
	Size  uint32
	Mtime int64
}

const attrLen = 4 + 1 + 4 + 8

func putAttr(b []byte, a Attr) {
	binary.BigEndian.PutUint32(b[0:4], a.FH)
	if a.IsDir {
		b[4] = 1
	} else {
		b[4] = 0
	}
	binary.BigEndian.PutUint32(b[5:9], a.Size)
	binary.BigEndian.PutUint64(b[9:17], uint64(a.Mtime))
}

func getAttr(b []byte) Attr {
	return Attr{
		FH:    binary.BigEndian.Uint32(b[0:4]),
		IsDir: b[4] == 1,
		Size:  binary.BigEndian.Uint32(b[5:9]),
		Mtime: int64(binary.BigEndian.Uint64(b[9:17])),
	}
}

// fsNode is one server-side file or directory.
type fsNode struct {
	attr     Attr
	data     []byte
	children map[string]uint32
}

// Server is the in-memory NFS server.
type Server struct {
	s      *sim.Scheduler
	sock   *transport.UDPSocket
	nodes  map[uint32]*fsNode
	nextFH uint32

	// Calls counts RPCs served, by procedure.
	Calls [11]int
}

// RootFH is the well-known root directory handle.
const RootFH = 1

// NewServer creates the filesystem and binds the NFS port.
func NewServer(s *sim.Scheduler, stack *transport.UDPStack) (*Server, error) {
	sock, err := stack.Bind(Port)
	if err != nil {
		return nil, err
	}
	srv := &Server{s: s, sock: sock, nodes: map[uint32]*fsNode{}, nextFH: RootFH + 1}
	srv.nodes[RootFH] = &fsNode{
		attr:     Attr{FH: RootFH, IsDir: true},
		children: map[string]uint32{},
	}
	s.Spawn("nfs-server", srv.loop)
	return srv, nil
}

func (srv *Server) loop(p *sim.Proc) {
	for {
		dg, ok := srv.sock.Recv(p)
		if !ok {
			return
		}
		resp := srv.handle(dg.Data)
		srv.sock.Release(dg) // handle copied whatever it keeps
		if resp != nil {
			srv.sock.SendDatagram(dg.From, dg.FromPort, resp)
		}
	}
}

// growZeroed extends a file's contents b to length n with zeros. An
// array that must grow doubles, so a file written block by block copies
// each byte O(1) times; append's growth for large slices (1.25x) made the
// server's files cost about five times their final size.
func growZeroed(b []byte, n int) []byte {
	if n > cap(b) {
		grown := make([]byte, n, max(n, 2*cap(b)))
		copy(grown, b)
		return grown
	}
	old := len(b)
	b = b[:n]
	clear(b[old:]) // a truncation may have left old bytes here
	return b
}

// handle services one call and returns the reply built in place in a
// NewDatagram buffer; requests are idempotent so duplicate retransmissions
// are harmless. Nothing handle keeps may alias req, whose buffer the
// server releases afterwards.
func (srv *Server) handle(req []byte) []byte {
	if len(req) < 6 || req[4] != msgCall {
		return nil
	}
	xid := binary.BigEndian.Uint32(req[0:4])
	proc := req[5]
	body := req[6:]
	if int(proc) < len(srv.Calls) {
		srv.Calls[proc]++
	}

	// message returns a reply datagram with room for n payload bytes
	// after the 6-byte header.
	message := func(status uint8, n int) (buf, payload []byte) {
		buf, out := srv.sock.NewDatagram(6 + n)
		binary.BigEndian.PutUint32(out[0:4], xid)
		out[4] = msgReply
		out[5] = status
		return buf, out[6:]
	}
	reply := func(status uint8, payload []byte) []byte {
		buf, out := message(status, len(payload))
		copy(out, payload)
		return buf
	}
	attrReply := func(a Attr) []byte {
		buf, out := message(statOK, attrLen)
		putAttr(out, a)
		return buf
	}

	switch proc {
	case procNull:
		return reply(statOK, nil)

	case procGetattr:
		if len(body) < 4 {
			return reply(statBadProc, nil)
		}
		n, ok := srv.nodes[binary.BigEndian.Uint32(body[0:4])]
		if !ok {
			return reply(statNoEnt, nil)
		}
		return attrReply(n.attr)

	case procLookup:
		dir, name, ok := srv.dirAndName(body)
		if !ok {
			return reply(statNotDir, nil)
		}
		fh, ok := dir.children[name]
		if !ok {
			return reply(statNoEnt, nil)
		}
		return attrReply(srv.nodes[fh].attr)

	case procMkdir, procCreate:
		dir, name, ok := srv.dirAndName(body)
		if !ok {
			return reply(statNotDir, nil)
		}
		if fh, exists := dir.children[name]; exists {
			// Idempotent: re-creating returns the existing node.
			return attrReply(srv.nodes[fh].attr)
		}
		fh := srv.nextFH
		srv.nextFH++
		node := &fsNode{attr: Attr{FH: fh, IsDir: proc == procMkdir, Mtime: int64(srv.s.Now())}}
		if node.attr.IsDir {
			node.children = map[string]uint32{}
		}
		srv.nodes[fh] = node
		dir.children[name] = fh
		dirNode := dir
		dirNode.attr.Mtime = int64(srv.s.Now())
		return attrReply(node.attr)

	case procRead:
		if len(body) < 10 {
			return reply(statBadProc, nil)
		}
		n, ok := srv.nodes[binary.BigEndian.Uint32(body[0:4])]
		if !ok || n.attr.IsDir {
			return reply(statNoEnt, nil)
		}
		off := int(binary.BigEndian.Uint32(body[4:8]))
		count := int(binary.BigEndian.Uint16(body[8:10]))
		if count > BlockSize {
			return reply(statTooBig, nil)
		}
		if off > len(n.data) {
			off = len(n.data)
		}
		end := off + count
		if end > len(n.data) {
			end = len(n.data)
		}
		return reply(statOK, n.data[off:end])

	case procWrite:
		if len(body) < 10 {
			return reply(statBadProc, nil)
		}
		n, ok := srv.nodes[binary.BigEndian.Uint32(body[0:4])]
		if !ok || n.attr.IsDir {
			return reply(statNoEnt, nil)
		}
		off := int(binary.BigEndian.Uint32(body[4:8]))
		dlen := int(binary.BigEndian.Uint16(body[8:10]))
		if dlen > BlockSize || len(body) < 10+dlen {
			return reply(statTooBig, nil)
		}
		data := body[10 : 10+dlen]
		if need := off + dlen; need > len(n.data) {
			n.data = growZeroed(n.data, need)
		}
		copy(n.data[off:], data)
		n.attr.Size = uint32(len(n.data))
		n.attr.Mtime = int64(srv.s.Now())
		return attrReply(n.attr)

	case procRemove:
		dir, name, ok := srv.dirAndName(body)
		if !ok {
			return reply(statNotDir, nil)
		}
		fh, exists := dir.children[name]
		if !exists {
			// Idempotent under retransmission: a repeated REMOVE whose
			// first execution succeeded reports success again.
			return reply(statOK, nil)
		}
		if n := srv.nodes[fh]; n.attr.IsDir && len(n.children) > 0 {
			return reply(statNotDir, nil) // non-empty directory
		}
		delete(srv.nodes, fh)
		delete(dir.children, name)
		dir.attr.Mtime = int64(srv.s.Now())
		return reply(statOK, nil)

	case procRename:
		// Arguments: two fh/name groups back to back (from, then to).
		from, fromName, ok := srv.dirAndName(body)
		if !ok {
			return reply(statNotDir, nil)
		}
		rest := body[5+len(fromName):]
		to, toName, ok := srv.dirAndName(rest)
		if !ok {
			return reply(statNotDir, nil)
		}
		fh, exists := from.children[fromName]
		if !exists {
			// Idempotent: the previous attempt may have completed.
			if _, already := to.children[toName]; already {
				return reply(statOK, nil)
			}
			return reply(statNoEnt, nil)
		}
		delete(from.children, fromName)
		to.children[toName] = fh
		now := int64(srv.s.Now())
		from.attr.Mtime = now
		to.attr.Mtime = now
		return reply(statOK, nil)

	case procSetattr:
		// Arguments: fh, newSize (truncation/extension is the only
		// settable attribute this substrate needs).
		if len(body) < 8 {
			return reply(statBadProc, nil)
		}
		n, ok := srv.nodes[binary.BigEndian.Uint32(body[0:4])]
		if !ok || n.attr.IsDir {
			return reply(statNoEnt, nil)
		}
		size := int(binary.BigEndian.Uint32(body[4:8]))
		switch {
		case size < len(n.data):
			n.data = n.data[:size]
		case size > len(n.data):
			n.data = growZeroed(n.data, size)
		}
		n.attr.Size = uint32(size)
		n.attr.Mtime = int64(srv.s.Now())
		return attrReply(n.attr)

	case procReaddir:
		if len(body) < 4 {
			return reply(statBadProc, nil)
		}
		n, ok := srv.nodes[binary.BigEndian.Uint32(body[0:4])]
		if !ok || !n.attr.IsDir {
			return reply(statNotDir, nil)
		}
		var out []byte
		for name, fh := range n.children {
			out = binary.BigEndian.AppendUint32(out, fh)
			out = append(out, uint8(len(name)))
			out = append(out, name...)
			if len(out) > transport.MaxDatagram-64 {
				break // directory listing truncation, as real READDIR pages
			}
		}
		return reply(statOK, out)
	}
	return reply(statBadProc, nil)
}

// dirAndName parses "fh, namelen, name" arguments.
func (srv *Server) dirAndName(body []byte) (*fsNode, string, bool) {
	if len(body) < 5 {
		return nil, "", false
	}
	dir, ok := srv.nodes[binary.BigEndian.Uint32(body[0:4])]
	if !ok || !dir.attr.IsDir {
		return nil, "", false
	}
	nameLen := int(body[4])
	if len(body) < 5+nameLen {
		return nil, "", false
	}
	return dir, string(body[5 : 5+nameLen]), true
}

// NodeCount reports how many filesystem objects the server holds.
func (srv *Server) NodeCount() int { return len(srv.nodes) }

// Client-side errors.
var (
	ErrNoEnt  = errors.New("nfs: no such file or directory")
	ErrExists = errors.New("nfs: file exists")
	ErrProto  = errors.New("nfs: protocol error")
)

// AttrTTL is the client attribute-cache lifetime.
const AttrTTL = 3 * time.Second

// Client is a hard-mount NFS client with attribute and data caches.
//
// A reply body returned by the client's RPC layer lies in the reply
// datagram's network buffer, which stays valid only until the client's
// next RPC: that call releases it for reuse. Every exported method copies
// or decodes what it keeps before returning, so the contract binds only
// code inside this package.
type Client struct {
	s      *sim.Scheduler
	stack  *transport.UDPStack
	sock   *transport.UDPSocket
	server packet.IPAddr
	xid    uint32
	reply  transport.Datagram // the last reply, released by the next call

	// MaxOutstanding is the number of concurrent data RPCs ReadFile and
	// WriteFile may keep in flight, like the BSD client's biod daemons.
	// The default of 1 is strict stop-and-wait.
	MaxOutstanding int

	attrCache map[uint32]cachedAttr
	dataCache map[uint32][]byte
	// readBufs holds, per file handle, the buffer ReadFile last filled
	// from the server, refilled by its next fetch of that file when big
	// enough. Only ReadFile's own buffers go here: WriteFile caches the
	// caller's data, which may alias other files' (synrgen's contents are
	// windows of one shared pattern), so it is never written over.
	readBufs map[uint32][]byte

	// Stats.
	RPCs        int
	Retransmits int
	CacheHits   int
}

type cachedAttr struct {
	attr Attr
	at   sim.Time
}

// NewClient prepares a client socket toward server.
func NewClient(s *sim.Scheduler, stack *transport.UDPStack, server packet.IPAddr) (*Client, error) {
	sock, err := stack.Bind(0)
	if err != nil {
		return nil, err
	}
	return &Client{
		s: s, stack: stack, sock: sock, server: server,
		attrCache: map[uint32]cachedAttr{},
		dataCache: map[uint32][]byte{},
		readBufs:  map[uint32][]byte{},
	}, nil
}

// writeWindowed is WriteFile keeping up to MaxOutstanding RPCs in flight.
func (c *Client) writeWindowed(p *sim.Proc, fh uint32, data []byte) error {
	type job struct{ off, end int }
	var jobs []job
	for off := 0; off < len(data); off += BlockSize {
		end := off + BlockSize
		if end > len(data) {
			end = len(data)
		}
		jobs = append(jobs, job{off, end})
	}
	workers := c.MaxOutstanding
	if workers > len(jobs) {
		workers = len(jobs)
	}
	next := 0
	var firstErr error
	wg := sim.NewWaitGroup(c.s)
	for w := 0; w < workers; w++ {
		wg.Go("nfs-biod", func(wp *sim.Proc) {
			// Each biod is its own RPC endpoint with its own socket, so
			// replies demultiplex by port rather than by shared state.
			sock, err := c.stack.Bind(0)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			defer sock.Close()
			biod := &Client{s: c.s, stack: c.stack, sock: sock, server: c.server}
			defer func() {
				c.RPCs += biod.RPCs
				c.Retransmits += biod.Retransmits
				sock.Release(biod.reply)
			}()
			for {
				if firstErr != nil || next >= len(jobs) {
					return
				}
				j := jobs[next]
				next++
				chunk := data[j.off:j.end]
				args := ioArgs(fh, j.off, len(chunk))
				status, _, err := biod.call(wp, procWrite, args[:], chunk)
				if err == nil {
					err = statusErr(status)
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}
		})
	}
	wg.Wait(p)
	if firstErr != nil {
		return firstErr
	}
	c.dataCache[fh] = data
	return nil
}

// call performs one RPC with hard-mount retry semantics: an initial 700 ms
// timeout backing off to a 10 s cap, retrying until answered. The call
// message is the 6-byte header, args, then data, written straight into
// the datagram. A sent datagram belongs to the network, so each attempt
// builds its own from args and data, which stay the caller's. The
// returned body lies in the reply datagram and is valid until the
// client's next call, which releases it.
func (c *Client) call(p *sim.Proc, proc uint8, args, data []byte) (uint8, []byte, error) {
	c.sock.Release(c.reply)
	c.reply = transport.Datagram{}
	c.xid++
	xid := c.xid
	timeout := 700 * time.Millisecond
	c.RPCs++
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.Retransmits++
		}
		buf, req := c.sock.NewDatagram(6 + len(args) + len(data))
		binary.BigEndian.PutUint32(req[0:4], xid)
		req[4] = msgCall
		req[5] = proc
		copy(req[6+copy(req[6:], args):], data)
		c.sock.SendDatagram(c.server, Port, buf)
		deadline := p.Now().Add(timeout)
		for {
			remaining := deadline.Sub(p.Now())
			dg, ok, timedOut := c.sock.RecvTimeout(p, remaining)
			if timedOut {
				break
			}
			if !ok {
				return 0, nil, ErrProto
			}
			if len(dg.Data) < 6 || dg.Data[4] != msgReply ||
				binary.BigEndian.Uint32(dg.Data[0:4]) != xid {
				c.sock.Release(dg) // garbage, or a stale reply to an earlier retransmission
				continue
			}
			c.reply = dg
			return dg.Data[5], dg.Data[6:], nil
		}
		timeout *= 2
		if timeout > 10*time.Second {
			timeout = 10 * time.Second
		}
	}
}

func statusErr(status uint8) error {
	switch status {
	case statOK:
		return nil
	case statNoEnt:
		return ErrNoEnt
	case statExist:
		return ErrExists
	default:
		return fmt.Errorf("nfs: status %d", status)
	}
}

// fhArgs encodes a file-handle argument.
func fhArgs(fh uint32) [4]byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], fh)
	return b
}

// ioArgs encodes READ and WRITE arguments: fh, offset, count.
func ioArgs(fh uint32, off, count int) [10]byte {
	var b [10]byte
	binary.BigEndian.PutUint32(b[0:4], fh)
	binary.BigEndian.PutUint32(b[4:8], uint32(off))
	binary.BigEndian.PutUint16(b[8:10], uint16(count))
	return b
}

func nameBody(dir uint32, name string) []byte {
	if len(name) > 255 {
		panic("nfs: name too long")
	}
	b := make([]byte, 5+len(name))
	binary.BigEndian.PutUint32(b[0:4], dir)
	b[4] = uint8(len(name))
	copy(b[5:], name)
	return b
}

// Getattr returns a file's attributes, from cache when fresh.
func (c *Client) Getattr(p *sim.Proc, fh uint32) (Attr, error) {
	if ca, ok := c.attrCache[fh]; ok && p.Now().Sub(ca.at) < AttrTTL {
		c.CacheHits++
		return ca.attr, nil
	}
	args := fhArgs(fh)
	status, body, err := c.call(p, procGetattr, args[:], nil)
	if err != nil {
		return Attr{}, err
	}
	if err := statusErr(status); err != nil {
		return Attr{}, err
	}
	if len(body) < attrLen {
		return Attr{}, ErrProto
	}
	a := getAttr(body)
	c.attrCache[fh] = cachedAttr{attr: a, at: p.Now()}
	return a, nil
}

// Lookup resolves name within dir.
func (c *Client) Lookup(p *sim.Proc, dir uint32, name string) (Attr, error) {
	status, body, err := c.call(p, procLookup, nameBody(dir, name), nil)
	if err != nil {
		return Attr{}, err
	}
	if err := statusErr(status); err != nil {
		return Attr{}, err
	}
	if len(body) < attrLen {
		return Attr{}, ErrProto
	}
	a := getAttr(body)
	c.attrCache[a.FH] = cachedAttr{attr: a, at: p.Now()}
	return a, nil
}

func (c *Client) makeNode(p *sim.Proc, proc uint8, dir uint32, name string) (Attr, error) {
	status, body, err := c.call(p, proc, nameBody(dir, name), nil)
	if err != nil {
		return Attr{}, err
	}
	if err := statusErr(status); err != nil {
		return Attr{}, err
	}
	if len(body) < attrLen {
		return Attr{}, ErrProto
	}
	a := getAttr(body)
	c.attrCache[a.FH] = cachedAttr{attr: a, at: p.Now()}
	return a, nil
}

// Mkdir creates a directory.
func (c *Client) Mkdir(p *sim.Proc, dir uint32, name string) (Attr, error) {
	return c.makeNode(p, procMkdir, dir, name)
}

// Create creates a file.
func (c *Client) Create(p *sim.Proc, dir uint32, name string) (Attr, error) {
	return c.makeNode(p, procCreate, dir, name)
}

// WriteFile writes data through to the server in BlockSize chunks and
// updates the local data cache. With MaxOutstanding > 1 blocks go out
// concurrently (write-behind). The cache keeps data itself, not a copy:
// the caller hands data over and must not modify it afterwards.
func (c *Client) WriteFile(p *sim.Proc, fh uint32, data []byte) error {
	if c.MaxOutstanding > 1 && len(data) > BlockSize {
		return c.writeWindowed(p, fh, data)
	}
	for off := 0; off < len(data); off += BlockSize {
		end := off + BlockSize
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		args := ioArgs(fh, off, len(chunk))
		status, reply, err := c.call(p, procWrite, args[:], chunk)
		if err != nil {
			return err
		}
		if err := statusErr(status); err != nil {
			return err
		}
		if len(reply) >= attrLen {
			a := getAttr(reply)
			c.attrCache[fh] = cachedAttr{attr: a, at: p.Now()}
		}
	}
	c.dataCache[fh] = data
	return nil
}

// ReadFile returns a file's contents. A cached copy is revalidated with a
// single status check (GETATTR against cached mtime); on a miss the data
// moves in BlockSize READ exchanges. This is what makes the warm-cache
// phases of the Andrew benchmark status-check-only.
//
// A miss fills a buffer the client keeps for fh, reused by its next miss
// on fh whenever it is large enough. The returned slice is therefore
// valid, and must not be modified, until the next ReadFile of fh; a
// caller that keeps the contents longer copies them (and must copy them
// before handing them to WriteFile, which caches what it is given).
func (c *Client) ReadFile(p *sim.Proc, fh uint32) ([]byte, error) {
	attr, err := c.Getattr(p, fh)
	if err != nil {
		return nil, err
	}
	if cached, ok := c.dataCache[fh]; ok && uint32(len(cached)) == attr.Size {
		c.CacheHits++
		return cached, nil
	}
	// Grow as append does, with headroom, since files mostly grow.
	data := slices.Grow(c.readBufs[fh][:0], int(attr.Size))
	for off := 0; off < int(attr.Size); off += BlockSize {
		count := int(attr.Size) - off
		if count > BlockSize {
			count = BlockSize
		}
		args := ioArgs(fh, off, count)
		status, reply, err := c.call(p, procRead, args[:], nil)
		if err != nil {
			return nil, err
		}
		if err := statusErr(status); err != nil {
			return nil, err
		}
		data = append(data, reply...)
	}
	c.readBufs[fh] = data
	c.dataCache[fh] = data
	return data, nil
}

// DirEntry is one READDIR result.
type DirEntry struct {
	FH   uint32
	Name string
}

// Readdir lists a directory.
func (c *Client) Readdir(p *sim.Proc, dir uint32) ([]DirEntry, error) {
	args := fhArgs(dir)
	status, body, err := c.call(p, procReaddir, args[:], nil)
	if err != nil {
		return nil, err
	}
	if err := statusErr(status); err != nil {
		return nil, err
	}
	var out []DirEntry
	for len(body) >= 5 {
		fh := binary.BigEndian.Uint32(body[0:4])
		n := int(body[4])
		if len(body) < 5+n {
			return nil, ErrProto
		}
		out = append(out, DirEntry{FH: fh, Name: string(body[5 : 5+n])})
		body = body[5+n:]
	}
	return out, nil
}

// Remove deletes a name from a directory (and any cache entries for it).
func (c *Client) Remove(p *sim.Proc, dir uint32, name string) error {
	status, _, err := c.call(p, procRemove, nameBody(dir, name), nil)
	if err != nil {
		return err
	}
	return statusErr(status)
}

// Rename moves a name between directories.
func (c *Client) Rename(p *sim.Proc, fromDir uint32, fromName string, toDir uint32, toName string) error {
	status, _, err := c.call(p, procRename, nameBody(fromDir, fromName), nameBody(toDir, toName))
	if err != nil {
		return err
	}
	return statusErr(status)
}

// Truncate sets a file's size, extending with zeros or discarding the
// tail, and refreshes the attribute cache.
func (c *Client) Truncate(p *sim.Proc, fh uint32, size uint32) (Attr, error) {
	var args [8]byte
	binary.BigEndian.PutUint32(args[0:4], fh)
	binary.BigEndian.PutUint32(args[4:8], size)
	status, reply, err := c.call(p, procSetattr, args[:], nil)
	if err != nil {
		return Attr{}, err
	}
	if err := statusErr(status); err != nil {
		return Attr{}, err
	}
	if len(reply) < attrLen {
		return Attr{}, ErrProto
	}
	a := getAttr(reply)
	c.attrCache[fh] = cachedAttr{attr: a, at: p.Now()}
	delete(c.dataCache, fh) // cached contents are stale after truncation
	return a, nil
}

// FlushFile drops one file's cache entries, forcing the next read to
// revalidate and fetch from the server.
func (c *Client) FlushFile(fh uint32) {
	delete(c.attrCache, fh)
	delete(c.dataCache, fh)
}

// FlushCaches empties the client caches (the paper flushes the NFS cache
// before each Andrew trial).
func (c *Client) FlushCaches() {
	c.attrCache = map[uint32]cachedAttr{}
	c.dataCache = map[uint32][]byte{}
}
