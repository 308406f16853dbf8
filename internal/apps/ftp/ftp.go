// Package ftp implements the paper's FTP benchmark: a single large file
// transferred disk-to-disk over TCP, in both directions (Section 4.2). The
// benchmark is network-limited and sensitive to asymmetry, which is
// exactly what it is used to probe.
//
// The protocol is a minimal FTP-like stream: the client connects and sends
// a one-line command ("SEND <n>" to upload n bytes, "RECV <n>" to
// download), then the file body flows. Disk activity on the client is
// modelled by per-chunk sleeps at a 1997-laptop disk rate.
package ftp

import (
	"fmt"
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/transport"
)

// Defaults for the paper's configuration.
const (
	Port        = 21
	DefaultSize = 10 << 20 // the paper transfers a 10 MB file
	// DefaultDiskRate approximates the laptop's disk in bytes/second,
	// calibrated so the Ethernet reference transfer lands near the
	// paper's ≈20 s for 10 MB; the server's disk is assumed fast enough
	// to never be the bottleneck.
	DefaultDiskRate = 550e3
	// ChunkSize is the application's read/write unit.
	ChunkSize = 32 * 1024
)

// Direction of a transfer from the client's point of view.
type Direction int

// Transfer directions.
const (
	Send Direction = iota // client uploads (paper's "send")
	Recv                  // client downloads (paper's "recv", fetch)
)

func (d Direction) String() string {
	if d == Send {
		return "send"
	}
	return "recv"
}

// Serve runs the FTP server loop on stack; it accepts connections forever
// and services one command per connection.
func Serve(s *sim.Scheduler, stack *transport.TCPStack) {
	l, err := stack.Listen(Port)
	if err != nil {
		panic(fmt.Sprintf("ftp: listen: %v", err))
	}
	s.Spawn("ftp-server", func(p *sim.Proc) {
		for {
			conn, ok := l.Accept(p)
			if !ok {
				return
			}
			s.Spawn("ftp-conn", func(p *sim.Proc) { serveConn(p, conn) })
		}
	})
}

func serveConn(p *sim.Proc, c *transport.Conn) {
	defer c.Close()
	line, err := readLine(p, c)
	if err != nil {
		return
	}
	var n int
	if _, err := fmt.Sscanf(line, "SEND %d", &n); err == nil {
		sinkBytes(p, c, n, 0) // server disk is not the bottleneck
		c.Write(p, []byte("OK\n"))
		return
	}
	if _, err := fmt.Sscanf(line, "RECV %d", &n); err == nil {
		streamBytes(p, c, n, 0)
		return
	}
}

func readLine(p *sim.Proc, c *transport.Conn) (string, error) {
	var line []byte
	var b [1]byte
	for {
		if _, err := c.Read(p, b[:]); err != nil {
			return "", err
		}
		if b[0] == '\n' {
			return string(line), nil
		}
		line = append(line, b[0])
	}
}

// streamBytes writes n bytes in chunks, sleeping for disk reads at
// diskRate bytes/second (0 = no disk model).
func streamBytes(p *sim.Proc, c *transport.Conn, n int, diskRate float64) error {
	buf := make([]byte, ChunkSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	for sent := 0; sent < n; {
		chunk := n - sent
		if chunk > ChunkSize {
			chunk = ChunkSize
		}
		if diskRate > 0 {
			p.Sleep(time.Duration(float64(chunk) / diskRate * float64(time.Second)))
		}
		if _, err := c.Write(p, buf[:chunk]); err != nil {
			return err
		}
		sent += chunk
	}
	return nil
}

// sinkBytes reads n bytes, sleeping for disk writes at diskRate.
func sinkBytes(p *sim.Proc, c *transport.Conn, n int, diskRate float64) error {
	for got := 0; got < n; {
		chunk, err := c.Discard(p, ChunkSize)
		if err != nil {
			return err
		}
		got += chunk
		if diskRate > 0 {
			p.Sleep(time.Duration(float64(chunk) / diskRate * float64(time.Second)))
		}
	}
	return nil
}

// Transfer runs one benchmark transfer from the client and returns its
// elapsed time. It must be called from a simulation process.
func Transfer(p *sim.Proc, stack *transport.TCPStack, server packet.IPAddr, dir Direction, size int, diskRate float64) (time.Duration, error) {
	start := p.Now()
	c, err := stack.Dial(p, server, Port)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	switch dir {
	case Send:
		if _, err := c.Write(p, []byte(fmt.Sprintf("SEND %d\n", size))); err != nil {
			return 0, err
		}
		if err := streamBytes(p, c, size, diskRate); err != nil {
			return 0, err
		}
		// Wait for the server's OK so the elapsed time covers delivery.
		if _, err := readLine(p, c); err != nil {
			return 0, err
		}
	case Recv:
		if _, err := c.Write(p, []byte(fmt.Sprintf("RECV %d\n", size))); err != nil {
			return 0, err
		}
		if err := sinkBytes(p, c, size, diskRate); err != nil {
			return 0, err
		}
	}
	return p.Now().Sub(start), nil
}
