// Package web implements the paper's World Wide Web benchmark
// (Section 4.2): reference traces of five users performing search tasks,
// replayed as fast as possible against a private server holding every
// referenced object. The client models Mosaic v2.6 behaviour: one HTTP/1.0
// style connection per object (no keep-alive) plus per-object client
// processing (parse/render) time.
package web

import (
	"fmt"
	"math/rand"
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/transport"
)

// Port is the private web server's port.
const Port = 80

// Page is one page visit: an HTML document plus its inline objects.
type Page struct {
	HTMLSize int
	Objects  []int // inline object sizes
}

// UserTrace is the reference trace of one user's search task.
type UserTrace struct {
	User  string
	Pages []Page
}

// Requests counts the HTTP requests a trace will issue.
func (u UserTrace) Requests() int {
	n := 0
	for _, pg := range u.Pages {
		n += 1 + len(pg.Objects)
	}
	return n
}

// TotalBytes sums all object sizes in a trace.
func (u UserTrace) TotalBytes() int {
	n := 0
	for _, pg := range u.Pages {
		n += pg.HTMLSize
		for _, o := range pg.Objects {
			n += o
		}
	}
	return n
}

// GenTraces synthesizes the five users' search-task traces. Search tasks
// are many small pages: result listings with a few inline images. The
// workload is deterministic in rng.
func GenTraces(rng *rand.Rand) []UserTrace {
	users := []string{"u1", "u2", "u3", "u4", "u5"}
	traces := make([]UserTrace, 0, len(users))
	for _, name := range users {
		pages := 30 + rng.Intn(8) // ≈34 pages per search task
		ut := UserTrace{User: name}
		for i := 0; i < pages; i++ {
			pg := Page{HTMLSize: 2048 + rng.Intn(10*1024)}
			for j := rng.Intn(5); j > 0; j-- {
				pg.Objects = append(pg.Objects, 1024+rng.Intn(7*1024))
			}
			ut.Pages = append(ut.Pages, pg)
		}
		traces = append(traces, ut)
	}
	return traces
}

// Serve runs the private web server: it answers "GET <size>" requests with
// that many bytes (all URLs were rewritten to the private server, so the
// requested size is the object identity the benchmark needs).
func Serve(s *sim.Scheduler, stack *transport.TCPStack) {
	l, err := stack.Listen(Port)
	if err != nil {
		panic(fmt.Sprintf("web: listen: %v", err))
	}
	srv := &server{}
	s.Spawn("web-server", func(p *sim.Proc) {
		for {
			conn, ok := l.Accept(p)
			if !ok {
				return
			}
			s.Spawn("web-conn", func(p *sim.Proc) { srv.serveConn(p, conn) })
		}
	})
}

// server is one web server's state shared by its connections.
type server struct {
	// pattern holds the body bytes 'a'+i%26, as long as the largest
	// body served so far. Growing it allocates a new array and never
	// rewrites the old one, which a connection may still be writing.
	pattern []byte
}

// body returns the first size bytes of the server's body pattern.
func (srv *server) body(size int) []byte {
	if len(srv.pattern) < size {
		srv.pattern = make([]byte, size)
		for i := range srv.pattern {
			srv.pattern[i] = byte('a' + i%26)
		}
	}
	return srv.pattern[:size]
}

func (srv *server) serveConn(p *sim.Proc, c *transport.Conn) {
	defer c.Close()
	// The request line is read 64 bytes at a time and given up on past
	// 512 bytes, so it never outgrows this connection's buffer.
	var req [512 + 64]byte
	n := 0
	for {
		k, err := c.Read(p, req[n:n+64])
		if err != nil {
			return
		}
		n += k
		if n > 0 && req[n-1] == '\n' {
			break
		}
		if n > 512 {
			return
		}
	}
	var size int
	if _, err := fmt.Sscanf(string(req[:n]), "GET %d", &size); err != nil {
		return
	}
	c.Write(p, []byte(fmt.Sprintf("HTTP/1.0 200 OK\nContent-Length: %d\n\n", size)))
	c.Write(p, srv.body(size))
}

// fetch retrieves one object over a fresh connection, Mosaic-style.
func fetch(p *sim.Proc, stack *transport.TCPStack, server packet.IPAddr, size int) error {
	c, err := stack.Dial(p, server, Port)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Write(p, []byte(fmt.Sprintf("GET %d\n", size))); err != nil {
		return err
	}
	// Read header line-by-line until the blank line, then the body.
	var b [1]byte
	for lines := 0; lines < 3; {
		if _, err := c.Read(p, b[:]); err != nil {
			return err
		}
		if b[0] == '\n' {
			lines++
		}
	}
	for got := 0; got < size; {
		n, err := c.Discard(p, size-got)
		if err != nil {
			return err
		}
		got += n
	}
	return nil
}

// Config parameterizes a benchmark run.
type Config struct {
	// ProcMean is the mean per-object client processing (parse/render)
	// time; actual values draw uniformly in [0.6, 1.4]×ProcMean.
	ProcMean time.Duration
	// RNG drives processing-time jitter (the workload rng, independent of
	// the network).
	RNG *rand.Rand
}

// DefaultProcMean approximates Mosaic's per-object processing on a 75 MHz
// 486: a couple hundred milliseconds.
const DefaultProcMean = 250 * time.Millisecond

// Run replays all traces sequentially and returns the elapsed time, the
// paper's reported metric.
func Run(p *sim.Proc, stack *transport.TCPStack, server packet.IPAddr, traces []UserTrace, cfg Config) (time.Duration, error) {
	if cfg.ProcMean == 0 {
		cfg.ProcMean = DefaultProcMean
	}
	if cfg.RNG == nil {
		panic("web: Config.RNG is required")
	}
	start := p.Now()
	proc := func() {
		lo := 0.6 * float64(cfg.ProcMean)
		hi := 1.4 * float64(cfg.ProcMean)
		p.Sleep(time.Duration(lo + cfg.RNG.Float64()*(hi-lo)))
	}
	for _, ut := range traces {
		for _, pg := range ut.Pages {
			if err := fetch(p, stack, server, pg.HTMLSize); err != nil {
				return 0, fmt.Errorf("web: %s html: %w", ut.User, err)
			}
			proc()
			for _, obj := range pg.Objects {
				if err := fetch(p, stack, server, obj); err != nil {
					return 0, fmt.Errorf("web: %s object: %w", ut.User, err)
				}
				proc()
			}
		}
	}
	return p.Now().Sub(start), nil
}
