package nfs

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
	"tracemod/internal/transport"
)

var (
	clientIP = packet.IP4(10, 9, 0, 1)
	serverIP = packet.IP4(10, 9, 0, 2)
	netMask  = packet.IP4(255, 255, 255, 0)
)

// buildLAN assembles a two-node Ethernet without importing the scenario
// package (which itself depends on this one for its interferers).
func buildLAN(s *sim.Scheduler) (client, server *simnet.Node) {
	em := simnet.NewMedium(s, "nfs-test-ether", simnet.Ethernet10())
	client = simnet.NewNode(s, "client")
	client.AttachNIC(em, clientIP, netMask)
	server = simnet.NewNode(s, "server")
	server.AttachNIC(em, serverIP, netMask)
	return client, server
}

// setup builds client+server on an isolated Ethernet.
func setup(t *testing.T, seed int64) (*sim.Scheduler, *Client, *Server) {
	t.Helper()
	s := sim.New(seed)
	cn, sn := buildLAN(s)
	us := transport.NewUDP(sn)
	uc := transport.NewUDP(cn)
	srv, err := NewServer(s, us)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(s, uc, serverIP)
	if err != nil {
		t.Fatal(err)
	}
	return s, c, srv
}

func TestFileLifecycle(t *testing.T) {
	s, c, srv := setup(t, 1)
	content := bytes.Repeat([]byte("the quick brown fox "), 200) // 4 KB
	var readBack []byte
	var looked Attr
	s.Spawn("client", func(p *sim.Proc) {
		dir, err := c.Mkdir(p, RootFH, "src")
		if err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		f, err := c.Create(p, dir.FH, "main.c")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := c.WriteFile(p, f.FH, content); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		// Bypass the data cache to force real READs.
		c.FlushCaches()
		readBack, err = c.ReadFile(p, f.FH)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		looked, err = c.Lookup(p, dir.FH, "main.c")
		if err != nil {
			t.Errorf("lookup: %v", err)
		}
	})
	s.RunUntil(sim.Time(time.Minute))
	if !bytes.Equal(readBack, content) {
		t.Fatalf("read %d bytes, want %d identical", len(readBack), len(content))
	}
	if looked.Size != uint32(len(content)) || looked.IsDir {
		t.Fatalf("lookup attr = %+v", looked)
	}
	if srv.Calls[procRead] == 0 || srv.Calls[procWrite] == 0 {
		t.Fatal("server should have seen READ and WRITE RPCs")
	}
}

func TestWarmCacheReadEmitsOnlyStatusChecks(t *testing.T) {
	s, c, srv := setup(t, 2)
	content := make([]byte, 8*1024)
	s.Spawn("client", func(p *sim.Proc) {
		f, _ := c.Create(p, RootFH, "warm.c")
		c.WriteFile(p, f.FH, content)
		readsBefore := srv.Calls[procRead]
		// Let the attribute cache expire so ReadFile must revalidate.
		p.Sleep(AttrTTL + time.Second)
		getattrsBefore := srv.Calls[procGetattr]
		data, err := c.ReadFile(p, f.FH)
		if err != nil || len(data) != len(content) {
			t.Errorf("read: %v, %d bytes", err, len(data))
		}
		if srv.Calls[procRead] != readsBefore {
			t.Error("warm-cache read must not issue READ RPCs")
		}
		if srv.Calls[procGetattr] != getattrsBefore+1 {
			t.Error("warm-cache read must revalidate with one GETATTR")
		}
	})
	s.RunUntil(sim.Time(time.Minute))
}

func TestAttrCacheTTL(t *testing.T) {
	s, c, srv := setup(t, 3)
	s.Spawn("client", func(p *sim.Proc) {
		f, _ := c.Create(p, RootFH, "x")
		before := srv.Calls[procGetattr]
		c.Getattr(p, f.FH) // cached from create
		c.Getattr(p, f.FH)
		if srv.Calls[procGetattr] != before {
			t.Error("fresh attrs must come from cache")
		}
		p.Sleep(AttrTTL + time.Millisecond)
		c.Getattr(p, f.FH)
		if srv.Calls[procGetattr] != before+1 {
			t.Error("expired attrs must refetch")
		}
	})
	s.RunUntil(sim.Time(time.Minute))
}

func TestReaddir(t *testing.T) {
	s, c, _ := setup(t, 4)
	s.Spawn("client", func(p *sim.Proc) {
		names := []string{"a.c", "b.c", "c.c"}
		for _, n := range names {
			c.Create(p, RootFH, n)
		}
		entries, err := c.Readdir(p, RootFH)
		if err != nil {
			t.Errorf("readdir: %v", err)
			return
		}
		if len(entries) != len(names) {
			t.Errorf("entries = %d, want %d", len(entries), len(names))
		}
		seen := map[string]bool{}
		for _, e := range entries {
			seen[e.Name] = true
		}
		for _, n := range names {
			if !seen[n] {
				t.Errorf("missing %s", n)
			}
		}
	})
	s.RunUntil(sim.Time(time.Minute))
}

func TestLookupNoEnt(t *testing.T) {
	s, c, _ := setup(t, 5)
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		_, err = c.Lookup(p, RootFH, "missing")
	})
	s.RunUntil(sim.Time(time.Minute))
	if err != ErrNoEnt {
		t.Fatalf("err = %v, want ErrNoEnt", err)
	}
}

func TestCreateIdempotent(t *testing.T) {
	s, c, _ := setup(t, 6)
	s.Spawn("client", func(p *sim.Proc) {
		a1, err1 := c.Create(p, RootFH, "same")
		a2, err2 := c.Create(p, RootFH, "same")
		if err1 != nil || err2 != nil {
			t.Errorf("errors: %v %v", err1, err2)
			return
		}
		if a1.FH != a2.FH {
			t.Error("recreate must return the same handle")
		}
	})
	s.RunUntil(sim.Time(time.Minute))
}

func TestRPCRetransmitsOverLossyPath(t *testing.T) {
	// 30% loss each way: the hard-mount client must still complete.
	s := sim.New(7)
	cn, sn := buildLAN(s)
	// Degrade the wire via a loss hook on the client.
	rng := s.RNG("loss-hook")
	drop := simnet.HookFunc(func(dir simnet.Direction, ip []byte, next func([]byte)) {
		if rng.Float64() < 0.3 {
			return
		}
		next(ip)
	})
	cn.AddOutboundHook(drop)
	cn.AddInboundHook(drop)
	us := transport.NewUDP(sn)
	uc := transport.NewUDP(cn)
	srv, _ := NewServer(s, us)
	c, _ := NewClient(s, uc, serverIP)
	_ = srv
	var done bool
	s.Spawn("client", func(p *sim.Proc) {
		f, err := c.Create(p, RootFH, "lossy")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := c.WriteFile(p, f.FH, make([]byte, 16*1024)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		done = true
	})
	s.RunUntil(sim.Time(10 * time.Minute))
	if !done {
		t.Fatal("hard-mount client did not complete under loss")
	}
	if c.Retransmits == 0 {
		t.Fatal("30%% loss must force retransmissions")
	}
}

func TestGenTree(t *testing.T) {
	tree := GenTree(rand.New(rand.NewSource(1)))
	if len(tree.Files) != 70 {
		t.Fatalf("files = %d, want 70", len(tree.Files))
	}
	total := tree.TotalBytes()
	if total < 150*1024 || total > 250*1024 {
		t.Fatalf("total = %d, want ≈200KB", total)
	}
	if len(tree.Dirs) != 5 {
		t.Fatalf("dirs = %d, want 5", len(tree.Dirs))
	}
}

func TestAndrewOverEthernet(t *testing.T) {
	s, c, srv := setup(t, 8)
	tree := GenTree(rand.New(rand.NewSource(2)))
	var pt PhaseTimes
	var err error
	s.Spawn("andrew", func(p *sim.Proc) {
		pt, err = RunAndrew(p, c, tree, AndrewConfig{CPUScale: 1, RNG: rand.New(rand.NewSource(3))})
	})
	s.RunUntil(sim.Time(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Every phase ran and Make dominates, as in Figure 8.
	secs := pt.Seconds()
	for i, v := range secs {
		if v <= 0 {
			t.Fatalf("phase %d took %v", i, v)
		}
	}
	if pt.Make < pt.Copy || pt.Make < pt.ReadAll {
		t.Fatalf("Make (%v) should dominate: %+v", pt.Make, pt)
	}
	if pt.Total < 60*time.Second || pt.Total > 300*time.Second {
		t.Fatalf("total = %v, want Andrew-scale (1-4 minutes)", pt.Total)
	}
	if sum := pt.MakeDir + pt.Copy + pt.ScanDir + pt.ReadAll + pt.Make; sum != pt.Total {
		t.Fatalf("phases sum %v != total %v", sum, pt.Total)
	}
	// The benchmark created 2-level dirs + sources + objects.
	if srv.NodeCount() < 140 {
		t.Fatalf("server holds %d nodes", srv.NodeCount())
	}
}

func TestRemove(t *testing.T) {
	s, c, srv := setup(t, 9)
	s.Spawn("client", func(p *sim.Proc) {
		f, _ := c.Create(p, RootFH, "doomed")
		if err := c.Remove(p, RootFH, "doomed"); err != nil {
			t.Errorf("remove: %v", err)
			return
		}
		if _, err := c.Lookup(p, RootFH, "doomed"); err != ErrNoEnt {
			t.Errorf("lookup after remove: %v", err)
		}
		// Idempotent: removing again succeeds (retransmission semantics).
		if err := c.Remove(p, RootFH, "doomed"); err != nil {
			t.Errorf("second remove: %v", err)
		}
		_ = f
	})
	s.RunUntil(sim.Time(time.Minute))
	if srv.NodeCount() != 1 {
		t.Fatalf("nodes = %d, want root only", srv.NodeCount())
	}
}

func TestRemoveNonEmptyDirRefused(t *testing.T) {
	s, c, _ := setup(t, 10)
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		d, _ := c.Mkdir(p, RootFH, "dir")
		c.Create(p, d.FH, "occupant")
		err = c.Remove(p, RootFH, "dir")
	})
	s.RunUntil(sim.Time(time.Minute))
	if err == nil {
		t.Fatal("removing a non-empty directory must fail")
	}
}

func TestRename(t *testing.T) {
	s, c, _ := setup(t, 11)
	s.Spawn("client", func(p *sim.Proc) {
		d1, _ := c.Mkdir(p, RootFH, "a")
		d2, _ := c.Mkdir(p, RootFH, "b")
		f, _ := c.Create(p, d1.FH, "x.c")
		c.WriteFile(p, f.FH, []byte("contents"))
		if err := c.Rename(p, d1.FH, "x.c", d2.FH, "y.c"); err != nil {
			t.Errorf("rename: %v", err)
			return
		}
		if _, err := c.Lookup(p, d1.FH, "x.c"); err != ErrNoEnt {
			t.Errorf("source still present: %v", err)
		}
		got, err := c.Lookup(p, d2.FH, "y.c")
		if err != nil || got.FH != f.FH {
			t.Errorf("target lookup: %+v %v", got, err)
		}
		// Contents survive the rename.
		data, err := c.ReadFile(p, f.FH)
		if err != nil || string(data) != "contents" {
			t.Errorf("read after rename: %q %v", data, err)
		}
	})
	s.RunUntil(sim.Time(time.Minute))
}

func TestRenameMissingSource(t *testing.T) {
	s, c, _ := setup(t, 12)
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		err = c.Rename(p, RootFH, "ghost", RootFH, "elsewhere")
	})
	s.RunUntil(sim.Time(time.Minute))
	if err != ErrNoEnt {
		t.Fatalf("err = %v, want ErrNoEnt", err)
	}
}

func TestTruncate(t *testing.T) {
	s, c, srv := setup(t, 13)
	s.Spawn("client", func(p *sim.Proc) {
		f, _ := c.Create(p, RootFH, "t.c")
		c.WriteFile(p, f.FH, []byte("hello world"))
		a, err := c.Truncate(p, f.FH, 5)
		if err != nil || a.Size != 5 {
			t.Errorf("truncate down: %+v %v", a, err)
			return
		}
		data, err := c.ReadFile(p, f.FH)
		if err != nil || string(data) != "hello" {
			t.Errorf("read after truncate: %q %v", data, err)
		}
		// Extending zero-fills.
		a2, err := c.Truncate(p, f.FH, 8)
		if err != nil || a2.Size != 8 {
			t.Errorf("truncate up: %+v %v", a2, err)
			return
		}
		data2, _ := c.ReadFile(p, f.FH)
		if string(data2) != "hello\x00\x00\x00" {
			t.Errorf("extended data = %q", data2)
		}
	})
	s.RunUntil(sim.Time(time.Minute))
	if srv.Calls[procSetattr] != 2 {
		t.Fatalf("setattr calls = %d", srv.Calls[procSetattr])
	}
}

func TestWindowedWriteFile(t *testing.T) {
	s, c, srv := setup(t, 14)
	c.MaxOutstanding = 4
	content := make([]byte, 40*1024)
	for i := range content {
		content[i] = byte(i * 7)
	}
	var readBack []byte
	s.Spawn("client", func(p *sim.Proc) {
		f, _ := c.Create(p, RootFH, "big")
		if err := c.WriteFile(p, f.FH, content); err != nil {
			t.Errorf("windowed write: %v", err)
			return
		}
		c.FlushCaches()
		var err error
		readBack, err = c.ReadFile(p, f.FH)
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	s.RunUntil(sim.Time(time.Minute))
	if !bytes.Equal(readBack, content) {
		t.Fatalf("windowed write corrupted: %d bytes", len(readBack))
	}
	if srv.Calls[procWrite] != 40 {
		t.Fatalf("write RPCs = %d, want 40", srv.Calls[procWrite])
	}
}

func TestWindowedWriteFaster(t *testing.T) {
	// Four outstanding RPCs must beat stop-and-wait over the same wire.
	run := func(window int) time.Duration {
		s, c, _ := setup(t, 15)
		c.MaxOutstanding = window
		var took time.Duration
		s.Spawn("client", func(p *sim.Proc) {
			f, _ := c.Create(p, RootFH, "timed")
			start := p.Now()
			if err := c.WriteFile(p, f.FH, make([]byte, 64*1024)); err != nil {
				t.Errorf("write: %v", err)
			}
			took = p.Now().Sub(start)
		})
		s.RunUntil(sim.Time(time.Minute))
		return took
	}
	serial, windowed := run(1), run(4)
	if windowed >= serial {
		t.Fatalf("windowed %v should beat serial %v", windowed, serial)
	}
}

// TestNFSWriteRPCAllocs counts the allocations of one 1 KiB WRITE RPC,
// client and server together, over the test Ethernet. Each message is
// written once, straight into its datagram: no request, body or reply
// copies. The datagrams come from the scheduler's free list and go back
// to it (the server releases each call after handling it, the client each
// reply at its next call), and the socket waits reuse their waiters, so
// in steady state an RPC allocates nothing.
func TestNFSWriteRPCAllocs(t *testing.T) {
	s, c, _ := setup(t, 21)
	var fh uint32
	s.Spawn("create", func(p *sim.Proc) {
		f, err := c.Create(p, RootFH, "f")
		if err != nil {
			t.Errorf("create: %v", err)
		}
		fh = f.FH
	})
	s.RunUntil(sim.Time(time.Second))
	data := make([]byte, BlockSize)
	const rpcs = 256
	allocs := testing.AllocsPerRun(1, func() {
		s.Spawn("writer", func(p *sim.Proc) {
			for i := 0; i < rpcs; i++ {
				if err := c.WriteFile(p, fh, data); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		})
		s.RunUntil(s.Now().Add(time.Hour))
	}) / rpcs
	s.Close()
	t.Logf("%.2f allocs per WRITE RPC", allocs)
	if allocs > 1 {
		t.Errorf("one WRITE RPC allocates %.2f, ceiling 1", allocs)
	}
}

// TestReadFileReusesItsBuffer: re-reading a file from the server after
// FlushFile, at an unchanged size, refills the buffer the client filled
// last time, so the payload allocates nothing; the READ RPCs themselves
// allocate nothing either (see TestNFSWriteRPCAllocs). A fresh buffer per
// read measured 16,486 bytes per 16 KiB read.
func TestReadFileReusesItsBuffer(t *testing.T) {
	s, c, _ := setup(t, 22)
	content := make([]byte, 16*BlockSize)
	for i := range content {
		content[i] = byte(i * 7)
	}
	var fh uint32
	reread := func(p *sim.Proc) []byte {
		c.FlushFile(fh)
		data, err := c.ReadFile(p, fh)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		return data
	}
	s.Spawn("setup", func(p *sim.Proc) {
		f, err := c.Create(p, RootFH, "f")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		fh = f.FH
		if err := c.WriteFile(p, fh, content); err != nil {
			t.Errorf("write: %v", err)
		}
		first := reread(p)
		if second := reread(p); &first[0] != &second[0] || !bytes.Equal(second, content) {
			t.Error("a same-size re-read did not refill the first read's buffer with the file")
		}
	})
	s.RunUntil(sim.Time(time.Minute))
	const reads = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < reads; i++ {
			reread(p)
		}
	})
	s.RunUntil(s.Now().Add(time.Hour))
	runtime.ReadMemStats(&after)
	s.Close()
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / reads
	t.Logf("%.0f bytes allocated per %d-byte re-read", perRead, len(content))
	if perRead >= BlockSize {
		t.Errorf("a same-size re-read allocates %.0f bytes, want under one %d-byte block", perRead, BlockSize)
	}
}
