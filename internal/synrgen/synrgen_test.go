package synrgen

import (
	"math/rand"
	"testing"
	"time"

	"tracemod/internal/apps/nfs"
	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
	"tracemod/internal/transport"
)

var (
	clientIP = packet.IP4(10, 8, 0, 1)
	serverIP = packet.IP4(10, 8, 0, 2)
	mask     = packet.IP4(255, 255, 255, 0)
)

func setup(t *testing.T, seed int64) (*sim.Scheduler, *nfs.Client, *nfs.Server, *simnet.Medium) {
	t.Helper()
	s := sim.New(seed)
	m := simnet.NewMedium(s, "lan", simnet.Ethernet10())
	cn := simnet.NewNode(s, "user")
	cn.AttachNIC(m, clientIP, mask)
	sn := simnet.NewNode(s, "server")
	sn.AttachNIC(m, serverIP, mask)
	srv, err := nfs.NewServer(s, transport.NewUDP(sn))
	if err != nil {
		t.Fatal(err)
	}
	client, err := nfs.NewClient(s, transport.NewUDP(cn), serverIP)
	if err != nil {
		t.Fatal(err)
	}
	return s, client, srv, m
}

func TestSetupPopulatesWorkingSet(t *testing.T) {
	s, client, srv, _ := setup(t, 1)
	u := New(client, DefaultParams(rand.New(rand.NewSource(2))))
	var err error
	s.Spawn("user", func(p *sim.Proc) { err = u.Setup(p, "alice") })
	s.RunUntil(sim.Time(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	// Root + user dir + 12 files.
	if srv.NodeCount() != 14 {
		t.Fatalf("nodes = %d, want 14", srv.NodeCount())
	}
	if u.Stats().BytesWritten == 0 {
		t.Fatal("setup should write the working set")
	}
}

func TestRunGeneratesTraffic(t *testing.T) {
	s, client, _, m := setup(t, 3)
	u := New(client, Params{Files: 8, FileSize: 4096, ThinkMean: 500 * time.Millisecond, RNG: rand.New(rand.NewSource(4))})
	var err error
	s.Spawn("user", func(p *sim.Proc) {
		if err = u.Setup(p, "bob"); err != nil {
			return
		}
		err = u.Run(p, sim.Time(60*time.Second))
	})
	s.RunUntil(sim.Time(70 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	st := u.Stats()
	if st.Edits+st.Compiles+st.Debugs < 20 {
		t.Fatalf("actions = %+v, want a busy minute", st)
	}
	if st.Edits == 0 || st.Compiles == 0 || st.Debugs == 0 {
		t.Fatalf("all action kinds should occur: %+v", st)
	}
	if st.BytesRead == 0 || st.BytesWritten == 0 {
		t.Fatalf("bytes = %+v", st)
	}
	// And the traffic is real: frames crossed the medium.
	if m.Stats().Frames < 200 {
		t.Fatalf("frames = %d, want substantial RPC traffic", m.Stats().Frames)
	}
}

func TestRunStopsAtEnd(t *testing.T) {
	s, client, _, _ := setup(t, 5)
	u := New(client, DefaultParams(rand.New(rand.NewSource(6))))
	var finished sim.Time
	s.Spawn("user", func(p *sim.Proc) {
		u.Setup(p, "carol")
		u.Run(p, sim.Time(10*time.Second))
		finished = p.Now()
	})
	s.RunUntil(sim.Time(time.Minute))
	// A final action may overshoot slightly, but not by a full cycle.
	if finished < sim.Time(10*time.Second) || finished > sim.Time(25*time.Second) {
		t.Fatalf("finished at %v, want shortly after the 10s deadline", finished.Duration())
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func() Stats {
		s, client, _, _ := setup(t, 7)
		u := New(client, DefaultParams(s.RNG("user")))
		s.Spawn("user", func(p *sim.Proc) {
			u.Setup(p, "dave")
			u.Run(p, sim.Time(30*time.Second))
		})
		s.RunUntil(sim.Time(40 * time.Second))
		return u.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestParamsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing RNG should panic")
		}
	}()
	New(nil, Params{})
}

func TestDefaultsFilledIn(t *testing.T) {
	u := New(nil, Params{RNG: rand.New(rand.NewSource(1))})
	if u.params.Files != 12 || u.params.FileSize != 3*1024 || u.params.ThinkMean != 2*time.Second {
		t.Fatalf("defaults = %+v", u.params)
	}
}

func TestFillContentAndReuse(t *testing.T) {
	u := New(nil, Params{RNG: rand.New(rand.NewSource(1))})
	for _, tc := range []struct {
		size int
		seed byte
	}{{64, 0}, {300, 7}, {5000, 0x55}, {1, 255}, {4000, 200}} {
		got := u.fill(tc.size, tc.seed)
		if len(got) != tc.size || cap(got) != tc.size {
			t.Fatalf("fill(%d, %d): len %d cap %d", tc.size, tc.seed, len(got), cap(got))
		}
		for i, b := range got {
			if want := 'a' + (tc.seed+byte(i))%26; b != want {
				t.Fatalf("fill(%d, %d)[%d] = %q, want %q", tc.size, tc.seed, i, b, want)
			}
		}
	}
	// Once the pattern covers a size, filling it again allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() { u.fill(4000, 9) }); allocs != 0 {
		t.Fatalf("fill allocates %.1f per call on a warm pattern", allocs)
	}
}
