package emud

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/livewire"
	"tracemod/internal/modulation"
	"tracemod/internal/packet"
	"tracemod/internal/replay"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

// oracleDrops replays one session's packets, in the order the session
// received them, through a fresh modulation.Engine on a simulated clock
// with the same trace and lottery seed, and reports which the model
// drops.
func oracleDrops(tr core.Trace, seed int64, sizes []int) []bool {
	s := sim.New(0)
	eng := modulation.NewEngine(modulation.SimClock{S: s},
		&modulation.SliceSource{Trace: tr, Loop: true},
		modulation.Config{Tick: -1, RNG: rand.New(rand.NewSource(seed))})
	dropped := make([]bool, len(sizes))
	for i, size := range sizes {
		s.At(sim.Time(time.Duration(i)*time.Millisecond), func() {
			eng.SubmitWithDrop(simnet.Outbound, size, func() {}, func() { dropped[i] = true })
		})
	}
	s.RunUntil(sim.Time(time.Hour))
	return dropped
}

// TestLiveDropDecisionsMatchSimOracle checks the real-time relay path's
// drop lottery against the model: eight sessions on one constant-loss
// tuple, relays on the manager's PumpGroup, a seeded low-rate loopback
// schedule. Every packet's deliver/drop outcome must equal what a
// modulation.Engine on a SimClock decides with the same seed, and every
// packet must be accounted for exactly once — at the sink or in the
// session's drop count, never both, never twice. No wall-clock timing
// is asserted.
func TestLiveDropDecisionsMatchSimOracle(t *testing.T) {
	const (
		sessions = 8
		packets  = 400
	)
	m := newTestManager(t, Options{PumpShards: 2})
	tr := replay.Constant(core.DelayParams{F: time.Millisecond, Vb: 10}, 0.3, time.Hour, time.Hour)

	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	var mu sync.Mutex
	seen := make(map[uint32]int) // packet ID → sink receptions
	go func() {
		buf := make([]byte, 2048)
		for {
			n, err := sink.Read(buf)
			if err != nil {
				return
			}
			mu.Lock()
			seen[binary.BigEndian.Uint32(buf[:n])]++
			mu.Unlock()
		}
	}()

	rng := rand.New(rand.NewSource(2101))
	seeds := make([]int64, sessions)
	ss := make([]*Session, sessions)
	clients := make([]*net.UDPConn, sessions)
	for i := range ss {
		seeds[i] = rng.Int63()
		s, err := m.Create(SessionConfig{Trace: tr, Loop: true, Tick: -1, Seed: seeds[i]})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		addr, err := s.AttachRelay("127.0.0.1:0", sink.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		if livewire.BatchIOSupported() && !s.Relay().Sharded() {
			t.Fatal("relay not on the manager's pump group")
		}
		raddr, _ := net.ResolveUDPAddr("udp", addr)
		if clients[i], err = net.DialUDP("udp", nil, raddr); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
		ss[i] = s
	}

	// The schedule: each packet picks a session and a size; one client
	// socket per session keeps each session's arrival order on loopback.
	type pkt struct{ sess, size int }
	sched := make([]pkt, packets)
	ids := make([][]uint32, sessions) // per session, in send order
	payload := make([]byte, 1200)
	for id := range sched {
		p := pkt{sess: rng.Intn(sessions), size: 64 + rng.Intn(1000)}
		sched[id] = p
		ids[p.sess] = append(ids[p.sess], uint32(id))
		binary.BigEndian.PutUint32(payload, uint32(id))
		if _, err := clients[p.sess].Write(payload[:p.size]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(100+rng.Intn(400)) * time.Microsecond)
	}

	want := make(map[uint32]bool) // packet ID → the model delivers it
	wantDelivered := make([]int64, sessions)
	for i := range ss {
		sizes := make([]int, len(ids[i]))
		for k, id := range ids[i] {
			sizes[k] = sched[id].size + packet.IPv4HeaderLen + packet.UDPHeaderLen
		}
		for k, drop := range oracleDrops(tr, seeds[i], sizes) {
			want[ids[i][k]] = !drop
			if !drop {
				wantDelivered[i]++
			}
		}
	}

	// Wait until every packet is decided and every delivery has landed.
	settled := func() bool {
		var delivered int64
		for i, s := range ss {
			st := s.Stats()
			if st.Delivered+st.Dropped < int64(len(ids[i])) {
				return false
			}
			delivered += st.Delivered
		}
		mu.Lock()
		defer mu.Unlock()
		return int64(len(seen)) >= delivered
	}
	for deadline := time.Now().Add(10 * time.Second); !settled(); {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	for i, s := range ss {
		st := s.Stats()
		n := int64(len(ids[i]))
		if st.Submitted != n || st.Shed != 0 || st.Rejected != 0 || st.InFlight != 0 {
			t.Errorf("session %d: %d sent, stats %+v", i, n, st)
		}
		if st.Delivered != wantDelivered[i] || st.Dropped != n-wantDelivered[i] {
			t.Errorf("session %d: delivered/dropped %d/%d, model says %d/%d",
				i, st.Delivered, st.Dropped, wantDelivered[i], n-wantDelivered[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	var mismatches int
	for id := uint32(0); id < packets; id++ {
		got := seen[id]
		if got > 1 {
			t.Errorf("packet %d reached the sink %d times", id, got)
		}
		if (got > 0) != want[id] {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("packet %d (session %d): delivered=%v, model delivered=%v",
					id, sched[id].sess, got > 0, want[id])
			}
		}
	}
	if len(seen) > packets {
		t.Errorf("sink saw %d distinct IDs for %d packets", len(seen), packets)
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d deliver/drop decisions differ from the model", mismatches, packets)
	}
}
