package modulation

import (
	"math"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/packet"
	"tracemod/internal/replay"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

func engine(s *sim.Scheduler, tr core.Trace, cfg Config) *Engine {
	if cfg.RNG == nil {
		cfg.RNG = s.RNG("mod-test")
	}
	return NewEngine(SimClock{S: s}, &SliceSource{Trace: tr}, cfg)
}

func constTrace(p core.DelayParams, loss float64) core.Trace {
	return replay.Constant(p, loss, time.Hour, time.Second)
}

func TestDelayMatchesModel(t *testing.T) {
	// One packet, exact scheduling: delay = s*Vb + F + s*Vr.
	s := sim.New(1)
	p := core.DelayParams{F: 5 * time.Millisecond, Vb: 1000, Vr: 500}
	e := engine(s, constTrace(p, 0), Config{Tick: -1})
	var deliveredAt sim.Time
	e.SubmitWithDrop(simnet.Outbound, 1000, func() { deliveredAt = s.Now() }, nil)
	s.Run()
	want := p.Vb.Cost(1000) + p.F + p.Vr.Cost(1000) // 1ms + 5ms + 0.5ms
	if deliveredAt.Duration() != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt.Duration(), want)
	}
	st := e.Stats()
	if st.Submitted != 1 || st.Delayed != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnifiedBottleneckQueue(t *testing.T) {
	// Two packets submitted together: the second queues behind the first
	// at the bottleneck (paying s*Vb serially) but F overlaps.
	s := sim.New(1)
	p := core.DelayParams{F: 10 * time.Millisecond, Vb: 1000, Vr: 0}
	e := engine(s, constTrace(p, 0), Config{Tick: -1})
	var first, second sim.Time
	e.SubmitWithDrop(simnet.Outbound, 1000, func() { first = s.Now() }, nil)
	e.SubmitWithDrop(simnet.Outbound, 1000, func() { second = s.Now() }, nil)
	s.Run()
	if first.Duration() != 11*time.Millisecond {
		t.Fatalf("first = %v, want 11ms", first.Duration())
	}
	if second.Duration() != 12*time.Millisecond {
		t.Fatalf("second = %v, want 12ms (1ms behind, F overlapped)", second.Duration())
	}
}

func TestInboundAndOutboundShareQueue(t *testing.T) {
	// The single delay queue means an inbound packet queues behind an
	// outbound one.
	s := sim.New(1)
	p := core.DelayParams{F: 0, Vb: 1000, Vr: 0}
	e := engine(s, constTrace(p, 0), Config{Tick: -1})
	var in sim.Time
	e.SubmitWithDrop(simnet.Outbound, 1000, func() {}, nil)
	e.SubmitWithDrop(simnet.Inbound, 1000, func() { in = s.Now() }, nil)
	s.Run()
	if in.Duration() != 2*time.Millisecond {
		t.Fatalf("inbound = %v, want 2ms (queued behind outbound)", in.Duration())
	}
}

func TestCompensationReducesInboundOnly(t *testing.T) {
	s := sim.New(1)
	p := core.DelayParams{F: 0, Vb: 1000, Vr: 0}
	comp := core.PerByte(400)
	e := engine(s, constTrace(p, 0), Config{Tick: -1, Compensation: comp})
	var out, in sim.Time
	e.SubmitWithDrop(simnet.Outbound, 1000, func() { out = s.Now() }, nil)
	s.Run()
	if out.Duration() != time.Millisecond {
		t.Fatalf("outbound = %v, want full 1ms", out.Duration())
	}
	s2 := sim.New(1)
	e2 := engine(s2, constTrace(p, 0), Config{Tick: -1, Compensation: comp})
	e2.SubmitWithDrop(simnet.Inbound, 1000, func() { in = s2.Now() }, nil)
	s2.Run()
	if in.Duration() != 600*time.Microsecond {
		t.Fatalf("inbound = %v, want 0.6ms (Vb-comp)", in.Duration())
	}
}

func TestCompensationFloorsAtZeroVb(t *testing.T) {
	// Overcompensation floors the inbound bottleneck cost at zero; the
	// fixed latency still applies.
	s := sim.New(1)
	p := core.DelayParams{F: time.Millisecond, Vb: 100, Vr: 0}
	e := engine(s, constTrace(p, 0), Config{Tick: -1, Compensation: 10000})
	var in sim.Time
	e.SubmitWithDrop(simnet.Inbound, 1000, func() { in = s.Now() }, nil)
	s.Run()
	if in.Duration() != time.Millisecond {
		t.Fatalf("inbound = %v, want F only", in.Duration())
	}
}

func TestInboundExtraChargesBottleneck(t *testing.T) {
	// The kernel artifact: inbound packets pay the physical receive path
	// serially on top of the emulated bottleneck.
	s := sim.New(1)
	p := core.DelayParams{F: 0, Vb: 1000, Vr: 0}
	e := engine(s, constTrace(p, 0), Config{Tick: -1, InboundExtra: 500})
	var in, out sim.Time
	e.SubmitWithDrop(simnet.Inbound, 1000, func() { in = s.Now() }, nil)
	s.Run()
	s2 := sim.New(1)
	e2 := engine(s2, constTrace(p, 0), Config{Tick: -1, InboundExtra: 500})
	e2.SubmitWithDrop(simnet.Outbound, 1000, func() { out = s2.Now() }, nil)
	s2.Run()
	if in.Duration() != 1500*time.Microsecond {
		t.Fatalf("inbound = %v, want 1.5ms (Vb + extra)", in.Duration())
	}
	if out.Duration() != time.Millisecond {
		t.Fatalf("outbound = %v, want 1ms (extra is inbound-only)", out.Duration())
	}
}

func TestCompensationCancelsInboundExtra(t *testing.T) {
	// The paper's production configuration: measured compensation cancels
	// the artifact and the two directions behave identically.
	s := sim.New(1)
	p := core.DelayParams{F: 2 * time.Millisecond, Vb: 1000, Vr: 100}
	cfg := Config{Tick: -1, InboundExtra: 500, Compensation: 500}
	e := engine(s, constTrace(p, 0), cfg)
	var in sim.Time
	e.SubmitWithDrop(simnet.Inbound, 1000, func() { in = s.Now() }, nil)
	s.Run()
	s2 := sim.New(1)
	e2 := engine(s2, constTrace(p, 0), cfg)
	var out sim.Time
	e2.SubmitWithDrop(simnet.Outbound, 1000, func() { out = s2.Now() }, nil)
	s2.Run()
	if in != out {
		t.Fatalf("inbound %v != outbound %v with cancelling configuration", in.Duration(), out.Duration())
	}
}

func TestTickQuantization(t *testing.T) {
	s := sim.New(1)
	// Delay = 3ms: under half of a 10ms tick -> immediate.
	p := core.DelayParams{F: 3 * time.Millisecond, Vb: 0, Vr: 0}
	e := engine(s, constTrace(p, 0), Config{Tick: 10 * time.Millisecond})
	immediate := false
	e.SubmitWithDrop(simnet.Outbound, 100, func() { immediate = s.Now() == 0 }, nil)
	s.Run()
	if !immediate {
		t.Fatal("3ms delay should send immediately at 10ms tick")
	}
	if e.Stats().Immediate != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}

	// Delay = 17ms -> rounds to the closest tick (20ms).
	s2 := sim.New(1)
	p2 := core.DelayParams{F: 17 * time.Millisecond, Vb: 0, Vr: 0}
	e2 := engine(s2, constTrace(p2, 0), Config{Tick: 10 * time.Millisecond})
	var at sim.Time
	e2.SubmitWithDrop(simnet.Outbound, 100, func() { at = s2.Now() }, nil)
	s2.Run()
	if at.Duration() != 20*time.Millisecond {
		t.Fatalf("delivered at %v, want 20ms", at.Duration())
	}

	// Delay = 13ms -> rounds down to 10ms.
	s3 := sim.New(1)
	p3 := core.DelayParams{F: 13 * time.Millisecond, Vb: 0, Vr: 0}
	e3 := engine(s3, constTrace(p3, 0), Config{Tick: 10 * time.Millisecond})
	var at3 sim.Time
	e3.SubmitWithDrop(simnet.Outbound, 100, func() { at3 = s3.Now() }, nil)
	s3.Run()
	if at3.Duration() != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at3.Duration())
	}
}

func TestDropLottery(t *testing.T) {
	s := sim.New(7)
	p := core.DelayParams{F: time.Millisecond, Vb: 10, Vr: 0}
	e := engine(s, constTrace(p, 0.5), Config{Tick: -1})
	delivered := 0
	const n = 1000
	s.Spawn("submitter", func(pr *sim.Proc) {
		for i := 0; i < n; i++ {
			e.SubmitWithDrop(simnet.Outbound, 100, func() { delivered++ }, nil)
			pr.Sleep(time.Millisecond)
		}
	})
	s.Run()
	frac := float64(delivered) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("survival = %.3f, want ≈0.5", frac)
	}
	st := e.Stats()
	if st.Dropped+int64(delivered) != n {
		t.Fatalf("dropped %d + delivered %d != %d", st.Dropped, delivered, n)
	}
}

func TestDroppedPacketsStillConsumeBottleneck(t *testing.T) {
	// With L=1 capped to MaxLoss... use manual: first packet will drop
	// (seeded rng), but must still advance the bottleneck busy time for
	// the second.
	s := sim.New(1)
	p := core.DelayParams{F: 0, Vb: 1000, Vr: 0}
	tr := constTrace(p, 0.99)
	e := engine(s, tr, Config{Tick: -1})
	var deliveredAt []time.Duration
	// Submit many; survivors' delivery times must be multiples of 1ms
	// spaced by every prior submission (dropped or not).
	for i := 0; i < 50; i++ {
		e.SubmitWithDrop(simnet.Outbound, 1000, func() { deliveredAt = append(deliveredAt, s.Now().Duration()) }, nil)
	}
	s.Run()
	for _, at := range deliveredAt {
		// Delivery k happens at (position-in-queue)*1ms; all 50 packets
		// occupy the bottleneck, so any survivor lands on a 1ms grid
		// beyond its queue position.
		if at%time.Millisecond != 0 {
			t.Fatalf("delivery at %v not on the bottleneck grid", at)
		}
	}
	if e.Stats().Dropped < 40 {
		t.Fatalf("dropped = %d, want most of 50", e.Stats().Dropped)
	}
}

func TestTupleProgressionOnSchedule(t *testing.T) {
	// Tuple 1: F=1ms for 1s. Tuple 2: F=50ms. A packet at t=1.5s must see
	// tuple 2 even though no packet arrived during tuple 1.
	s := sim.New(1)
	tr := core.Trace{
		{D: time.Second, DelayParams: core.DelayParams{F: time.Millisecond}, L: 0},
		{D: time.Hour, DelayParams: core.DelayParams{F: 50 * time.Millisecond}, L: 0},
	}
	e := engine(s, tr, Config{Tick: -1})
	var at sim.Time
	s.At(sim.Time(1500*time.Millisecond), func() {
		e.SubmitWithDrop(simnet.Outbound, 10, func() { at = s.Now() }, nil)
	})
	s.Run()
	if got := at.Duration() - 1500*time.Millisecond; got < 49*time.Millisecond {
		t.Fatalf("packet saw %v delay, want tuple-2's ≈50ms", got)
	}
	if e.Stats().Tuples != 2 {
		t.Fatalf("consumed %d tuples, want 2", e.Stats().Tuples)
	}
}

func TestStarvedSourceHoldsCurrent(t *testing.T) {
	s := sim.New(1)
	tr := core.Trace{{D: time.Second, DelayParams: core.DelayParams{F: 30 * time.Millisecond}, L: 0}}
	e := engine(s, tr, Config{Tick: -1})
	var at sim.Time
	s.At(sim.Time(10*time.Second), func() {
		e.SubmitWithDrop(simnet.Outbound, 10, func() { at = s.Now() }, nil)
	})
	s.Run()
	if got := at.Duration() - 10*time.Second; got != 30*time.Millisecond {
		t.Fatalf("starved engine applied %v, want last tuple's 30ms", got)
	}
}

func TestNoTuplesPassesThrough(t *testing.T) {
	s := sim.New(1)
	e := engine(s, nil, Config{Tick: -1})
	done := false
	e.SubmitWithDrop(simnet.Outbound, 10, func() { done = s.Now() == 0 }, nil)
	s.Run()
	if !done {
		t.Fatal("with no tuples traffic must pass unmodulated")
	}
}

func TestSliceSourceLoop(t *testing.T) {
	src := &SliceSource{Trace: core.Trace{{D: 1, L: 0.1}, {D: 2, L: 0.2}}, Loop: true}
	var ds []time.Duration
	for i := 0; i < 5; i++ {
		tu, ok := src.Next()
		if !ok {
			t.Fatal("looping source must never run out")
		}
		ds = append(ds, tu.D)
	}
	want := []time.Duration{1, 2, 1, 2, 1}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("sequence = %v", ds)
		}
	}
	once := &SliceSource{Trace: core.Trace{{D: 1}}}
	once.Next()
	if _, ok := once.Next(); ok {
		t.Fatal("non-looping source must end")
	}
}

func TestPseudoDeviceBackpressure(t *testing.T) {
	s := sim.New(1)
	dev := NewPseudoDevice(s, 2)
	fed := 0
	s.Spawn("daemon", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			dev.Write(p, core.Tuple{D: time.Second})
			fed++
		}
	})
	s.RunUntil(0)
	if fed != 2 {
		t.Fatalf("daemon fed %d tuples before blocking, want 2 (buffer size)", fed)
	}
	if dev.Buffered() != 2 {
		t.Fatalf("buffered = %d", dev.Buffered())
	}
	// Kernel reads one; daemon wakes and refills.
	if _, ok := dev.Next(); !ok {
		t.Fatal("Next should yield a tuple")
	}
	s.RunUntil(s.Now())
	if fed != 3 {
		t.Fatalf("fed = %d after one read, want 3", fed)
	}
}

func TestStartDaemonFeedsEngine(t *testing.T) {
	s := sim.New(3)
	trace := replay.Constant(core.DelayParams{F: 8 * time.Millisecond, Vb: 100, Vr: 0}, 0, 2*time.Minute, time.Second)
	dev := StartDaemon(s, trace, false)
	e := NewEngine(SimClock{S: s}, dev, Config{Tick: -1, RNG: s.RNG("x")})
	var delays []time.Duration
	s.Spawn("traffic", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			at := p.Now()
			e.SubmitWithDrop(simnet.Outbound, 100, func() { delays = append(delays, s.Now().Sub(at)) }, nil)
			p.Sleep(time.Second)
		}
	})
	s.RunFor(25 * time.Second)
	if len(delays) != 20 {
		t.Fatalf("delivered %d of 20", len(delays))
	}
	for i, d := range delays {
		if d < 8*time.Millisecond || d > 9*time.Millisecond {
			t.Fatalf("packet %d delay %v, want ≈8ms", i, d)
		}
	}
}

func TestInstallModulatesLAN(t *testing.T) {
	// Full stack: two nodes on a fast Ethernet; modulation installed on
	// one makes round-trips behave like the replay trace.
	s := sim.New(5)
	m := simnet.NewMedium(s, "ether", simnet.Ethernet10())
	a := simnet.NewNode(s, "a")
	a.AttachNIC(m, packet.IP4(10, 3, 0, 1), packet.IP4(255, 255, 255, 0))
	b := simnet.NewNode(s, "b")
	b.AttachNIC(m, packet.IP4(10, 3, 0, 2), packet.IP4(255, 255, 255, 0))

	p := core.DelayParams{F: 20 * time.Millisecond, Vb: core.PerByteFromBandwidth(1.5e6), Vr: 0}
	e := engine(s, constTrace(p, 0), Config{Tick: -1})
	Install(a, e)

	var rtt time.Duration
	a.RegisterProto(packet.ProtoICMP, func(n *simnet.Node, ip packet.IPv4) {
		msg := packet.ICMP(ip.Payload())
		if msg.Valid() && msg.Type() == packet.ICMPEchoReply {
			if sent, ok := msg.SentAt(); ok {
				rtt = s.Now().Sub(sim.Time(sent))
			}
		}
	})
	echo := packet.MarshalICMP(packet.ICMPFields{Type: packet.ICMPEcho, ID: 2, Seq: 1},
		packet.EchoPayload(100, int64(s.Now())))
	a.SendIP(packet.ProtoICMP, packet.IP4(10, 3, 0, 2), append(make([]byte, packet.IPv4HeaderLen), echo...))
	s.Run()
	// RTT ≈ 2*(F + s*Vb) for a 128-byte datagram, plus tiny Ethernet time.
	want := p.RoundTrip(128)
	if math.Abs(float64(rtt-want)) > float64(3*time.Millisecond) {
		t.Fatalf("modulated rtt = %v, want ≈%v", rtt, want)
	}
	if e.Stats().Submitted != 2 {
		t.Fatalf("hook saw %d packets, want 2 (echo out, reply in)", e.Stats().Submitted)
	}
}

func TestNilRNGFallsBackToDefaultSeed(t *testing.T) {
	// A nil RNG must produce the documented deterministic fallback, never
	// the global math/rand source: two defaulted engines see identical
	// drop lotteries, run after run.
	tr := constTrace(core.DelayParams{F: time.Millisecond, Vb: 100}, 0.5)
	drops := func() []bool {
		s := sim.New(1)
		e := NewEngine(SimClock{S: s}, &SliceSource{Trace: tr}, Config{Tick: -1})
		var out []bool
		for i := 0; i < 200; i++ {
			delivered := false
			e.SubmitWithDrop(simnet.Outbound, 500, func() { delivered = true }, nil)
			s.Run()
			out = append(out, !delivered)
		}
		return out
	}
	a, b := drops(), drops()
	sawDrop := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d: drop outcome differs between defaulted engines", i)
		}
		sawDrop = sawDrop || a[i]
	}
	if !sawDrop {
		t.Fatal("expected some drops at 50% loss")
	}
}

func TestRoundToTick(t *testing.T) {
	tick := 10 * time.Millisecond
	cases := []struct{ in, want time.Duration }{
		{14 * time.Millisecond, 10 * time.Millisecond},
		{15 * time.Millisecond, 20 * time.Millisecond},
		{26 * time.Millisecond, 30 * time.Millisecond},
		{10 * time.Millisecond, 10 * time.Millisecond},
	}
	for _, c := range cases {
		if got := roundToTick(c.in, tick); got != c.want {
			t.Fatalf("roundToTick(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSubmitWithDropOutcomes(t *testing.T) {
	// Exactly one of deliver/drop runs per packet; drop fires only on
	// lottery losses, and the totals reconcile with the engine stats.
	s := sim.New(1)
	e := engine(s, constTrace(core.DelayParams{F: time.Millisecond, Vb: 100}, 0.5), Config{Tick: -1})
	const n = 400
	delivered, dropped := 0, 0
	for i := 0; i < n; i++ {
		e.SubmitWithDrop(simnet.Outbound, 1000,
			func() { delivered++ },
			func() { dropped++ })
	}
	s.Run()
	if delivered+dropped != n {
		t.Fatalf("delivered %d + dropped %d != %d submitted", delivered, dropped, n)
	}
	st := e.Stats()
	if int64(dropped) != st.Dropped {
		t.Fatalf("drop callbacks %d, engine counted %d", dropped, st.Dropped)
	}
	if dropped == 0 || delivered == 0 {
		t.Fatalf("want a mix at L=0.5, got delivered=%d dropped=%d", delivered, dropped)
	}
}

func TestSubmitWithDropNoLoss(t *testing.T) {
	s := sim.New(1)
	e := engine(s, constTrace(core.DelayParams{}, 0), Config{Tick: -1})
	drops := 0
	e.SubmitWithDrop(simnet.Outbound, 100, func() {}, func() { drops++ })
	s.Run()
	if drops != 0 {
		t.Fatalf("drop callback ran %d times on a lossless trace", drops)
	}
}
