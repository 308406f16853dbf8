// Benchmarks that regenerate every table and figure in the paper's
// evaluation (Figures 1-8) plus the ablations DESIGN.md calls out. Each
// figure benchmark runs a reduced configuration per iteration (two trials,
// smaller transfers) so `go test -bench` stays tractable; `cmd/expt`
// regenerates the full-size artifacts. Custom metrics report the headline
// quantity of each experiment so regressions in *results*, not just in
// speed, are visible.
//
// Micro-benchmarks for the hot substrate paths (checksums, marshalling,
// the modulation engine, distillation) follow the figure benchmarks.
package tracemod_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"tracemod/internal/apps/ftp"
	"tracemod/internal/capture"
	"tracemod/internal/core"
	"tracemod/internal/distill"
	"tracemod/internal/emud"
	"tracemod/internal/emud/wal"
	"tracemod/internal/expt"
	"tracemod/internal/modulation"
	"tracemod/internal/obs"
	"tracemod/internal/obs/span"
	"tracemod/internal/packet"
	"tracemod/internal/pinger"
	"tracemod/internal/replay"
	"tracemod/internal/scenario"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
	"tracemod/internal/tracefmt"
	"tracemod/internal/transport"
)

// benchOptions is the reduced per-iteration configuration. Workers rides
// the machine's parallelism — output is identical at any worker count, so
// the figure benchmarks measure the parallel harness as shipped.
func benchOptions() expt.Options {
	o := expt.Default()
	o.Trials = 2
	o.FTPSize = 4 << 20
	o.Workers = runtime.NumCPU()
	return o
}

// BenchmarkFig1DelayCompensation regenerates Figure 1: FTP store/fetch
// over the synthetic WaveLAN-like trace with and without compensation.
func BenchmarkFig1DelayCompensation(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig1(o)
		if err != nil {
			b.Fatal(err)
		}
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.ThroughputMbps3[0], "store-Mbps")
		b.ReportMetric(last.ThroughputMbps3[1], "fetchraw-Mbps")
		b.ReportMetric(last.ThroughputMbps3[2], "fetchcomp-Mbps")
	}
}

func benchScenarioFigure(b *testing.B, sc scenario.Scenario) {
	b.Helper()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := expt.FigScenario(sc, o)
		if err != nil {
			b.Fatal(err)
		}
		if sc.Motion {
			b.ReportMetric(float64(len(fig.Points)), "legs")
		} else {
			b.ReportMetric(float64(fig.SignalH.N), "samples")
		}
	}
}

// BenchmarkFig2PorterTraces regenerates Figure 2's per-checkpoint series.
func BenchmarkFig2PorterTraces(b *testing.B) { benchScenarioFigure(b, scenario.Porter) }

// BenchmarkFig3FlagstaffTraces regenerates Figure 3's series.
func BenchmarkFig3FlagstaffTraces(b *testing.B) { benchScenarioFigure(b, scenario.Flagstaff) }

// BenchmarkFig4WeanTraces regenerates Figure 4's series.
func BenchmarkFig4WeanTraces(b *testing.B) { benchScenarioFigure(b, scenario.Wean) }

// BenchmarkFig5ChatterboxTraces regenerates Figure 5's histograms.
func BenchmarkFig5ChatterboxTraces(b *testing.B) { benchScenarioFigure(b, scenario.Chatterbox) }

// BenchmarkFig6Web regenerates Figure 6 (Web benchmark table) on one
// scenario per iteration to bound cost; the metric is the modulated/real
// elapsed ratio for Porter.
func BenchmarkFig6Web(b *testing.B) {
	o := benchOptions()
	comp, err := expt.MeasureCompensation(o)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := expt.Collect(scenario.Porter, 0, o)
		if err != nil {
			b.Fatal(err)
		}
		live, err := expt.RunLive(scenario.Porter, expt.BenchWeb, 0, o)
		if err != nil {
			b.Fatal(err)
		}
		mod, err := expt.RunModulated(res.Replay, expt.BenchWeb, 0, comp, o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mod.Elapsed.Seconds()/live.Elapsed.Seconds(), "mod/real")
	}
}

// BenchmarkFig7FTP regenerates Figure 7 (FTP table, reduced size).
func BenchmarkFig7FTP(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tbl, err := expt.Fig7FTP(o)
		if err != nil {
			b.Fatal(err)
		}
		agree := 0
		for _, row := range tbl.Rows {
			if row.Send.Agrees() {
				agree++
			}
			if row.Recv.Agrees() {
				agree++
			}
		}
		b.ReportMetric(float64(agree), "cells-agreeing")
		b.ReportMetric(tbl.EthernetSend.Mean, "eth-send-s")
	}
}

// BenchmarkFig8Andrew regenerates Figure 8 on one scenario per iteration;
// the metric is the modulated/real total-time ratio for Wean.
func BenchmarkFig8Andrew(b *testing.B) {
	o := benchOptions()
	comp, err := expt.MeasureCompensation(o)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := expt.Collect(scenario.Wean, 0, o)
		if err != nil {
			b.Fatal(err)
		}
		live, err := expt.RunLive(scenario.Wean, expt.BenchAndrew, 0, o)
		if err != nil {
			b.Fatal(err)
		}
		mod, err := expt.RunModulated(res.Replay, expt.BenchAndrew, 0, comp, o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mod.Elapsed.Seconds()/live.Elapsed.Seconds(), "mod/real")
		b.ReportMetric(mod.Phases.ScanDir.Seconds(), "mod-scandir-s")
	}
}

// BenchmarkAblationTickGranularity sweeps the modulation scheduling tick
// (the Section 5.4 conjecture).
func BenchmarkAblationTickGranularity(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := expt.AblateTick(o)
		if err != nil {
			b.Fatal(err)
		}
		// Exact-vs-10ms ScanDir difference: the under-delay magnitude.
		b.ReportMetric(r.Rows[2].ScanDir.Seconds()-r.Rows[0].ScanDir.Seconds(), "scandir-underdelay-s")
	}
}

// BenchmarkAblationCompensation sweeps the compensation magnitude.
func BenchmarkAblationCompensation(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := expt.AblateCompensation(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].FetchRatio, "fetch/store-raw")
		b.ReportMetric(r.Rows[2].FetchRatio, "fetch/store-comp")
	}
}

// BenchmarkAblationWindowWidth sweeps the distillation window width.
func BenchmarkAblationWindowWidth(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := expt.AblateWindow(o)
		if err != nil {
			b.Fatal(err)
		}
		best := r.Rows[0].ErrorPct
		for _, row := range r.Rows {
			if row.ErrorPct < best {
				best = row.ErrorPct
			}
		}
		b.ReportMetric(best, "best-err-pct")
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkChecksum measures the RFC 1071 checksum over an MTU payload.
func BenchmarkChecksum(b *testing.B) {
	buf := make([]byte, packet.MTU)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packet.Checksum(buf, 0)
	}
}

// BenchmarkMarshalTCP measures full-segment serialization with checksum.
func BenchmarkMarshalTCP(b *testing.B) {
	payload := make([]byte, transport.MSS)
	src, dst := packet.IP4(10, 0, 0, 1), packet.IP4(10, 0, 0, 2)
	f := packet.TCPFields{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: packet.TCPAck}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packet.MarshalTCP(f, src, dst, payload)
	}
}

// BenchmarkDecode measures the zero-copy layer classification.
func BenchmarkDecode(b *testing.B) {
	seg := packet.MarshalTCP(packet.TCPFields{SrcPort: 1, DstPort: 2}, packet.IP4(10, 0, 0, 1), packet.IP4(10, 0, 0, 2), make([]byte, 512))
	ip := packet.MarshalIPv4(packet.IPv4Fields{TTL: 64, Protocol: packet.ProtoTCP, Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 0, 0, 2)}, seg)
	b.SetBytes(int64(len(ip)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packet.Decode(ip); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSubmit measures one packet through the modulation layer
// (exact scheduling, no drops).
func BenchmarkEngineSubmit(b *testing.B) {
	s := sim.New(1)
	trace := replay.Constant(core.DelayParams{F: time.Millisecond, Vb: 1000, Vr: 100}, 0, time.Hour, time.Second)
	eng := modulation.NewEngine(modulation.SimClock{S: s}, &modulation.SliceSource{Trace: trace}, modulation.Config{Tick: -1, RNG: rand.New(rand.NewSource(1))})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SubmitWithDrop(simnet.Outbound, 1500, func() {}, nil)
		if i%1024 == 0 {
			b.StopTimer()
			s.RunUntil(s.Now().Add(time.Hour)) // drain scheduled deliveries
			b.StartTimer()
		}
	}
}

// BenchmarkEngineSubmitBatch measures the same workload entering the
// engine as 32-packet bursts through SubmitBatch — one lock acquisition,
// one clock read, and one cached-cursor walk amortized over the burst.
// ns/op is per packet, directly comparable to BenchmarkEngineSubmit.
func BenchmarkEngineSubmitBatch(b *testing.B) {
	s := sim.New(1)
	trace := replay.Constant(core.DelayParams{F: time.Millisecond, Vb: 1000, Vr: 100}, 0, time.Hour, time.Second)
	eng := modulation.NewEngine(modulation.SimClock{S: s}, &modulation.SliceSource{Trace: trace}, modulation.Config{Tick: -1, RNG: rand.New(rand.NewSource(1))})
	deliver := func() {}
	subs := make([]modulation.Submission, 32)
	for i := range subs {
		subs[i] = modulation.Submission{Dir: simnet.Outbound, Size: 1500, Deliver: deliver}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(subs) {
		eng.SubmitBatch(subs)
		if i%1024 == 0 {
			b.StopTimer()
			s.RunUntil(s.Now().Add(time.Hour)) // drain scheduled deliveries
			b.StartTimer()
		}
	}
}

// engineHotPathBench drives the packet hot path — immediate deliveries,
// no timers — with observability off or on, so the two configurations are
// directly comparable.
func engineHotPathBench(withObs bool) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		s := sim.New(1)
		// One hour-long tuple with zero costs: every packet takes the
		// immediate path and no scheduling timers fire.
		trace := replay.Constant(core.DelayParams{}, 0, time.Hour, time.Hour)
		cfg := modulation.Config{RNG: rand.New(rand.NewSource(1))}
		if withObs {
			cfg.Metrics = obs.NewRegistry()
			cfg.Tracer = obs.NewRingTracer(0)
		}
		eng := modulation.NewEngine(modulation.SimClock{S: s}, &modulation.SliceSource{Trace: trace}, cfg)
		deliver := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.SubmitWithDrop(simnet.Outbound, 1500, deliver, nil)
		}
	}
}

// BenchmarkEngineSubmitObsDisabled measures the packet hot path with
// telemetry off — the default every simulation and relay runs with.
func BenchmarkEngineSubmitObsDisabled(b *testing.B) { engineHotPathBench(false)(b) }

// BenchmarkEngineSubmitObsEnabled measures the same path with the full
// metric set and event tracer attached, to keep the observation cost
// visible.
func BenchmarkEngineSubmitObsEnabled(b *testing.B) { engineHotPathBench(true)(b) }

// TestObsDisabledHotPathAddsNoAllocs is the regression guard for the
// observability layer's core promise: with telemetry off, the packet hot
// path performs zero allocations per packet.
func TestObsDisabledHotPathAddsNoAllocs(t *testing.T) {
	res := testing.Benchmark(BenchmarkEngineSubmitObsDisabled)
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("obs-disabled hot path: %d allocs/op, want 0", allocs)
	}
}

// spanHotPathBench drives the span-threading entry point (SubmitSpan, the
// call every emud session and traced relay makes) on the immediate-delivery
// hot path, in the three tracing configurations that must stay cheap:
// tracing off entirely, a tracer attached but this packet unsampled, and
// no parent with a sampling tracer configured on the engine.
func spanHotPathBench(tr *span.Tracer) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		s := sim.New(1)
		trace := replay.Constant(core.DelayParams{}, 0, time.Hour, time.Hour)
		cfg := modulation.Config{RNG: rand.New(rand.NewSource(1)), Spans: tr}
		eng := modulation.NewEngine(modulation.SimClock{S: s}, &modulation.SliceSource{Trace: trace}, cfg)
		deliver := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.SubmitSpan(simnet.Outbound, 1500, nil, deliver, nil)
		}
	}
}

// BenchmarkEngineSubmitSpansDisabled measures SubmitSpan with no tracer at
// all — emud's default. It must match the plain Submit hot path: zero
// allocations, a nil check of overhead.
func BenchmarkEngineSubmitSpansDisabled(b *testing.B) { spanHotPathBench(nil)(b) }

// BenchmarkEngineSubmitSpansUnsampled measures SubmitSpan with a tracer
// configured at a tiny sampling rate, on packets the sampler skips — the
// steady-state cost of running a farm with -trace-sample 0.01. The only
// overhead allowed is the sampling counter.
func BenchmarkEngineSubmitSpansUnsampled(b *testing.B) {
	spanHotPathBench(span.New(span.Config{Sample: 1e-9, Seed: 1}))(b)
}

// TestSpansDisabledHotPathAddsNoAllocs guards the span layer's core
// promise: with tracing disabled — or enabled but the packet unsampled —
// the hot path performs zero allocations per packet.
func TestSpansDisabledHotPathAddsNoAllocs(t *testing.T) {
	if res := testing.Benchmark(BenchmarkEngineSubmitSpansDisabled); res.AllocsPerOp() != 0 {
		t.Fatalf("spans-disabled hot path: %d allocs/op, want 0", res.AllocsPerOp())
	}
	if res := testing.Benchmark(BenchmarkEngineSubmitSpansUnsampled); res.AllocsPerOp() != 0 {
		t.Fatalf("spans-unsampled hot path: %d allocs/op, want 0", res.AllocsPerOp())
	}
}

// mallocsPerRun is testing.AllocsPerRun without its rounding down: the
// mean number of heap allocations per call of f over runs calls, after
// one warm-up call, counted on one P as AllocsPerRun counts them.
// AllocsPerRun truncates the mean, so 199 allocations in 200 calls read
// as 0. The count is the fewest of three rounds: a garbage collection
// that set-up started can end during a round, and the runtime's own work
// after a cycle allocates on another goroutine (the unique package's map
// cleanup, 2 objects). A loop that allocates nothing starts no further
// cycle, so a later round is clean, while an allocation f makes shows in
// every round.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var fewest uint64
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; round == 0 || n < fewest {
			fewest = n
		}
	}
	return float64(fewest) / float64(runs)
}

// simUDPDatagramAllocs is the steady-state allocation count of one 512-byte
// UDP datagram carried from a laptop socket across the routed wireless
// testbed (WaveLAN cell, gateway, campus Ethernet) into a server socket
// and a receiving process, which gives the buffer back.
func simUDPDatagramAllocs() float64 {
	s := sim.New(1)
	defer s.Close()
	tb := scenario.BuildWireless(s, scenario.Wean)
	cs, _ := transport.NewUDP(tb.Laptop).Bind(0)
	ss, _ := transport.NewUDP(tb.Server).Bind(2049)
	s.Spawn("sink", func(p *sim.Proc) {
		for {
			d, ok := ss.Recv(p)
			if !ok {
				return
			}
			ss.Release(d)
		}
	})
	data := make([]byte, 512)
	send := func() {
		cs.SendTo(scenario.ServerIP, 2049, data)
		s.RunFor(50 * time.Millisecond)
	}
	send()
	return mallocsPerRun(200, send)
}

// simTCPSegmentAllocs is the steady-state allocation count of one
// full-sized TCP data segment on an established connection over the
// isolated Ethernet: the writer's Write, the segment, its ACK, and the
// reader's Read into its own buffer.
func simTCPSegmentAllocs() float64 {
	s := sim.New(1)
	defer s.Close()
	tb := scenario.BuildEthernet(s)
	ct, st := transport.NewTCP(tb.Laptop), transport.NewTCP(tb.Server)
	l, _ := st.Listen(20)
	s.Spawn("reader", func(p *sim.Proc) {
		c, ok := l.Accept(p)
		if !ok {
			return
		}
		buf := make([]byte, 64<<10)
		for {
			if _, err := c.Read(p, buf); err != nil {
				return
			}
		}
	})
	kick := sim.NewChan[struct{}](s, 1)
	s.Spawn("writer", func(p *sim.Proc) {
		c, err := ct.Dial(p, scenario.ModServer, 20)
		if err != nil {
			return
		}
		seg := make([]byte, transport.MSS)
		for {
			if _, ok := kick.Recv(p); !ok {
				return
			}
			c.Write(p, seg)
		}
	})
	s.RunFor(time.Second)
	send := func() {
		kick.TrySend(struct{}{})
		s.RunFor(50 * time.Millisecond)
	}
	send()
	return mallocsPerRun(200, send)
}

// TestSimPacketPathAllocs caps allocations on the simulated packet path.
// Each datagram is written once, into a buffer from the scheduler's
// datagram free list, and handed down and across the network without
// copies; its last owner (the receiving process, the receiving transport,
// or a drop point) gives the buffer back. Channel waits reuse their
// waiters, and the connection's send and receive queues reuse their
// memory. So a UDP datagram, socket to receiving process, allocates
// nothing, and neither does a TCP segment: the segment and its ACK
// recycle their buffers, and Read fills the reader's own buffer. Both
// halves count every allocation over their 200 sends, unrounded. (A path
// that re-serialized the datagram at each layer, with queues that
// regrew, measured 19 and 31; one that allocated each datagram once, with
// a fresh waiter per wait, measured 2 and 7; one where Read returned a
// fresh slice measured 0 and 1; a UDP sink that never released its
// datagrams measured 0.995, which AllocsPerRun rounds down to 0.)
func TestSimPacketPathAllocs(t *testing.T) {
	if a := simUDPDatagramAllocs(); a > 0 {
		t.Errorf("UDP datagram across the wireless testbed: %.3f allocs, ceiling 0", a)
	}
	if a := simTCPSegmentAllocs(); a > 0 {
		t.Errorf("TCP data segment: %.3f allocs, ceiling 0", a)
	}
}

// BenchmarkDistill measures distillation of a five-minute collected trace.
func BenchmarkDistill(b *testing.B) {
	s := sim.New(3)
	tb := scenario.BuildWireless(s, scenario.Porter)
	pinger.Start(s, tb.Laptop, scenario.ServerIP, scenario.Porter.Profile.Duration())
	tr, err := capture.Collect(s, tb.Laptop.NIC(0), 1<<16, scenario.Porter.Profile.Duration(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distill.Distill(tr, distill.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// simTCPTransfer runs one 1 MB FTP send over a fresh simulated Ethernet.
func simTCPTransfer(tb testing.TB, seed int64) {
	s := sim.New(seed)
	net := scenario.BuildEthernet(s)
	ct, st := transport.NewTCP(net.Laptop), transport.NewTCP(net.Server)
	ftp.Serve(s, st)
	done := false
	s.Spawn("bench", func(p *sim.Proc) {
		if _, err := ftp.Transfer(p, ct, scenario.ModServer, ftp.Send, 1<<20, 0); err != nil {
			tb.Error(err)
		}
		done = true
	})
	s.RunUntil(sim.Time(time.Hour))
	s.Close()
	if !done {
		tb.Fatal("transfer did not finish")
	}
}

// BenchmarkSimTCPTransfer measures simulator throughput end to end: a
// 1 MB TCP transfer over a clean simulated LAN per iteration.
func BenchmarkSimTCPTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		simTCPTransfer(b, int64(i))
	}
}

// TestSimTCPTransferAllocBytes caps the bytes one 1 MB simulated FTP send
// allocates, set-up and teardown of its world included. The byte queues
// grow to twice their contents and recycle through their stack, and the
// server discards what it reads without a copy, so a transfer measures
// 316,700 B; the ceiling leaves it about 30% headroom. (Queues that grew
// from empty per connection and a fresh slice per read measured
// 1,279,842 B.)
func TestSimTCPTransferAllocBytes(t *testing.T) {
	const transfers = 4
	var before, after runtime.MemStats
	simTCPTransfer(t, 0) // warm the runtime's and packages' one-time state
	runtime.ReadMemStats(&before)
	for i := 1; i <= transfers; i++ {
		simTCPTransfer(t, int64(i))
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / transfers
	t.Logf("%.0f bytes allocated per 1 MB transfer", perOp)
	const ceiling = 400 << 10
	if perOp > ceiling {
		t.Errorf("a 1 MB simulated transfer allocates %.0f bytes, ceiling %d", perOp, ceiling)
	}
}

// BenchmarkSimProcSwitch measures one simulated process handoff: a Sleep
// parks the process and its wakeup event switches back into it, so each
// op is one park/unpark pair through the scheduler's event loop.
func BenchmarkSimProcSwitch(b *testing.B) {
	s := sim.New(1)
	s.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkSimTimerChurn measures the retransmit-timer pattern of
// simulated TCP: each op is one ACK on one of 32 connections, which stops
// that connection's pending retransmit timer and re-arms it a second
// out, then one short event (the next segment's arrival) fires. The
// re-armed timers never come due, so every stopped one is work the
// event queue does for nothing but the Stop.
func BenchmarkSimTimerChurn(b *testing.B) {
	const conns = 32
	s := sim.New(1)
	fn := func() {}
	rto := make([]sim.Timer, conns)
	for i := range rto {
		rto[i] = s.AfterTimer(time.Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &rto[i%conns]
		t.Stop()
		*t = s.AfterTimer(time.Second, fn)
		s.After(time.Millisecond, fn)
		s.RunFor(time.Millisecond)
	}
}

// BenchmarkCollection measures a full collection traversal (pinger +
// tracer + daemon) of the Wean scenario.
func BenchmarkCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New(int64(i))
		tb := scenario.BuildWireless(s, scenario.Wean)
		pinger.Start(s, tb.Laptop, scenario.ServerIP, scenario.Wean.Profile.Duration())
		tr, err := capture.Collect(s, tb.Laptop.NIC(0), 1<<16, scenario.Wean.Profile.Duration(), "bench")
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Packets) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkChatterboxCell measures one Figure 7 cell where the most
// traffic runs beside the benchmark: per iteration, a Chatterbox
// collection, then the live and the modulated 1 MB FTP send of trial 0.
// A run ends when its benchmark returns, so allocs/op counts the cell's
// work and grows if the runs outlive their result (the five interferers
// and the looping modulation daemon would keep allocating).
func BenchmarkChatterboxCell(b *testing.B) {
	o := expt.Default()
	o.FTPSize = 1 << 20
	comp, err := expt.MeasureCompensation(o)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := expt.Collect(scenario.Chatterbox, 0, o)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := expt.RunLive(scenario.Chatterbox, expt.BenchFTPSend, 0, o); err != nil {
			b.Fatal(err)
		}
		if _, err := expt.RunModulated(res.Replay, expt.BenchFTPSend, 0, comp, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmudSessionFarm is the daemon load benchmark: ≥1000 concurrent
// sessions on one shared timer wheel, each holding packets in flight, per
// iteration. The reported metrics make the scaling claim checkable —
// goroutines-per-session must stay near zero (the wheel gives O(shards),
// not O(in-flight packets)) and every submitted packet must resolve to a
// delivery or a lottery drop during the drain.
func BenchmarkEmudSessionFarm(b *testing.B) {
	const (
		sessions   = 1000
		perSession = 10
	)
	tr := replay.Constant(core.DelayParams{F: 20 * time.Millisecond, Vb: 100}, 0.1, time.Hour, time.Hour)
	for i := 0; i < b.N; i++ {
		m := emud.NewManager(emud.Options{
			Shards:      8,
			Granularity: 10 * time.Millisecond,
			MaxSessions: sessions,
		})
		base := runtime.NumGoroutine()
		ss := make([]*emud.Session, sessions)
		for j := range ss {
			s, err := m.Create(emud.SessionConfig{Trace: tr, Loop: true, Seed: int64(j)})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			ss[j] = s
		}
		var delivered, dropped atomic.Int64
		for _, s := range ss {
			for k := 0; k < perSession; k++ {
				s.SubmitWithDrop(simnet.Outbound, 512, func() { delivered.Add(1) }, func() { dropped.Add(1) })
			}
		}
		peak := runtime.NumGoroutine()
		m.Close() // graceful drain: every in-flight packet resolves
		if got := delivered.Load() + dropped.Load(); got != sessions*perSession {
			b.Fatalf("resolved %d of %d packets", got, sessions*perSession)
		}
		b.ReportMetric(float64(peak-base)/sessions, "goroutines/session")
		b.ReportMetric(float64(delivered.Load())/sessions, "delivered/session")
		b.ReportMetric(float64(dropped.Load())/float64(sessions*perSession), "drop-rate")
	}
}

// BenchmarkControlPlaneSessionCycle measures one tenant's session
// lifecycle through the hardened control-plane handler, metrics on as the
// daemon runs it: POST /v1/sessions with an inline trace and an
// Idempotency-Key, GET the session, DELETE it. No listener is involved,
// so the figure is the control plane's own cost per cycle: routing,
// idempotency bookkeeping, session build and teardown.
func BenchmarkControlPlaneSessionCycle(b *testing.B) {
	b.ReportAllocs()
	reg := obs.NewRegistry()
	m := emud.NewManager(emud.Options{Metrics: reg, Granularity: 10 * time.Millisecond})
	defer m.Close()
	h := emud.NewAPI(m, reg, nil).Handler()
	body := []byte(`{"inline":[{"duration_sec":30,"latency_ms":20,"vb_ns_per_byte":800,"loss":0.01},` +
		`{"duration_sec":30,"latency_ms":40,"vb_ns_per_byte":1600,"loss":0.02}],"seed":7}`)
	do := func(method, target string, body []byte, key string, want int) []byte {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			b.Fatalf("%s %s = %d, want %d: %s", method, target, rec.Code, want, rec.Body)
		}
		return rec.Body.Bytes()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var si emud.SessionInfo
		raw := do(http.MethodPost, "/v1/sessions", body, "cycle-"+strconv.Itoa(i), http.StatusCreated)
		if err := json.Unmarshal(raw, &si); err != nil {
			b.Fatal(err)
		}
		do(http.MethodGet, "/v1/sessions/"+si.ID, nil, "", http.StatusOK)
		do(http.MethodDelete, "/v1/sessions/"+si.ID, nil, "", http.StatusNoContent)
	}
}

// streamIngestBytes synthesizes a collected trace of the given duration
// in wire format, the input one live-ingest upload carries. ~205 bytes
// per traced second: four echo pairs, sorted by timestamp.
func streamIngestBytes(seconds int) []byte {
	const s1, s2 = 60, 1028
	params := core.DelayParams{F: 2 * time.Millisecond, Vb: 5000, Vr: 800}
	tr := &tracefmt.Trace{Header: tracefmt.Header{Device: "wavelan0"}}
	seq := uint16(0)
	for sec := 0; sec < seconds; sec++ {
		base := int64(sec) * int64(time.Second)
		emit := func(size int, rtt time.Duration) {
			seq++
			tr.Packets = append(tr.Packets, tracefmt.PacketRecord{
				At: base, Dir: tracefmt.DirOut, Size: uint16(size),
				Protocol: packet.ProtoICMP, ICMPType: packet.ICMPEcho, ID: 1, Seq: seq, RTT: -1,
			})
			tr.Packets = append(tr.Packets, tracefmt.PacketRecord{
				At: base + int64(rtt), Dir: tracefmt.DirIn, Size: uint16(size),
				Protocol: packet.ProtoICMP, ICMPType: packet.ICMPEchoReply, ID: 1, Seq: seq, RTT: int64(rtt),
			})
		}
		emit(s1, params.RoundTrip(s1))
		emit(s2, params.RoundTrip(s2))
		emit(s2, params.RoundTrip(s2))
		emit(s2, params.RoundTrip(s2)+params.Vb.Cost(s2))
	}
	sort.SliceStable(tr.Packets, func(i, j int) bool { return tr.Packets[i].At < tr.Packets[j].At })
	var buf bytes.Buffer
	if err := tracefmt.WriteAll(&buf, tr); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// BenchmarkStreamIngest measures the durable live-ingest path end to end:
// a five-minute collected trace uploaded in 4 KB chunks through a
// WAL-backed stream (fsync batched on the interval policy, as a tuned
// deployment runs it), distilled incrementally, and sealed. Per-op bytes
// track the upload size so throughput is comparable across runs.
func BenchmarkStreamIngest(b *testing.B) {
	b.ReportAllocs()
	data := streamIngestBytes(300)
	m := emud.NewManager(emud.Options{
		Granularity:   time.Millisecond,
		StreamWALDir:  b.TempDir(),
		StreamWALSync: wal.SyncInterval,
	})
	defer m.Close()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := m.Streams().Create(emud.StreamConfig{Name: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < len(data); off += 4096 {
			end := off + 4096
			if end > len(data) {
				end = len(data)
			}
			if err := st.Write(data[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		sum, err := st.Finish()
		if err != nil {
			b.Fatal(err)
		}
		if len(sum.Replay) == 0 {
			b.Fatal("empty distilled replay")
		}
		b.StopTimer()
		m.Streams().Delete("bench")
		b.StartTimer()
	}
}

// BenchmarkTraceWriteRead measures tracefmt serialization round trips.
func BenchmarkTraceWriteRead(b *testing.B) {
	tr := &tracefmt.Trace{Header: tracefmt.Header{Device: "wavelan0"}}
	for i := 0; i < 2000; i++ {
		tr.Packets = append(tr.Packets, tracefmt.PacketRecord{
			At: int64(i) * 1e6, Size: 1028, Protocol: 1, ICMPType: 8, Seq: uint16(i), RTT: -1,
		})
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tracefmt.WriteAll(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := tracefmt.ReadAll(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
