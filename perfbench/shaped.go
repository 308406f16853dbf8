package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tracemod/internal/capture"
	"tracemod/internal/core"
	"tracemod/internal/distill/stream"
	"tracemod/internal/emud"
	"tracemod/internal/expt"
	"tracemod/internal/modulation"
	"tracemod/internal/pinger"
	"tracemod/internal/scenario"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
	"tracemod/internal/tracefmt"
)

const (
	shapedSessions = 128
	shapedTraces   = 6    // distinct seeded Wean collections per set-up
	shapedCollect  = 60   // seconds of Wean traversal per collection
	shapedRate     = 1000 // aggregate outbound datagrams per second
	shapedMinSize  = 64
	shapedMaxSize  = 1400
	shapedEchoFrac = 0.25
	shapedSetups   = 5
)

// ---- seeded collected traces ---------------------------------------------

// collectWean runs the paper's collection tools over the first secs
// seconds of the Wean traversal in the simulator and returns the
// collected trace, encoded. The seed selects the traversal's randomness.
func collectWean(seed int64, secs int) ([]byte, error) {
	s := sim.New(seed)
	tb := scenario.BuildWireless(s, scenario.Wean)
	dur := time.Duration(secs) * time.Second
	pinger.Start(s, tb.Laptop, scenario.ServerIP, dur)
	tr, err := capture.Collect(s, tb.Laptop.NIC(0), 1<<16, dur, fmt.Sprintf("perfbench wean seed %d", seed))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tracefmt.WriteAll(&buf, tr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// streamDistill distills encoded collected-trace bytes through the
// incremental reader and the streaming distiller, in chunk-sized feeds.
func streamDistill(data []byte, chunk int) (core.Trace, error) {
	r := tracefmt.NewStreamReader(tracefmt.StreamOptions{})
	d := stream.New(stream.Config{})
	for off := 0; off < len(data); off += chunk {
		if err := r.Feed(data[off:min(off+chunk, len(data))]); err != nil {
			return nil, err
		}
		recs, err := r.ReadAvailable()
		for _, rec := range recs {
			if ierr := d.Ingest(rec); ierr != nil {
				return nil, ierr
			}
		}
		if err != nil {
			return nil, err
		}
	}
	recs, _, err := r.Finish()
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if err := d.Ingest(rec); err != nil {
			return nil, err
		}
	}
	sum, err := d.Close()
	if err != nil {
		return nil, err
	}
	return sum.Replay, nil
}

// ---- the modelled-delay oracle -------------------------------------------

// oracleEvent is one packet as the live engine was offered it: when (on
// the engine's clock, zero at engine start), which way, how big.
type oracleEvent struct {
	At   time.Duration
	Dir  simnet.Direction
	Size int
	ID   int
}

// oracleOutcome is the model's verdict for one packet.
type oracleOutcome struct {
	Delivered bool
	At        time.Duration // delivery instant on the engine's clock
}

// oracleSession describes one live session's engine so the oracle can
// rebuild it.
type oracleSession struct {
	Trace        core.Trace
	Skip         int64
	Seed         int64
	InboundExtra core.PerByte
	Compensation core.PerByte
}

// oracle replays events (sorted by At) through a fresh modulation.Engine
// on a simulated clock, configured exactly as the live session's engine
// (same trace, skip, lottery seed, exact tick and compensation), and
// returns each packet's modelled outcome, in event order.
func oracle(cfg oracleSession, events []oracleEvent) []oracleOutcome {
	out := make([]oracleOutcome, len(events))
	s := sim.New(0)
	src := &modulation.SliceSource{Trace: cfg.Trace, Loop: true}
	src.Skip(cfg.Skip)
	eng := modulation.NewEngine(modulation.SimClock{S: s}, src, modulation.Config{
		Tick:         -1,
		InboundExtra: cfg.InboundExtra,
		Compensation: cfg.Compensation,
		RNG:          rand.New(rand.NewSource(cfg.Seed)),
	})
	var last time.Duration
	for i, ev := range events {
		s.At(sim.Time(ev.At), func() {
			eng.SubmitWithDrop(ev.Dir, ev.Size, func() {
				out[i] = oracleOutcome{Delivered: true, At: s.Now().Duration()}
			}, func() {})
		})
		last = max(last, ev.At)
	}
	// Long enough for the slowest delivery the trace can schedule.
	s.RunUntil(sim.Time(last + time.Hour))
	return out
}

// ---- relay_shaped ------------------------------------------------------

// shapedPkt is one scheduled datagram and what became of it. Each field
// after the schedule is written by exactly one goroutine and read only
// after all of them have stopped.
type shapedPkt struct {
	due  int64 // scheduled send time, ns since epoch
	sess int32
	size int32
	echo bool

	sentAt   int64 // actual outbound send
	outRecv  int64 // sink receive (0: never)
	echoSent int64 // sink's echo send (0: none)
	inRecv   int64 // client receive of the echo (0: never)
}

// shapedRig is one set-up instance of relay_shaped.
type shapedRig struct {
	f          *farm
	send, sink *net.UDPConn
	sessions   []oracleSession
	// distillNS and distillBytes time the streaming distillation of the
	// collected traces.
	distillNS, distillBytes float64
}

func (g *shapedRig) close() {
	g.f.close()
	g.send.Close()
	g.sink.Close()
}

func setupShaped(seed int64, sp *spans) (*shapedRig, error) {
	o := expt.Default()
	o.BaseSeed = seed
	comp, err := expt.MeasureCompensation(o)
	if err != nil {
		return nil, err
	}
	traces := make([]core.Trace, shapedTraces)
	var distillNS, distillBytes float64
	for i := range traces {
		data, err := collectWean(seed*1000+int64(i), shapedCollect)
		if err != nil {
			return nil, err
		}
		t0, st0 := time.Now(), sp.now()
		if traces[i], err = streamDistill(data, 16<<10); err != nil {
			return nil, fmt.Errorf("distill trace %d: %w", i, err)
		}
		distillNS += float64(time.Since(t0))
		distillBytes += float64(len(data))
		sp.add("stream.distill", st0, sp.now(), -1, int64(i), false)
	}
	rng := rand.New(rand.NewSource(seed))
	sessions := make([]oracleSession, shapedSessions)
	for i := range sessions {
		tr := traces[i%len(traces)]
		sessions[i] = oracleSession{
			Trace:        tr,
			Skip:         rng.Int63n(int64(len(tr))),
			Seed:         rng.Int63(),
			InboundExtra: expt.PhysicalInboundExtra(),
			Compensation: comp,
		}
	}
	send, err := listenUDP()
	if err != nil {
		return nil, err
	}
	sink, err := listenUDP()
	if err != nil {
		send.Close()
		return nil, err
	}
	f, err := newFarm(farmSpec{
		n:           shapedSessions,
		granularity: -1,
		target:      sink.LocalAddr().String(),
		sp:          sp,
		session: func(i int) emud.SessionConfig {
			c := sessions[i]
			return emud.SessionConfig{
				Name: fmt.Sprintf("shaped-%d", i), Trace: c.Trace, Loop: true,
				Tick: -1, Seed: c.Seed, SkipTuples: c.Skip,
				InboundExtra: c.InboundExtra, Compensation: c.Compensation,
			}
		},
	})
	if err != nil {
		send.Close()
		sink.Close()
		return nil, err
	}
	return &shapedRig{f: f, send: send, sink: sink, sessions: sessions,
		distillNS: distillNS, distillBytes: distillBytes}, nil
}

// sleepUntil blocks until the run clock reads at (ns since epoch). The
// runtime's timers wake up to a millisecond late here, which would add
// the generator's own lateness to every packet's delivery error, so the
// last stretch is a nanosleep on the generator's locked OS thread.
func sleepUntil(epoch time.Time, at int64) {
	const coarse = 1500 * time.Microsecond
	if d := time.Duration(at - int64(time.Since(epoch))); d > 2*coarse {
		time.Sleep(d - coarse)
	}
	if d := time.Duration(at - int64(time.Since(epoch))); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// shapedSchedule draws the open-loop offer: Poisson arrivals at
// shapedRate spread uniformly over the sessions, uniform sizes, and a
// seeded quarter marked for echo.
func shapedSchedule(seed int64, start, length time.Duration) []shapedPkt {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var pkts []shapedPkt
	t := float64(start)
	end := float64(start + length)
	for {
		t += rng.ExpFloat64() / shapedRate * float64(time.Second)
		if t >= end {
			return pkts
		}
		pkts = append(pkts, shapedPkt{
			due:  int64(t),
			sess: int32(rng.Intn(shapedSessions)),
			size: int32(shapedMinSize + rng.Intn(shapedMaxSize-shapedMinSize+1)),
			echo: rng.Float64() < shapedEchoFrac,
		})
	}
}

// runShaped offers an open-loop seeded schedule through 128 trace-shaped
// sessions, echoes a quarter back inbound, and compares every delivery
// against the modelled delay. Op = one datagram delivered; the latency
// metrics are the delivery error (observed minus modelled one-way delay).
func runShaped(cfg runConfig) (*result, error) {
	res := newResult()
	rig, setup, err := setupTimes(shapedSetups, func() (*shapedRig, error) { return setupShaped(cfg.seed, cfg.sp) }, (*shapedRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	res.e2e["setup_s"] = setup
	res.note("setup: median of %d set-ups (compensation measurement, %d Wean collections distilled by the streaming distiller, %d sessions + relays)",
		shapedSetups, shapedTraces, shapedSessions)

	epoch := time.Now()
	lead := 20 * time.Millisecond
	warm := warmup(cfg.seconds)
	timed := time.Duration(cfg.seconds * float64(time.Second))
	pkts := shapedSchedule(cfg.seed, lead, warm+timed)
	timedFrom, timedTo := int64(lead+warm), int64(lead+warm+timed)

	var corrupt, dup atomic.Int64
	var recvd, echoes, timedOps atomic.Int64
	var wg sync.WaitGroup
	inTimed := func(now int64) bool { return now >= timedFrom && now < timedTo }

	// Sink: receives outbound datagrams, echoes the marked ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			nr, from, err := rig.sink.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			now := int64(time.Since(epoch))
			relay, seq, _, flags, ok := decodePkt(buf[:nr])
			if !ok || seq >= uint64(len(pkts)) || flags != 0 {
				corrupt.Add(1)
				continue
			}
			p := &pkts[seq]
			if int(p.sess) != int(relay) || int(p.size) != nr {
				corrupt.Add(1)
				continue
			}
			if p.outRecv != 0 {
				dup.Add(1)
				continue
			}
			p.outRecv = now
			recvd.Add(1)
			if inTimed(now) {
				timedOps.Add(1)
			}
			if p.echo {
				binBuf := buf[:nr]
				binBuf[20] = flagInbound
				sealPkt(binBuf)
				p.echoSent = int64(time.Since(epoch))
				echoes.Add(1)
				_, _ = rig.sink.WriteToUDPAddrPort(binBuf, from)
			}
		}
	}()
	// Client side: receives the echoes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			nr, err := rig.send.Read(buf)
			if err != nil {
				return
			}
			now := int64(time.Since(epoch))
			relay, seq, _, flags, ok := decodePkt(buf[:nr])
			if !ok || seq >= uint64(len(pkts)) || flags != flagInbound {
				corrupt.Add(1)
				continue
			}
			p := &pkts[seq]
			if int(p.sess) != int(relay) || int(p.size) != nr || !p.echo {
				corrupt.Add(1)
				continue
			}
			if p.inRecv != 0 {
				dup.Add(1)
				continue
			}
			p.inRecv = now
			recvd.Add(1)
			if inTimed(now) {
				timedOps.Add(1)
			}
		}
	}()

	// Generator: sends each datagram at its due time.
	var peak atomic.Int64
	stopSampler := make(chan struct{})
	var swg sync.WaitGroup
	if cfg.sp != nil {
		swg.Add(1)
		go rig.f.pendingSampler(stopSampler, &swg, &peak)
	}
	genLate := &hist{}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var m *meter
	sl := &slicer{}
	slices := int64(sliceCount(cfg.seconds))
	nextSlice := int64(0) // index of the next slice boundary to mark
	sliceAt := func(k int64) int64 { return timedFrom + k*(timedTo-timedFrom)/slices }
	out := make([]byte, shapedMaxSize)
	var sent int64
	for i := range pkts {
		p := &pkts[i]
		if m == nil && p.due >= timedFrom {
			if d := time.Duration(timedFrom - int64(time.Since(epoch))); d > 0 {
				time.Sleep(d)
			}
			m = startMeter()
			sl.mark(timedOps.Load())
			nextSlice = 1
		}
		sleepUntil(epoch, p.due)
		for m != nil && nextSlice < slices && int64(time.Since(epoch)) >= sliceAt(nextSlice) {
			sl.mark(timedOps.Load())
			nextSlice++
		}
		b := out[:p.size]
		encodePkt(b, uint32(p.sess), uint64(i), p.due, 0)
		p.sentAt = int64(time.Since(epoch))
		if _, err := rig.send.WriteToUDPAddrPort(b, rig.f.addrs[p.sess]); err != nil {
			return nil, err
		}
		sent++
		if p.due >= timedFrom {
			genLate.record(p.sentAt - p.due)
		}
	}
	if d := time.Duration(timedTo - int64(time.Since(epoch))); d > 0 {
		time.Sleep(d)
	}
	sl.mark(timedOps.Load())
	m.stop()
	close(stopSampler)
	swg.Wait()

	// Drain: wait until every datagram (and every echo the sink sent) is
	// delivered or lottery-dropped.
	expected := func() int64 { return sent + echoes.Load() }
	drain(func() bool {
		return recvd.Load()+rig.f.sessionTotals().Dropped >= expected() && rig.f.sessionTotals().InFlight == 0
	}, 3*time.Second)
	res.e2e["live_heap_mb"] = liveHeapMB()
	_ = rig.sink.SetReadDeadline(time.Now())
	_ = rig.send.SetReadDeadline(time.Now())
	wg.Wait()

	m.fill(res, timedOps.Load())
	sl.apply(res)
	st := rig.f.sessionTotals()
	if err := account(res, expected(), recvd.Load(), st, corrupt.Load(), dup.Load()); err != nil {
		return res, err
	}

	// Oracle: replay each session's offered packets through the model.
	off := rig.f.wheelOffset(epoch)
	late := &hist{}
	lateSlices := newSliced(timedFrom, timedTo, sliceCount(cfg.seconds))
	var negative, mismatch, modelled int64
	perSess := make([][]oracleEvent, shapedSessions)
	for i := range pkts {
		p := &pkts[i]
		base := rig.f.engineAt[p.sess] - off // engine start on the run clock
		perSess[p.sess] = append(perSess[p.sess], oracleEvent{
			At: time.Duration(p.due) - base, Dir: simnet.Outbound, Size: int(p.size), ID: 2 * i})
		if p.echoSent != 0 {
			perSess[p.sess] = append(perSess[p.sess], oracleEvent{
				At: time.Duration(p.echoSent) - base, Dir: simnet.Inbound, Size: int(p.size), ID: 2*i + 1})
		}
	}
	outcomes := make([]oracleOutcome, 2*len(pkts))
	for s, evs := range perSess {
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
		for j, o := range oracle(rig.sessions[s], evs) {
			outcomes[evs[j].ID] = o
		}
	}
	for i := range pkts {
		p := &pkts[i]
		base := rig.f.engineAt[p.sess] - off
		legs := []struct {
			recv, offered int64
		}{{p.outRecv, p.due}}
		if p.echoSent != 0 {
			legs = append(legs, struct{ recv, offered int64 }{p.inRecv, p.echoSent})
		}
		for leg, l := range legs {
			o := outcomes[2*i+leg]
			modelled++
			if o.Delivered != (l.recv != 0) {
				mismatch++
				continue
			}
			if !o.Delivered || l.offered < timedFrom || l.offered >= timedTo {
				continue
			}
			err := l.recv - int64(o.At+base)
			if err < 0 {
				negative++
			}
			late.record(err)
			lateSlices.record(l.offered, err)
		}
	}
	if err := latencyTails(res, late, lateSlices, "delivery error (observed minus modelled one-way delay)"); err != nil {
		return nil, err
	}
	res.note("oracle: %d packet legs modelled, %d deliver/drop mismatches, %d deliveries ahead of the model",
		modelled, mismatch, negative)
	if frac := float64(mismatch) / float64(modelled); frac > 0.01 {
		return res, checkFail("%.2f%% of packets disagree with the modelled deliver/drop outcome", 100*frac)
	}
	if glp, err := tailOf(genLate, 99, 1e3); err == nil {
		res.layer["gen.late_p99_us"] = glp.Value
		res.note("generator lateness: n=%d p%d=%.1fus", glp.N, glp.P, glp.Value)
	}
	if cfg.sp != nil {
		rig.f.layerStats(res)
		res.layer["wheel.pending_max"] = float64(peak.Load())
		res.layer["modulation.outcome_mismatch_frac"] = float64(mismatch) / float64(modelled)
		res.layer["stream.distill_us_per_kb"] = rig.distillNS / 1e3 / (rig.distillBytes / 1024)
	}
	return res, nil
}
