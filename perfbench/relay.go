package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/emud"
	"tracemod/internal/livewire"
	"tracemod/internal/modulation"
	"tracemod/internal/obs"
	"tracemod/internal/simnet"
)

// ---- datagram format ---------------------------------------------------

// Every benchmark datagram carries
//
//	[0:4)   relay index
//	[4:12)  sequence (flood: per relay; shaped: global packet index)
//	[12:20) send time, ns since the run's epoch
//	[20:24) flags (flagInbound on echoes)
//	[24:n-8) filler derived from the sequence
//	[n-8:n) FNV-64a of bytes [0:n-8)
//
// so a receiver can prove each delivery intact and attribute it.
const (
	pktHeader   = 24
	pktMin      = pktHeader + 8
	flagInbound = 1
)

func encodePkt(b []byte, relay uint32, seq uint64, t int64, flags uint32) {
	binary.LittleEndian.PutUint32(b[0:], relay)
	binary.LittleEndian.PutUint64(b[4:], seq)
	binary.LittleEndian.PutUint64(b[12:], uint64(t))
	binary.LittleEndian.PutUint32(b[20:], flags)
	for i := pktHeader; i < len(b)-8; i++ {
		b[i] = byte(seq>>3) + byte(i)*31
	}
	sealPkt(b)
}

func sealPkt(b []byte) {
	h := fnv.New64a()
	h.Write(b[:len(b)-8])
	binary.LittleEndian.PutUint64(b[len(b)-8:], h.Sum64())
}

// decodePkt validates a datagram and returns its header fields.
func decodePkt(b []byte) (relay uint32, seq uint64, t int64, flags uint32, ok bool) {
	if len(b) < pktMin {
		return 0, 0, 0, 0, false
	}
	h := fnv.New64a()
	h.Write(b[:len(b)-8])
	if h.Sum64() != binary.LittleEndian.Uint64(b[len(b)-8:]) {
		return 0, 0, 0, 0, false
	}
	return binary.LittleEndian.Uint32(b[0:]), binary.LittleEndian.Uint64(b[4:]),
		int64(binary.LittleEndian.Uint64(b[12:])), binary.LittleEndian.Uint32(b[20:]), true
}

// listenUDP opens a loopback socket with a receive buffer deep enough that
// the generator never drops what the relays deliver.
func listenUDP() (*net.UDPConn, error) {
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	_ = c.SetReadBuffer(4 << 20)
	_ = c.SetWriteBuffer(4 << 20)
	return c, nil
}

// ---- the relay farm ------------------------------------------------------

// tracedSub is the submitter the benchmark attaches relays with: it
// forwards to the session and, in the traced run, times SubmitBatch and
// each packet's Deliver.
type tracedSub struct {
	s     *emud.Session
	sp    *spans
	relay int64

	bursts, pkts        atomic.Int64
	submitNS, nestedNS  atomic.Int64 // nested: Deliver time inside SubmitBatch
	delivers, deliverNS atomic.Int64
}

// submitCall marks one SubmitBatch in flight, so a Deliver that runs
// synchronously inside it is not charged to the submit.
type submitCall struct {
	active atomic.Bool
	nested atomic.Int64
}

func (t *tracedSub) wrapDeliver(d func(), call *submitCall) func() {
	return func() {
		t0 := t.sp.now()
		d()
		t1 := t.sp.now()
		t.delivers.Add(1)
		t.deliverNS.Add(t1 - t0)
		if call.active.Load() {
			call.nested.Add(t1 - t0)
		}
		t.sp.add("wheel.deliver", t0, t1, -1, t.relay, false)
	}
}

func (t *tracedSub) SubmitWithDrop(dir simnet.Direction, size int, deliver, drop func()) {
	if t.sp == nil {
		t.s.SubmitWithDrop(dir, size, deliver, drop)
		return
	}
	subs := []modulation.Submission{{Dir: dir, Size: size, Deliver: deliver, Drop: drop}}
	t.SubmitBatch(subs)
}

func (t *tracedSub) SubmitBatch(subs []modulation.Submission) {
	if t.sp == nil {
		t.s.SubmitBatch(subs)
		return
	}
	call := &submitCall{}
	call.active.Store(true)
	for i := range subs {
		subs[i].Deliver = t.wrapDeliver(subs[i].Deliver, call)
	}
	n := len(subs)
	t0 := t.sp.now()
	t.s.SubmitBatch(subs)
	t1 := t.sp.now()
	call.active.Store(false)
	t.bursts.Add(1)
	t.pkts.Add(int64(n))
	t.submitNS.Add(t1 - t0)
	t.nestedNS.Add(call.nested.Load())
	t.sp.add("emud.submit_batch", t0, t1, -1, t.relay, false)
}

// farmSpec describes the sessions and relays one relay workload hosts.
type farmSpec struct {
	n           int
	granularity time.Duration // emud wheel coalescing (-1 exact)
	session     func(i int) emud.SessionConfig
	target      string // where every relay forwards (the sink)
	sp          *spans
}

// farm is an emud manager with n running sessions, each fronted by a
// livewire relay on the manager's shared pump group.
type farm struct {
	m        *emud.Manager
	sessions []*emud.Session
	relays   []*livewire.Relay
	subs     []*tracedSub
	addrs    []netip.AddrPort
	// engineAt is each session's engine start on the wheel clock.
	engineAt []time.Duration
	createNS []float64
	attachNS []float64
}

func newFarm(spec farmSpec) (*farm, error) {
	f := &farm{}
	opts := emud.Options{
		Granularity: spec.granularity,
		MaxSessions: spec.n + 16,
	}
	if spec.sp != nil {
		// The wheel's fire-lateness histogram exists only with metrics on.
		opts.Metrics = obs.NewRegistry()
	}
	f.m = emud.NewManager(opts)
	for i := 0; i < spec.n; i++ {
		t0 := time.Now()
		st0 := spec.sp.now()
		s, err := f.m.Create(spec.session(i))
		if err != nil {
			f.close()
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		before := f.m.Wheel().Now()
		if err := s.Start(); err != nil {
			f.close()
			return nil, fmt.Errorf("session %d start: %w", i, err)
		}
		after := f.m.Wheel().Now()
		f.createNS = append(f.createNS, float64(time.Since(t0)))
		spec.sp.add("emud.create", st0, spec.sp.now(), -1, int64(i), false)
		f.engineAt = append(f.engineAt, (before+after)/2)
		f.sessions = append(f.sessions, s)

		sub := &tracedSub{s: s, sp: spec.sp, relay: int64(i)}
		t0 = time.Now()
		st0 = spec.sp.now()
		r, err := livewire.NewRelayWithSubmitterOpts("127.0.0.1:0", spec.target, sub,
			livewire.RelayOpts{Group: f.m.Pumps()})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("relay %d: %w", i, err)
		}
		f.attachNS = append(f.attachNS, float64(time.Since(t0)))
		spec.sp.add("emud.relay_attach", st0, spec.sp.now(), -1, int64(i), false)
		f.relays = append(f.relays, r)
		f.subs = append(f.subs, sub)
		f.addrs = append(f.addrs, r.Addr().AddrPort())
	}
	return f, nil
}

func (f *farm) close() {
	for _, r := range f.relays {
		r.Close()
	}
	f.m.Close()
}

// wheelOffset returns wheel-clock minus the run clock (ns since epoch),
// read back to back.
func (f *farm) wheelOffset(epoch time.Time) time.Duration {
	best := time.Duration(1 << 62)
	var off time.Duration
	for i := 0; i < 5; i++ {
		t0 := time.Since(epoch)
		w := f.m.Wheel().Now()
		t1 := time.Since(epoch)
		if t1-t0 < best {
			best = t1 - t0
			off = w - (t0+t1)/2
		}
	}
	return off
}

// sessionTotals sums the session counters the accounting needs.
func (f *farm) sessionTotals() (st emud.SessionStats) {
	for _, s := range f.sessions {
		x := s.Stats()
		st.Submitted += x.Submitted
		st.Delivered += x.Delivered
		st.Dropped += x.Dropped
		st.Rejected += x.Rejected
		st.Shed += x.Shed
		st.InFlight += x.InFlight
	}
	return st
}

// layerStats derives the relay-side per-layer metrics of a traced run.
func (f *farm) layerStats(r *result) {
	var ls livewire.Stats
	for _, rl := range f.relays {
		x := rl.Stats()
		ls.ReadPackets += x.ReadPackets
		ls.Batches += x.Batches
		ls.BatchedPackets += x.BatchedPackets
		ls.FlushFull += x.FlushFull
		ls.FlushBurst += x.FlushBurst
		ls.DirectSends += x.DirectSends
		ls.SocketErrors += x.SocketErrors
		ls.SendErrors += x.SendErrors
		ls.SubmitPanics += x.SubmitPanics
	}
	r.layer["livewire.avg_batch"] = ls.AvgBatch()
	if ls.ReadPackets > 0 {
		k := float64(ls.ReadPackets) / 1000
		r.layer["livewire.reads_per_kpkt"] = float64(ls.Batches) / k
		r.layer["livewire.writes_per_kpkt"] = float64(ls.FlushFull+ls.FlushBurst+ls.DirectSends) / k
	}
	r.layer["livewire.errors"] = float64(ls.SocketErrors + ls.SendErrors + ls.SubmitPanics)

	var bursts, pkts, submitNS, nestedNS, delivers, deliverNS int64
	for _, s := range f.subs {
		bursts += s.bursts.Load()
		pkts += s.pkts.Load()
		submitNS += s.submitNS.Load()
		nestedNS += s.nestedNS.Load()
		delivers += s.delivers.Load()
		deliverNS += s.deliverNS.Load()
	}
	if pkts > 0 {
		r.layer["emud.submit_ns_per_pkt"] = float64(submitNS-nestedNS) / float64(pkts)
		r.layer["emud.burst_pkts"] = float64(pkts) / float64(bursts)
	}
	if delivers > 0 {
		r.layer["wheel.deliver_ns_per_pkt"] = float64(deliverNS) / float64(delivers)
	}
	st := f.sessionTotals()
	r.layer["emud.shed_rejected"] = float64(st.Shed + st.Rejected)
	r.layer["emud.create_us"] = median(append([]float64(nil), f.createNS...)) / 1e3
	r.layer["emud.relay_attach_us"] = median(append([]float64(nil), f.attachNS...)) / 1e3

	var es modulation.Stats
	for _, s := range f.sessions {
		x := s.Engine().Stats()
		es.Submitted += x.Submitted
		es.Immediate += x.Immediate
		es.Dropped += x.Dropped
	}
	if es.Submitted > 0 {
		r.layer["modulation.immediate_frac"] = float64(es.Immediate) / float64(es.Submitted)
		r.layer["modulation.drop_frac"] = float64(es.Dropped) / float64(es.Submitted)
	}
	if h := f.m.Wheel().FireLateness(); h != nil && h.Count() > 0 {
		r.layer["wheel.fire_late_p50_us"] = float64(h.Quantile(0.5)) / 1e3
		r.layer["wheel.fire_late_p99_us"] = float64(h.Quantile(0.99)) / 1e3
	}
}

// pendingSampler tracks the wheel's peak pending-timer count.
func (f *farm) pendingSampler(stop <-chan struct{}, wg *sync.WaitGroup, peak *atomic.Int64) {
	defer wg.Done()
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if p := f.m.Wheel().Pending(); p > peak.Load() {
				peak.Store(p)
			}
		}
	}
}

// transparentTrace is the flood's link: no delay, no per-byte cost, no
// loss, so every packet is an immediate send.
func transparentTrace() core.Trace {
	return core.Trace{{D: time.Hour}}
}

// ---- relay_flood ---------------------------------------------------------

const (
	floodRelays  = 64
	floodWindow  = 4
	floodPayload = 64
	floodSetups  = 15
)

// floodRig is one set-up instance of relay_flood: the farm plus the
// generator's sender and sink sockets.
type floodRig struct {
	f          *farm
	send, sink *net.UDPConn
}

func (g *floodRig) close() {
	g.f.close()
	g.send.Close()
	g.sink.Close()
}

func setupFlood(sp *spans) (*floodRig, error) {
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
		n:      floodRelays,
		target: sink.LocalAddr().String(),
		sp:     sp,
		session: func(i int) emud.SessionConfig {
			return emud.SessionConfig{Name: fmt.Sprintf("flood-%d", i), Trace: transparentTrace(), Loop: true, Seed: int64(i)}
		},
	})
	if err != nil {
		send.Close()
		sink.Close()
		return nil, err
	}
	return &floodRig{f: f, send: send, sink: sink}, nil
}

// runFlood drives a closed loop with floodWindow datagrams in flight per
// relay: each delivery at the sink releases the relay's next datagram.
// Op = one datagram delivered.
func runFlood(cfg runConfig) (*result, error) {
	res := newResult()
	rig, setup, err := setupTimes(floodSetups, func() (*floodRig, error) { return setupFlood(cfg.sp) }, (*floodRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	res.e2e["setup_s"] = setup
	res.note("setup: median of %d set-ups of %d sessions + relays", floodSetups, floodRelays)

	epoch := time.Now()
	n := floodRelays
	sent := make([]uint64, n) // next sequence per relay; the sink goroutine owns it once started
	seen := make([][]uint64, n)
	var phase atomic.Int32 // 0 warm-up, 1 timed, 2 draining
	var timedOps atomic.Int64
	lat := &hist{}
	var latSlices *sliced // set before the timed phase starts
	var corrupt, dup int64
	var recvd, totalSent atomic.Int64
	buf := make([]byte, 2048)
	out := make([]byte, floodPayload)

	sendNext := func(i int) error {
		encodePkt(out, uint32(i), sent[i], int64(time.Since(epoch)), 0)
		sent[i]++
		totalSent.Add(1)
		_, err := rig.send.WriteToUDPAddrPort(out, rig.f.addrs[i])
		return err
	}
	// The seed orders the initial burst; the loop is otherwise fixed.
	order := seededPerm(cfg.seed, n)
	for w := 0; w < floodWindow; w++ {
		for _, i := range order {
			if err := sendNext(i); err != nil {
				return nil, err
			}
		}
	}

	done := make(chan error, 1)
	go func() {
		for {
			nr, err := rig.sink.Read(buf)
			if err != nil {
				done <- nil
				return
			}
			now := int64(time.Since(epoch))
			relay, seq, t, _, ok := decodePkt(buf[:nr])
			if !ok || nr != floodPayload || int(relay) >= n || seq >= sent[relay] {
				corrupt++
				continue
			}
			if !markSeen(&seen[relay], seq) {
				dup++
				continue
			}
			recvd.Add(1)
			ph := phase.Load()
			if ph == 1 {
				lat.record(now - t)
				latSlices.record(now, now-t)
				timedOps.Add(1)
			}
			if ph < 2 {
				if err := sendNext(int(relay)); err != nil {
					done <- err
					return
				}
			}
		}
	}()

	warm := warmup(cfg.seconds)
	time.Sleep(warm)
	var peak atomic.Int64
	stopSampler := make(chan struct{})
	var wg sync.WaitGroup
	if cfg.sp != nil {
		wg.Add(1)
		go rig.f.pendingSampler(stopSampler, &wg, &peak)
	}
	slices := sliceCount(cfg.seconds)
	t0 := int64(time.Since(epoch))
	latSlices = newSliced(t0, t0+int64(cfg.seconds*float64(time.Second)), slices)
	m := startMeter()
	phase.Store(1)
	sl := &slicer{}
	sl.mark(0)
	for i := 0; i < slices; i++ {
		time.Sleep(time.Duration(cfg.seconds / float64(slices) * float64(time.Second)))
		sl.mark(timedOps.Load())
	}
	phase.Store(2)
	m.stop()
	close(stopSampler)
	wg.Wait()

	// Drain: every datagram still in flight lands (or is accounted for
	// by its session) before the books close.
	drain(func() bool { return recvd.Load()+rig.f.sessionTotals().Dropped >= totalSent.Load() }, 2*time.Second)
	res.e2e["live_heap_mb"] = liveHeapMB()
	_ = rig.sink.SetReadDeadline(time.Now())
	if err := <-done; err != nil {
		return nil, err
	}

	m.fill(res, timedOps.Load())
	sl.apply(res)
	if err := latencyTails(res, lat, latSlices, "one-way relay latency"); err != nil {
		return nil, err
	}
	st := rig.f.sessionTotals()
	if err := account(res, totalSent.Load(), recvd.Load(), st, corrupt, dup); err != nil {
		return res, err
	}
	if cfg.sp != nil {
		rig.f.layerStats(res)
		res.layer["wheel.pending_max"] = float64(peak.Load())
		res.layer["cpu.rest_ns_per_op"] = res.e2e["cpu_us_per_op"]*1e3 -
			res.layer["emud.submit_ns_per_pkt"] - res.layer["wheel.deliver_ns_per_pkt"]
	}
	return res, nil
}

// warmup is the untimed lead-in before a timed phase.
func warmup(seconds float64) time.Duration {
	w := time.Duration(seconds * 0.1 * float64(time.Second))
	return min(max(w, 300*time.Millisecond), 2*time.Second)
}

// latencyTails reports a latency distribution (nanoseconds) as the
// per-layer lat_p50_us, the median of the per-slice medians when slices
// is given (the whole-run median otherwise), and lat_p99_us, the highest
// percentile <= 99 with tailBeyond samples past it.
func latencyTails(res *result, h *hist, slices *sliced, what string) error {
	p50, err := tailOf(h, 50, 1e3)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	p99, err := tailOf(h, 99, 1e3)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	res.layer["lat_p50_us"] = p50.Value
	res.layer["lat_p99_us"] = p99.Value
	res.note("%s: n=%d, p50=%.1fus, p%d=%.1fus (the highest percentile with >=%d samples beyond)",
		what, p99.N, p50.Value, p99.P, p99.Value, tailBeyond)
	if slices != nil {
		m, n := slices.medianP50()
		if n == 0 {
			return fmt.Errorf("%s: no slice has enough samples for a median", what)
		}
		res.layer["lat_p50_us"] = m / 1e3
		res.note("%s: median of %d slice medians %.1fus", what, n, m/1e3)
	}
	return nil
}

// account closes the books on a relay run: every datagram sent was
// delivered intact, lottery-dropped by its session, or failed.
func account(res *result, sent, delivered int64, st emud.SessionStats, corrupt, dup int64) error {
	res.attempted = sent
	if corrupt > 0 || dup > 0 {
		return checkFail("%d corrupt and %d duplicate deliveries", corrupt, dup)
	}
	failed := sent - delivered - st.Dropped
	if failed < 0 {
		return checkFail("delivered %d + lottery-dropped %d exceeds sent %d", delivered, st.Dropped, sent)
	}
	res.failed = failed
	res.layer["fail_frac"] = float64(failed) / float64(sent)
	res.note("accounting: sent=%d delivered=%d lottery-dropped=%d failed=%d shed=%d rejected=%d",
		sent, delivered, st.Dropped, failed, st.Shed, st.Rejected)
	return nil
}

// markSeen records seq in a growable bitset, reporting false if it was
// already set.
func markSeen(bs *[]uint64, seq uint64) bool {
	w := int(seq / 64)
	for len(*bs) <= w {
		*bs = append(*bs, 0)
	}
	bit := uint64(1) << (seq % 64)
	if (*bs)[w]&bit != 0 {
		return false
	}
	(*bs)[w] |= bit
	return true
}

// drain polls done until it holds or timeout passes.
func drain(done func() bool, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for !done() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

// seededPerm is a seed-determined permutation of [0, n).
func seededPerm(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
