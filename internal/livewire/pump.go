// The batched data plane: every datagram moves read batch → SubmitBatch →
// coalesced write batch, whether the relay runs its own pump goroutines
// (the portable fallback) or sits on a shared sharded event loop
// (PumpGroup, Linux). DESIGN.md §14 describes the ownership rules.

package livewire

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"tracemod/internal/modulation"
	"tracemod/internal/obs"
	"tracemod/internal/simnet"
)

// PumpGroupConfig parameterizes a PumpGroup.
type PumpGroupConfig struct {
	// Shards is the number of event-loop goroutines; 0 means GOMAXPROCS.
	// A negative value disables the group: relays fall back to a pump
	// goroutine per socket.
	Shards int
	// Metrics, if non-nil, registers the group's process-wide data-plane
	// series (tracemod_livewire_pump_*) on the registry.
	Metrics *obs.Registry
}

// PumpGroup owns a fixed set of run-to-completion event loops (shards)
// that service many relays' sockets: each relay is assigned to exactly
// one shard, both of its sockets together, so one session's packets are
// always read, shaped, and flushed by the same goroutine and the farm's
// goroutine count stays flat in the session count. On platforms without
// the batched-I/O fast path the group is inert (Enabled reports false)
// and relays transparently keep their per-relay pumps. All methods are
// nil-receiver safe.
type PumpGroup struct {
	want   int         // resolved shard count; 0 = group disabled
	failed atomic.Bool // shard startup failed: fall back for good

	// Shards start lazily on the first relay attach: an idle group costs
	// nothing — no epoll instances and no event-loop goroutines.
	startMu sync.Mutex
	started bool
	shards  []*pumpShard

	next      atomic.Uint64 // round-robin shard assignment
	nextID    atomic.Uint64 // epoll registration tokens
	ins       *pumpInstruments
	closing   atomic.Bool
	closeOnce sync.Once
}

// NewPumpGroup starts the shards. On unsupported platforms (or with
// Shards < 0) it returns a disabled group, which is a valid, inert value.
func NewPumpGroup(cfg PumpGroupConfig) *PumpGroup {
	g := &PumpGroup{ins: newPumpInstruments(cfg.Metrics)}
	if cfg.Shards >= 0 && batchIOSupported {
		g.want = cfg.Shards
		if g.want == 0 {
			g.want = runtime.GOMAXPROCS(0)
		}
	}
	return g
}

// Enabled reports whether the group will run shards (they start on the
// first relay attach; an earlier startup failure reports false).
func (g *PumpGroup) Enabled() bool { return g != nil && g.want > 0 && !g.failed.Load() }

// ShardCount returns the number of event loops (0 when disabled).
func (g *PumpGroup) ShardCount() int {
	if g == nil || g.failed.Load() {
		return 0
	}
	return g.want
}

// ensure starts the shards on first use; false means the group cannot
// take relays (disabled, closing, or shard startup failed).
func (g *PumpGroup) ensure() bool {
	g.startMu.Lock()
	defer g.startMu.Unlock()
	if g.closing.Load() || g.want == 0 {
		return false
	}
	if !g.started {
		g.started = true
		g.shards = newShards(g, g.want)
		if g.shards == nil {
			g.failed.Store(true)
		}
	}
	return g.shards != nil
}

// Close stops every shard. Relays still attached keep working through
// whatever reads were in flight but receive no further event service;
// close relays first.
func (g *PumpGroup) Close() {
	if g == nil {
		return
	}
	g.closeOnce.Do(func() {
		g.closing.Store(true)
		g.startMu.Lock()
		shards := g.shards
		g.startMu.Unlock()
		for _, sh := range shards {
			sh.close()
		}
	})
}

// attach places the relay on one shard; false means the caller must run
// its own pump goroutines.
func (g *PumpGroup) attach(r *Relay) bool {
	if g == nil || g.closing.Load() || !g.ensure() {
		return false
	}
	return g.attachShards(r)
}

func (g *PumpGroup) instruments() *pumpInstruments {
	if g == nil {
		return nil
	}
	return g.ins
}

// pumpInstruments are the process-wide data-plane series. A nil
// *pumpInstruments means the group has no registry; every method is
// nil-safe so the hot path stays branch-plus-call.
type pumpInstruments struct {
	batches  *obs.Counter
	packets  *obs.Counter
	flushes  *obs.CounterVec // label: flush reason (full|burst|direct)
	sizes    *obs.CounterVec // label: read-batch size bucket
	sendErrs *obs.Counter
}

func newPumpInstruments(reg *obs.Registry) *pumpInstruments {
	if reg == nil {
		return nil
	}
	return &pumpInstruments{
		batches: reg.Counter("tracemod_livewire_pump_read_batches_total",
			"Read batches drained by the data-plane pumps."),
		packets: reg.Counter("tracemod_livewire_pump_read_packets_total",
			"Datagrams carried by those read batches."),
		flushes: reg.CounterVec("tracemod_livewire_pump_flushes_total",
			"Write flushes by reason: full (batch budget hit mid-burst), burst (end of read burst), direct (delayed delivery outside any burst).", "reason"),
		sizes: reg.CounterVec("tracemod_livewire_pump_batch_size_total",
			"Read-batch size distribution (datagrams per recvmmsg).", "bucket"),
		sendErrs: reg.Counter("tracemod_livewire_pump_send_errors_total",
			"Post-modulation datagram writes that failed at the socket."),
	}
}

func (ins *pumpInstruments) observeBatch(n int) {
	if ins == nil {
		return
	}
	ins.batches.Inc()
	ins.packets.Add(int64(n))
	ins.sizes.With(sizeBucket(n)).Inc()
}

func (ins *pumpInstruments) observeFlush(reason string, n int) {
	if ins == nil || n == 0 {
		return
	}
	ins.flushes.With(reason).Add(int64(n))
}

func (ins *pumpInstruments) observeSendErr() {
	if ins == nil {
		return
	}
	ins.sendErrs.Inc()
}

func sizeBucket(n int) string {
	switch {
	case n <= 1:
		return "1"
	case n <= 4:
		return "2-4"
	case n <= 8:
		return "5-8"
	case n <= 16:
		return "9-16"
	case n <= 32:
		return "17-32"
	case n <= 64:
		return "33-64"
	default:
		return "65+"
	}
}

const (
	flushReasonFull   = "full"
	flushReasonBurst  = "burst"
	flushReasonDirect = "direct"
)

// sendQ coalesces one egress socket's modulated deliveries into write
// batches. While a read burst is being shaped the window is open:
// deliveries (immediate ones from SubmitBatch, and any delayed ones that
// happen to fire mid-burst off the timer wheel) append here and leave in
// one sendmmsg when the pump flushes. Outside a burst the window is
// closed and deliveries go out directly — the wheel's delayed packets do
// not wait for traffic that may never come.
type sendQ struct {
	mu   sync.Mutex
	open bool
	msgs []ioMessage
	free []ioMessage // recycles the msgs backing array across flushes
}

func (q *sendQ) openWindow() {
	q.mu.Lock()
	q.open = true
	q.mu.Unlock()
}

// take steals the queued entries (and optionally closes the window),
// handing back a reusable backing array via give.
func (q *sendQ) take(closeWindow bool) []ioMessage {
	q.mu.Lock()
	if closeWindow {
		q.open = false
	}
	ms := q.msgs
	q.msgs, q.free = q.free[:0], nil
	q.mu.Unlock()
	return ms
}

func (q *sendQ) give(ms []ioMessage) {
	clear(ms)
	q.mu.Lock()
	if q.free == nil {
		q.free = ms[:0]
	}
	q.mu.Unlock()
}

// readIO returns the socket a direction's traffic is read from.
func (r *Relay) readIO(dir simnet.Direction) batchConn {
	if dir == simnet.Outbound {
		return r.clientIO
	}
	return r.targetIO
}

// outQ returns the write queue and egress socket for a direction's
// shaped traffic.
func (r *Relay) outQ(dir simnet.Direction) (*sendQ, batchConn) {
	if dir == simnet.Outbound {
		return &r.qTarget, r.targetIO
	}
	return &r.qClient, r.clientIO
}

// subsPool recycles the per-burst Submission slices.
var subsPool = sync.Pool{New: func() any {
	s := make([]modulation.Submission, 0, DefaultBatch)
	return &s
}}

// processBatch runs one read batch through the shaper and flushes the
// resulting write batch: the whole per-burst data plane, shared by the
// pump goroutines and the shard loops. Ownership of every buffer in ms
// transfers here.
func (r *Relay) processBatch(dir simnet.Direction, ms []ioMessage) {
	r.batches.Add(1)
	r.batchedPkts.Add(int64(len(ms)))
	r.rxPkts.Add(int64(len(ms)))
	var bytes int64
	for i := range ms {
		bytes += int64(ms[i].n)
	}
	r.rxBytes.Add(bytes)
	r.gins.observeBatch(len(ms))

	var replyAddr *net.UDPAddr
	if dir == simnet.Outbound {
		for i := range ms {
			if ms[i].addr != nil {
				r.clientAddr.Store(ms[i].addr)
			}
		}
	} else {
		// Reply address captured at read time, as the classic pump did.
		replyAddr = r.clientAddr.Load()
		if replyAddr == nil {
			for i := range ms {
				putBuf(ms[i].buf)
			}
			return // no client yet
		}
	}

	q, _ := r.outQ(dir)
	q.openWindow()

	sp := subsPool.Get().(*[]modulation.Submission)
	subs := (*sp)[:0]
	for i := range ms {
		bp, n := ms[i].buf, ms[i].n
		addr := replyAddr
		subs = append(subs, modulation.Submission{
			Dir:  dir,
			Size: wireSize(n),
			Deliver: func() {
				r.send(dir, bp, n, addr)
			},
			Drop: func() {
				r.dropped.Add(1)
				putBuf(bp)
			},
		})
	}
	r.submitBurst(subs)
	clear(subs)
	*sp = subs[:0]
	subsPool.Put(sp)

	r.flushQ(dir, flushReasonBurst)
}

// submitBurst pushes one read burst into the shaper, recovering a panic
// thrown synchronously by the submitter (or a callback it runs inline):
// the pump survives and counts it in Stats.SubmitPanics, and the burst's
// remaining pooled buffers are left to the garbage collector rather than
// risking a double put.
func (r *Relay) submitBurst(subs []modulation.Submission) {
	if len(subs) == 0 {
		return
	}
	defer func() {
		if v := recover(); v != nil {
			r.submitPanics.Add(1)
		}
	}()
	r.submit.SubmitBatch(subs)
}

// send transmits one modulated datagram toward dir's egress socket,
// joining the open burst window when there is one.
func (r *Relay) send(dir simnet.Direction, bp *[]byte, n int, addr *net.UDPAddr) {
	select {
	case <-r.closed:
		putBuf(bp)
		return
	default:
	}
	q, io := r.outQ(dir)
	q.mu.Lock()
	if q.open {
		q.msgs = append(q.msgs, ioMessage{buf: bp, n: n, addr: addr})
		full := len(q.msgs) >= DefaultBatch
		q.mu.Unlock()
		if full {
			r.flushQ(dir, flushReasonFull)
		}
		return
	}
	q.mu.Unlock()
	r.cDirect.Add(1)
	r.gins.observeFlush(flushReasonDirect, 1)
	one := [1]ioMessage{{buf: bp, n: n, addr: addr}}
	if k, err := io.WriteBatch(one[:]); err != nil || k == 0 {
		r.sendFailed(one[0])
	} else {
		r.sent(dir, one[0])
	}
}

// flushQ drains dir's write queue as one batch. A burst flush closes the
// window; a full flush mid-burst keeps it open.
func (r *Relay) flushQ(dir simnet.Direction, reason string) {
	q, io := r.outQ(dir)
	ms := q.take(reason == flushReasonBurst)
	if len(ms) > 0 {
		if reason == flushReasonFull {
			r.cFlushFull.Add(1)
		} else {
			r.cFlushBurst.Add(1)
		}
		r.gins.observeFlush(reason, len(ms))
		r.writeAll(dir, io, ms)
	}
	q.give(ms)
}

// writeAll pushes a write batch out, skipping past per-message failures
// so one bad destination cannot strand the rest of the batch.
func (r *Relay) writeAll(dir simnet.Direction, io batchConn, ms []ioMessage) {
	i := 0
	for i < len(ms) {
		k, err := io.WriteBatch(ms[i:])
		for j := i; j < i+k; j++ {
			r.sent(dir, ms[j])
		}
		i += k
		if err != nil {
			if i < len(ms) {
				r.sendFailed(ms[i])
				i++
			}
			continue
		}
		if k == 0 {
			// No progress and no error: release the remainder rather
			// than spin.
			for ; i < len(ms); i++ {
				r.sendFailed(ms[i])
			}
			return
		}
	}
}

// sent books one successfully written datagram and releases its buffer.
func (r *Relay) sent(dir simnet.Direction, m ioMessage) {
	if dir == simnet.Outbound {
		r.c2t.Add(1)
	} else {
		r.t2c.Add(1)
	}
	r.txBytes.Add(int64(m.n))
	putBuf(m.buf)
}

// sendFailed is the relay's drop path for a post-modulation write
// failure: the datagram already paid its way through the shaper, so it is
// neither a delivery nor a lottery drop — it is a socket error, and the
// pooled buffer still releases exactly once.
func (r *Relay) sendFailed(m ioMessage) {
	r.sendErrs.Add(1)
	r.socketErrs.Add(1)
	r.gins.observeSendErr()
	putBuf(m.buf)
}

// pump is the goroutine data plane: one blocking batch reader per socket,
// used when no PumpGroup shard took the relay (unsupported platform,
// disabled group, or ForceGenericIO). Same processBatch as the shards.
func (r *Relay) pump(dir simnet.Direction) {
	io := r.readIO(dir)
	ms := make([]ioMessage, DefaultBatch)
	streak := 0
	for {
		n, err := io.ReadBatch(ms)
		if err != nil {
			if r.recoverPump(&streak, err) {
				continue
			}
			return
		}
		streak = 0
		r.processBatch(dir, ms[:n])
		clear(ms[:n]) // the buffers are processBatch's now
	}
}

// drainQ releases whatever a closing relay still has queued.
func (r *Relay) drainQ(q *sendQ) {
	ms := q.take(true)
	for i := range ms {
		putBuf(ms[i].buf)
	}
	q.give(ms)
}
