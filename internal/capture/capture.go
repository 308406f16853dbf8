// Package capture implements the collection phase (Section 3.1): an
// in-kernel-style tracer hooked into a traced device's input and output
// routines, a fixed-size circular buffer that counts the records it loses
// when overrun, a pseudo-device with open/read/close semantics, and a
// user-level daemon that periodically drains the pseudo-device into the
// tracefmt stream on "disk".
package capture

import (
	"bytes"
	"time"

	"tracemod/internal/obs"
	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
	"tracemod/internal/tracefmt"
)

// DeviceSampleInterval is how often the kernel examines the device's
// performance parameters and logs a device record.
const DeviceSampleInterval = 100 * time.Millisecond

// Ring is the bounded in-kernel record buffer. When full, the oldest
// record is overwritten and counted as lost by type. Its slots are
// allocated as records arrive, doubling up to the capacity, so a sparse
// trace does not pay for a deep buffer it never fills; the capacity alone
// decides when records are lost.
type Ring struct {
	recs     []any
	typ      []tracefmt.RecordType
	capacity int
	head     int // index of oldest; 0 while the ring has fewer than capacity slots
	n        int
	lost     map[tracefmt.RecordType]uint32

	// Telemetry hooks (nil-safe; see Collector.EnableMetrics).
	pushed, overrun *obs.Counter
}

// ringInitSlots is the slot count a ring starts with on its first record.
const ringInitSlots = 256

// NewRing creates a buffer holding at most capacity records.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic("capture: ring capacity must be >= 1")
	}
	return &Ring{capacity: capacity, lost: map[tracefmt.RecordType]uint32{}}
}

// Len returns the number of buffered records.
func (r *Ring) Len() int { return r.n }

// Push appends a record, evicting (and counting) the oldest if full.
func (r *Ring) Push(t tracefmt.RecordType, rec any) {
	r.pushed.Inc()
	if r.n == len(r.recs) {
		if len(r.recs) < r.capacity {
			r.grow()
		} else {
			r.lost[r.typ[r.head]]++
			r.overrun.Inc()
			r.head = (r.head + 1) % len(r.recs)
			r.n--
		}
	}
	i := (r.head + r.n) % len(r.recs)
	r.recs[i] = rec
	r.typ[i] = t
	r.n++
}

// grow doubles the slots, up to the capacity. The ring only wraps once it
// holds capacity slots, so below that its records sit in order from slot 0.
func (r *Ring) grow() {
	n := min(max(2*len(r.recs), ringInitSlots), r.capacity)
	recs := make([]any, n)
	copy(recs, r.recs)
	typ := make([]tracefmt.RecordType, n)
	copy(typ, r.typ)
	r.recs, r.typ = recs, typ
}

// Drain removes and returns all buffered records in arrival order. If any
// records were lost since the previous drain, a tracefmt.LostRecord per
// lost type (stamped at) is prepended, and the loss counters reset.
func (r *Ring) Drain(at sim.Time) []any {
	out := make([]any, 0, len(r.lost)+r.n)
	for _, t := range []tracefmt.RecordType{tracefmt.RecPacket, tracefmt.RecDevice, tracefmt.RecLost} {
		if c := r.lost[t]; c > 0 {
			out = append(out, tracefmt.LostRecord{At: int64(at), Count: c, Of: t})
			delete(r.lost, t)
		}
	}
	for r.n > 0 {
		out = append(out, r.recs[r.head])
		r.recs[r.head] = nil
		r.head = (r.head + 1) % len(r.recs)
		r.n--
	}
	r.head = 0
	return out
}

// LostSinceDrain returns the records lost since the last Drain.
func (r *Ring) LostSinceDrain() int {
	n := 0
	for _, c := range r.lost {
		n += int(c)
	}
	return n
}

// Collector is the kernel half of trace collection: it taps a NIC, turns
// frames into packet records (with protocol-specific detail for ICMP, UDP,
// and TCP), and samples device characteristics periodically. The
// pseudo-device interface is Open (enable tracing), Read (drain records),
// and Close (disable tracing).
type Collector struct {
	s    *sim.Scheduler
	nic  *simnet.NIC
	ring *Ring
	open bool

	// Skew is the collection host's fractional clock-rate error: every
	// recorded interval is stretched by (1+Skew). The paper's insistence
	// on single-host round trips exists because skew multiplies intervals
	// (a benign, tiny error) whereas unsynchronized clock *offsets* would
	// corrupt one-way measurements outright. Set before Open.
	Skew float64
	// Granularity quantizes recorded timestamps (the host's clock
	// resolution); zero records exact times. Set before Open.
	Granularity time.Duration

	// packets counts records captured (not lost) for tests and overhead
	// accounting.
	packets int

	// Telemetry (nil-safe; see EnableMetrics).
	mPackets *obs.Counter
	mSamples *obs.Counter
	mDrains  *obs.Counter
	mDepth   *obs.Gauge
}

// EnableMetrics registers the collector's telemetry (names under
// tracemod_capture_*) on reg: records pushed into / overwritten in the
// kernel ring, packet and device-sample tap counts, pseudo-device drains,
// and the current ring occupancy. Call before Open.
func (c *Collector) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.ring.pushed = reg.Counter("tracemod_capture_ring_pushed_total", "Records pushed into the in-kernel ring buffer.")
	c.ring.overrun = reg.Counter("tracemod_capture_ring_overrun_total", "Records overwritten (lost) in the in-kernel ring buffer.")
	c.mPackets = reg.Counter("tracemod_capture_packets_total", "Packets observed by the device tap.")
	c.mSamples = reg.Counter("tracemod_capture_device_samples_total", "Device-characteristic samples recorded.")
	c.mDrains = reg.Counter("tracemod_capture_drains_total", "Pseudo-device Read (drain) calls.")
	c.mDepth = reg.Gauge("tracemod_capture_ring_depth", "Records currently buffered in the in-kernel ring.")
}

// hostTime maps true virtual time onto the imperfect collection-host
// clock.
func (c *Collector) hostTime(t sim.Time) int64 {
	v := float64(t) * (1 + c.Skew)
	if c.Granularity > 0 {
		g := float64(c.Granularity)
		v = float64(int64(v/g)) * g
	}
	return int64(v)
}

// hostInterval maps a true interval (a round-trip time computed from two
// readings of the same host clock) onto the imperfect clock.
func (c *Collector) hostInterval(d time.Duration) int64 {
	v := float64(d) * (1 + c.Skew)
	if c.Granularity > 0 {
		g := float64(c.Granularity)
		v = float64(int64(v/g)) * g
	}
	return int64(v)
}

// NewCollector prepares a collector for nic with the given in-kernel
// buffer capacity.
func NewCollector(s *sim.Scheduler, nic *simnet.NIC, bufCap int) *Collector {
	return &Collector{s: s, nic: nic, ring: NewRing(bufCap)}
}

// Open enables tracing: hooks the device and starts periodic device
// sampling. Opening an open collector is a no-op.
func (c *Collector) Open() {
	if c.open {
		return
	}
	c.open = true
	c.nic.SetTap(c.tap)
	c.sampleDevice() // sample immediately, then periodically
}

// Close disables tracing and unhooks the device.
func (c *Collector) Close() {
	c.open = false
	c.nic.SetTap(nil)
}

// Opened reports whether tracing is enabled.
func (c *Collector) Opened() bool { return c.open }

// Read drains the pseudo-device.
func (c *Collector) Read() []any {
	c.mDrains.Inc()
	recs := c.ring.Drain(c.s.Now())
	c.mDepth.Set(int64(c.ring.Len()))
	return recs
}

// Captured returns the number of records pushed (including later-lost).
func (c *Collector) Captured() int { return c.packets }

func (c *Collector) sampleDevice() {
	if !c.open {
		return
	}
	q := c.nic.Conditions()
	c.ring.Push(tracefmt.RecDevice, tracefmt.DeviceRecord{
		At:      c.hostTime(c.s.Now()),
		Signal:  float32(q.Signal),
		Quality: float32(q.Quality),
		Silence: float32(q.Silence),
	})
	c.packets++
	c.mSamples.Inc()
	c.mDepth.Set(int64(c.ring.Len()))
	c.s.After(DeviceSampleInterval, c.sampleDevice)
}

// tap is the hook placed in the traced device's input and output routines.
func (c *Collector) tap(dir simnet.Direction, at sim.Time, ip []byte, q simnet.Quality) {
	info, err := packet.Decode(ip)
	if err != nil {
		return
	}
	rec := tracefmt.PacketRecord{
		At:       c.hostTime(at),
		Size:     info.IP.TotalLen(),
		Protocol: info.IP.Protocol(),
		ICMPType: tracefmt.NoICMP,
		RTT:      -1,
	}
	if dir == simnet.Inbound {
		rec.Dir = tracefmt.DirIn
	}
	switch {
	case info.Has(packet.LayerTypeICMPv4):
		m := info.ICMP
		rec.ICMPType = m.Type()
		rec.ID = m.ID()
		rec.Seq = m.Seq()
		// For ECHOREPLY packets the tracer computes the round trip from
		// the timestamp carried in the payload; all timestamps come from
		// this single host, so no synchronized clocks are needed.
		if dir == simnet.Inbound && m.Type() == packet.ICMPEchoReply {
			if sent, ok := m.SentAt(); ok {
				// Send and receive were both stamped on this host, so
				// the interval sees rate skew and granularity but never
				// an offset — the property the methodology relies on.
				rec.RTT = c.hostInterval(at.Sub(sim.Time(sent)))
			}
		}
	case info.Has(packet.LayerTypeUDP):
		rec.SrcPort = info.UDP.SrcPort()
		rec.DstPort = info.UDP.DstPort()
	case info.Has(packet.LayerTypeTCP):
		rec.SrcPort = info.TCP.SrcPort()
		rec.DstPort = info.TCP.DstPort()
		rec.TCPFlags = info.TCP.Flags()
	}
	c.ring.Push(tracefmt.RecPacket, rec)
	c.packets++
	c.mPackets.Inc()
	c.mDepth.Set(int64(c.ring.Len()))
}

// DaemonInterval is how often the user-level daemon extracts collected
// data from the pseudo-device.
const DaemonInterval = 500 * time.Millisecond

// Daemon periodically drains a collector into a trace writer, mimicking
// the user-level process that writes collected data to disk.
type Daemon struct {
	c  *Collector
	w  *tracefmt.Writer
	wg *sim.WaitGroup
}

// StartDaemon opens the collector, spawns the drain process, and arranges
// for it to stop (after a final drain) at the given end time.
func StartDaemon(s *sim.Scheduler, c *Collector, w *tracefmt.Writer, end sim.Time) *Daemon {
	d := &Daemon{c: c, w: w, wg: sim.NewWaitGroup(s)}
	c.Open()
	d.wg.Go("capture-daemon", func(p *sim.Proc) {
		for p.Now() < end {
			step := DaemonInterval
			if remaining := end.Sub(p.Now()); remaining < step {
				step = remaining
			}
			p.Sleep(step)
			d.flush()
		}
		c.Close()
		d.flush()
	})
	return d
}

// Wait blocks the calling process until the daemon has finished.
func (d *Daemon) Wait(p *sim.Proc) { d.wg.Wait(p) }

func (d *Daemon) flush() {
	for _, rec := range d.c.Read() {
		switch v := rec.(type) {
		case tracefmt.PacketRecord:
			d.w.WritePacket(v)
		case tracefmt.DeviceRecord:
			d.w.WriteDevice(v)
		case tracefmt.LostRecord:
			d.w.WriteLost(v)
		}
	}
}

// Opts configures a collection session.
type Opts struct {
	// BufCap is the in-kernel record buffer capacity.
	BufCap int
	// Skew and Granularity model the collection host's clock; see
	// Collector.
	Skew        float64
	Granularity time.Duration
	// Obs, if non-nil, receives the collector's telemetry (see
	// Collector.EnableMetrics).
	Obs *obs.Registry
}

// Collect runs a complete collection session on nic for the given
// duration, using an in-kernel buffer of bufCap records, and returns the
// parsed trace. The caller is responsible for generating workload traffic
// (see the pinger package) during the same window.
func Collect(s *sim.Scheduler, nic *simnet.NIC, bufCap int, dur time.Duration, comment string) (*tracefmt.Trace, error) {
	return CollectWith(s, nic, Opts{BufCap: bufCap}, dur, comment)
}

// CollectWith is Collect with full clock and buffer configuration.
func CollectWith(s *sim.Scheduler, nic *simnet.NIC, opts Opts, dur time.Duration, comment string) (*tracefmt.Trace, error) {
	bufCap := opts.BufCap
	if bufCap <= 0 {
		bufCap = 1 << 16
	}
	var disk bytes.Buffer
	w, err := tracefmt.NewWriter(&disk, tracefmt.Header{
		Device:  "wavelan0",
		Start:   int64(s.Now()),
		Comment: comment,
	})
	if err != nil {
		return nil, err
	}
	c := NewCollector(s, nic, bufCap)
	c.Skew = opts.Skew
	c.Granularity = opts.Granularity
	c.EnableMetrics(opts.Obs)
	d := StartDaemon(s, c, w, s.Now().Add(dur))

	var result *tracefmt.Trace
	var perr error
	s.Spawn("collect-finalize", func(p *sim.Proc) {
		d.Wait(p)
		if err := w.Flush(); err != nil {
			perr = err
			return
		}
		result, perr = tracefmt.ReadAll(&disk)
	})
	s.RunUntil(s.Now().Add(dur + time.Second))
	if perr != nil {
		return nil, perr
	}
	return result, nil
}
