package modulation

// Observability-driven tests: tick-quantization boundary behaviour pinned
// through the packet's span events, engine metric registration, and
// drop-lottery determinism across equally seeded engines.

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/obs"
	"tracemod/internal/obs/span"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

// tracedEngine builds an engine on s that roots a span for every packet,
// stamped with the simulator's clock, and the sink collecting them.
func tracedEngine(s *sim.Scheduler, tr core.Trace, cfg Config) (*Engine, *span.CollectorSink) {
	sink := span.NewCollectorSink(0)
	cfg.Spans = span.New(span.Config{Sample: 1, Sink: sink, Now: func() time.Duration { return s.Now().Duration() }})
	return NewEngine(SimClock{S: s}, &SliceSource{Trace: tr}, cfg), sink
}

// packetSpans returns the one packet's "modulation.packet" span and its
// "wheel.wait" child (nil when the packet was not scheduled).
func packetSpans(t *testing.T, sink *span.CollectorSink) (pkt, wait *span.SpanData) {
	t.Helper()
	for _, d := range sink.Spans() {
		switch d.Name {
		case "modulation.packet":
			pkt = d
		case "wheel.wait":
			wait = d
		}
	}
	if pkt == nil {
		t.Fatalf("no modulation.packet span in %d spans", len(sink.Spans()))
	}
	return pkt, wait
}

// submitOnce runs a single packet with latency f through a fresh engine
// with a 10 ms tick, and returns its spans (see packetSpans) plus the
// virtual delivery time (-1 if never delivered).
func submitOnce(t *testing.T, f time.Duration) (pkt, wait *span.SpanData, at time.Duration) {
	t.Helper()
	s := sim.New(1)
	e, sink := tracedEngine(s, constTrace(core.DelayParams{F: f}, 0), Config{Tick: 10 * time.Millisecond})
	at = -1
	e.SubmitWithDrop(simnet.Outbound, 100, func() { at = s.Now().Duration() }, nil)
	s.RunUntil(sim.Time(time.Second))
	pkt, wait = packetSpans(t, sink)
	return pkt, wait, at
}

// event returns the span's first event of the given name, failing if
// absent.
func event(t *testing.T, d *span.SpanData, name string) span.Event {
	t.Helper()
	for _, e := range d.Events {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no %q event in %s span %+v", name, d.Name, d.Events)
	return span.Event{}
}

func hasEvent(d *span.SpanData, name string) bool {
	for _, e := range d.Events {
		if e.Name == name {
			return true
		}
	}
	return false
}

// waitAttrs returns the wheel.wait child's scheduled target and delay,
// failing if the packet was not scheduled.
func waitAttrs(t *testing.T, wait *span.SpanData) (target, delay time.Duration) {
	t.Helper()
	if wait == nil {
		t.Fatal("packet was not scheduled: no wheel.wait span")
	}
	for _, a := range wait.Attrs {
		switch a.Key {
		case "target_ns":
			target = time.Duration(a.Val)
		case "delay_ns":
			delay = time.Duration(a.Val)
		}
	}
	return target, delay
}

func TestQuantizationBelowHalfTickIsImmediate(t *testing.T) {
	// Delay strictly under half a tick (5 ms): delivered at once, no
	// quantization event.
	for _, f := range []time.Duration{time.Millisecond, 5*time.Millisecond - time.Nanosecond} {
		pkt, wait, at := submitOnce(t, f)
		if at != 0 {
			t.Fatalf("F=%v: delivered at %v, want immediate (0)", f, at)
		}
		if hasEvent(pkt, "quantize") {
			t.Fatalf("F=%v: unexpected quantize event for sub-half-tick delay", f)
		}
		if dev := event(t, pkt, "deliver-immediate"); dev.At != 0 || wait != nil {
			t.Fatalf("F=%v: delivery not immediate: %+v, wheel.wait %v", f, dev, wait)
		}
	}
}

func TestQuantizationAtExactlyHalfTickRoundsUp(t *testing.T) {
	// Exactly half a tick is NOT under half a tick: it is scheduled, and
	// rounds to the closest tick — 10 ms.
	pkt, wait, at := submitOnce(t, 5*time.Millisecond)
	if at != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
	if q := event(t, pkt, "quantize"); q.Val != int64(5*time.Millisecond) {
		t.Fatalf("quantize delta = %v, want +5ms", time.Duration(q.Val))
	}
	if target, delay := waitAttrs(t, wait); hasEvent(pkt, "deliver-immediate") || target != 10*time.Millisecond || delay != 10*time.Millisecond {
		t.Fatalf("wheel.wait target=%v delay=%v, want scheduled at 10ms", target, delay)
	}
}

func TestQuantizationJustAboveHalfTickRoundsToClosestTick(t *testing.T) {
	// 5ms+1ns rounds to 10 ms (closest tick), recording a just-under
	// +5ms rounding delta.
	pkt, wait, at := submitOnce(t, 5*time.Millisecond+time.Nanosecond)
	if at != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
	if q := event(t, pkt, "quantize"); q.Val != int64(5*time.Millisecond-time.Nanosecond) {
		t.Fatalf("quantize delta = %v, want 5ms-1ns", time.Duration(q.Val))
	}
	if target, _ := waitAttrs(t, wait); target != 10*time.Millisecond {
		t.Fatalf("wheel.wait target = %v, want 10ms", target)
	}
}

func TestQuantizationRoundsDownPastTick(t *testing.T) {
	// 14 ms rounds down to 10 ms, a negative delta; its mirror, 16 ms,
	// rounds up to 20 ms, which truncation to the tick would not.
	for _, c := range []struct{ f, want time.Duration }{
		{14 * time.Millisecond, 10 * time.Millisecond},
		{16 * time.Millisecond, 20 * time.Millisecond},
	} {
		pkt, wait, at := submitOnce(t, c.f)
		if at != c.want {
			t.Fatalf("F=%v: delivered at %v, want %v", c.f, at, c.want)
		}
		if q := event(t, pkt, "quantize"); time.Duration(q.Val) != c.want-c.f {
			t.Fatalf("F=%v: quantize delta = %v, want %v", c.f, time.Duration(q.Val), c.want-c.f)
		}
		if target, delay := waitAttrs(t, wait); target != c.want || delay != c.want {
			t.Fatalf("F=%v: wheel.wait target=%v delay=%v, want %v", c.f, target, delay, c.want)
		}
	}
}

func TestLifecycleEventOrdering(t *testing.T) {
	// One delayed packet's span records, in order: the cursor lookup,
	// bottleneck enter/exit, quantize, and the lead of a new delivery
	// batch; the scheduled wait is its wheel.wait child.
	pkt, wait, _ := submitOnce(t, 20*time.Millisecond)
	var names []string
	for _, e := range pkt.Events {
		names = append(names, e.Name)
	}
	got := strings.Join(names, " ")
	if want := "cursor-fastpath bneck-enter bneck-exit quantize coalesce-lead"; got != want {
		t.Fatalf("event order = %q, want %q", got, want)
	}
	if target, _ := waitAttrs(t, wait); target != 20*time.Millisecond || pkt.End != target || wait.End != target {
		t.Fatalf("wheel.wait target %v, spans end at %v/%v, want all 20ms", target, pkt.End, wait.End)
	}
}

func TestEngineMetricsExport(t *testing.T) {
	s := sim.New(1)
	reg := obs.NewRegistry()
	p := core.DelayParams{F: 20 * time.Millisecond, Vb: 1000}
	e := NewEngine(SimClock{S: s}, &SliceSource{Trace: constTrace(p, 0)}, Config{Metrics: reg})
	for i := 0; i < 5; i++ {
		e.SubmitWithDrop(simnet.Outbound, 1000, func() {}, nil)
	}
	// Mid-flight: all five packets occupy the bottleneck (1 ms each,
	// nothing has drained yet at virtual time 0).
	if d := reg.Gauge("tracemod_modulation_bottleneck_queue_depth", "").Load(); d != 5 {
		t.Fatalf("queue depth mid-flight = %d, want 5", d)
	}
	s.RunUntil(sim.Time(time.Second))
	out := reg.PrometheusString()
	for _, want := range []string{
		"tracemod_modulation_packets_submitted_total 5",
		"tracemod_modulation_packets_delivered_total 5",
		"tracemod_modulation_bottleneck_queue_depth 0",
		"tracemod_modulation_active_tuple_index",
		"tracemod_modulation_serialization_seconds_count 5",
		"tracemod_modulation_bottleneck_busy_seconds 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestDropsAttributedToTuple(t *testing.T) {
	// Tuple 1 is lossless, tuple 2 drops everything: the per-tuple drop
	// vector must attribute every loss to tuple ordinal 2.
	s := sim.New(1)
	reg := obs.NewRegistry()
	tr := core.Trace{
		{D: time.Second, DelayParams: core.DelayParams{F: time.Millisecond}, L: 0},
		{D: time.Hour, DelayParams: core.DelayParams{F: time.Millisecond}, L: 1},
	}
	e := NewEngine(SimClock{S: s}, &SliceSource{Trace: tr}, Config{Tick: -1, Metrics: reg})
	e.SubmitWithDrop(simnet.Outbound, 100, func() {}, nil)
	s.RunUntil(sim.Time(2 * time.Second)) // cross into tuple 2
	for i := 0; i < 3; i++ {
		e.SubmitWithDrop(simnet.Outbound, 100, func() {}, nil)
	}
	s.RunUntil(sim.Time(3 * time.Second))
	out := reg.PrometheusString()
	if !strings.Contains(out, `tracemod_modulation_drops_by_tuple_total{tuple="2"} 3`) {
		t.Fatalf("per-tuple drops missing:\n%s", out)
	}
	if strings.Contains(out, `tuple="1"`) {
		t.Fatalf("tuple 1 should have no drops:\n%s", out)
	}
}

func TestEqualSeedsGiveIdenticalDropSequences(t *testing.T) {
	// Satellite contract: two engines with equal seeds produce identical
	// drop sequences (and a different seed produces a different one).
	tr := constTrace(core.DelayParams{F: time.Millisecond}, 0.3)
	seq := func(seed int64) string {
		s := sim.New(1)
		e := NewEngine(SimClock{S: s}, &SliceSource{Trace: tr},
			Config{Tick: -1, RNG: rand.New(rand.NewSource(seed))})
		var b strings.Builder
		for i := 0; i < 300; i++ {
			delivered := false
			e.SubmitWithDrop(simnet.Outbound, 100, func() { delivered = true }, nil)
			s.Run()
			if delivered {
				b.WriteByte('.')
			} else {
				b.WriteByte('x')
			}
		}
		return b.String()
	}
	a, b2 := seq(7), seq(7)
	if a != b2 {
		t.Fatal("equal seeds must give identical drop sequences")
	}
	if !strings.Contains(a, "x") {
		t.Fatal("expected drops at 30% loss")
	}
	if seq(8) == a {
		t.Fatal("different seeds should give a different sequence")
	}
}

func TestCompensationEventCarriesAdjustment(t *testing.T) {
	s := sim.New(1)
	p := core.DelayParams{F: time.Millisecond, Vb: 1000}
	e, sink := tracedEngine(s, constTrace(p, 0), Config{Tick: -1, Compensation: 400})
	e.SubmitWithDrop(simnet.Inbound, 1000, func() {}, nil)
	s.RunUntil(sim.Time(100 * time.Millisecond))
	pkt, _ := packetSpans(t, sink)
	// Inbound Vb drops from 1000 to 600 ns/B over 1000 bytes: -400µs.
	if ev := event(t, pkt, "compensate"); ev.Val != int64(-400*time.Microsecond) {
		t.Fatalf("compensate adjust = %v, want -400µs", time.Duration(ev.Val))
	}
	if hasEvent(pkt, "quantize") {
		t.Fatal("exact scheduling must not quantize")
	}
}
