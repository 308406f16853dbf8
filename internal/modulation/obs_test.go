package modulation

// Observability-driven tests: tick-quantization boundary behaviour pinned
// through the packet-lifecycle event tracer, engine metric registration,
// and drop-lottery determinism across equally seeded engines.

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/obs"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

// submitOnce runs a single packet with latency f through a fresh engine
// with a 10 ms tick and a tracer, and returns the recorded events plus
// the virtual delivery time (-1 if never delivered).
func submitOnce(t *testing.T, f time.Duration) ([]obs.Event, time.Duration) {
	t.Helper()
	s := sim.New(1)
	tr := constTrace(core.DelayParams{F: f}, 0)
	tracer := obs.NewRingTracer(64)
	e := NewEngine(SimClock{S: s}, &SliceSource{Trace: tr}, Config{Tick: 10 * time.Millisecond, Tracer: tracer})
	deliveredAt := time.Duration(-1)
	e.SubmitWithDrop(simnet.Outbound, 100, func() { deliveredAt = s.Now().Duration() }, nil)
	s.RunUntil(sim.Time(time.Second))
	return tracer.Snapshot(), deliveredAt
}

// find returns the first event of the given kind, failing if absent.
func find(t *testing.T, events []obs.Event, kind obs.EventKind) obs.Event {
	t.Helper()
	for _, e := range events {
		if e.Kind == kind {
			return e
		}
	}
	t.Fatalf("no %v event in %d events", kind, len(events))
	return obs.Event{}
}

func hasKind(events []obs.Event, kind obs.EventKind) bool {
	for _, e := range events {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

func TestQuantizationBelowHalfTickIsImmediate(t *testing.T) {
	// Delay strictly under half a tick (5 ms): delivered at once, no
	// quantization event.
	for _, f := range []time.Duration{time.Millisecond, 5*time.Millisecond - time.Nanosecond} {
		events, at := submitOnce(t, f)
		if at != 0 {
			t.Fatalf("F=%v: delivered at %v, want immediate (0)", f, at)
		}
		if hasKind(events, obs.EvQuantize) {
			t.Fatalf("F=%v: unexpected quantize event for sub-half-tick delay", f)
		}
		dev := find(t, events, obs.EvDeliver)
		if dev.Aux != 1 {
			t.Fatalf("F=%v: deliver event not flagged immediate: %+v", f, dev)
		}
	}
}

func TestQuantizationAtExactlyHalfTickRoundsUp(t *testing.T) {
	// Exactly half a tick is NOT under half a tick: it is scheduled, and
	// rounds to the closest tick — 10 ms.
	events, at := submitOnce(t, 5*time.Millisecond)
	if at != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
	q := find(t, events, obs.EvQuantize)
	if q.Value != 5*time.Millisecond {
		t.Fatalf("quantize delta = %v, want +5ms", q.Value)
	}
	dev := find(t, events, obs.EvDeliver)
	if dev.Aux == 1 || dev.At != 10*time.Millisecond {
		t.Fatalf("deliver event = %+v, want scheduled at 10ms", dev)
	}
}

func TestQuantizationJustAboveHalfTickRoundsToClosestTick(t *testing.T) {
	// 5ms+1ns rounds to 10 ms (closest tick), recording a just-under
	// +5ms rounding delta.
	events, at := submitOnce(t, 5*time.Millisecond+time.Nanosecond)
	if at != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
	q := find(t, events, obs.EvQuantize)
	if q.Value != 5*time.Millisecond-time.Nanosecond {
		t.Fatalf("quantize delta = %v, want 5ms-1ns", q.Value)
	}
}

func TestQuantizationRoundsDownPastTick(t *testing.T) {
	// 14 ms rounds down to 10 ms: the tracer records a negative delta.
	events, at := submitOnce(t, 14*time.Millisecond)
	if at != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
	q := find(t, events, obs.EvQuantize)
	if q.Value != -4*time.Millisecond {
		t.Fatalf("quantize delta = %v, want -4ms", q.Value)
	}
}

func TestLifecycleEventOrdering(t *testing.T) {
	// One delayed packet emits, in record order: tuple-switch (from
	// engine construction), submit, bottleneck enter/exit, quantize,
	// deliver.
	events, _ := submitOnce(t, 20*time.Millisecond)
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Kind.String())
	}
	got := strings.Join(kinds, " ")
	// Later tuple-switches may trail as virtual time runs on.
	want := "tuple-switch submit bneck-enter bneck-exit quantize deliver"
	if !strings.HasPrefix(got, want) {
		t.Fatalf("event order = %q, want prefix %q", got, want)
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
	tracer := obs.NewRingTracer(32)
	p := core.DelayParams{F: time.Millisecond, Vb: 1000}
	e := NewEngine(SimClock{S: s}, &SliceSource{Trace: constTrace(p, 0)},
		Config{Tick: -1, Compensation: 400, Tracer: tracer})
	e.SubmitWithDrop(simnet.Inbound, 1000, func() {}, nil)
	// Bounded run: s.Run would walk the whole hour-long trace and flood
	// the small event ring with tuple switches.
	s.RunUntil(sim.Time(100 * time.Millisecond))
	ev := find(t, tracer.Snapshot(), obs.EvCompensate)
	// Inbound Vb drops from 1000 to 600 ns/B over 1000 bytes: -400µs.
	if ev.Value != -400*time.Microsecond {
		t.Fatalf("compensate adjust = %v, want -400µs", ev.Value)
	}
	if hasKind(tracer.Snapshot(), obs.EvQuantize) {
		t.Fatal("exact scheduling must not quantize")
	}
}
