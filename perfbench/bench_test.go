package main

import (
	"math/rand"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/expt"
	"tracemod/internal/modulation"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int64
		want int
		p    int
		ok   bool
	}{
		{1000, 99, 99, true}, // rank 990, 10 beyond
		{999, 99, 98, true},  // p99 rank 990 leaves 9
		{100, 99, 90, true},  // rank 90, 10 beyond
		{64, 99, 84, true},   // rank 54, 10 beyond; p85 rank 55 leaves 9
		{20, 99, 50, true},   // the median of 20 has 10 beyond
		{19, 99, 0, false},   // nothing has 10 beyond
		{100000, 50, 50, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n, c.want)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d, %d) = %d, %v; want %d, %v", c.n, c.want, p, ok, c.p, c.ok)
		}
		if ok && c.n-rankOf(c.n, float64(p)) < tailBeyond {
			t.Errorf("n=%d p%d leaves fewer than %d beyond", c.n, p, tailBeyond)
		}
	}
}

func TestHistQuantileWithinResolution(t *testing.T) {
	h := &hist{}
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, p := range []float64{50, 90, 99} {
		want := float64(rankOf(h.n, p))
		got := float64(h.quantile(p))
		if d := (got - want) / want; d > 1.0/histSub || d < -1.0/histSub {
			t.Errorf("p%v = %v, want %v within 1/%d", p, got, want, histSub)
		}
	}
	// Tail rule on the histogram: 1000 samples support p99 exactly.
	h = &hist{}
	for v := int64(0); v < 1000; v++ {
		h.record(v)
	}
	tl, err := tailOf(h, 99, 1)
	if err != nil || tl.P != 99 || tl.N != 1000 || tl.Value < 989*(1-1.0/histSub) || tl.Value > 989 {
		t.Fatalf("tailOf = %+v, %v; want p99 = 989 within 1/%d", tl, err, histSub)
	}
	if _, err := tailOf(&hist{}, 99, 1); err == nil {
		t.Fatal("an empty histogram must not report a percentile")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	recs := []spanRec{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 40, Parent: 0},  // overlaps a: union 10..40
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to 90..100
		{Name: "d", Start: 50, End: 60, Parent: 1},  // grandchild: not op's child
		{Name: "op", Start: 200, End: 250, Parent: -1},
		{Name: "open", Start: 210, End: -1, Parent: 5}, // unfinished: ignored
	}
	got := selfTimes(recs, "op")
	want := []int64{100 - 30 - 10, 50}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	if c := covered(0, 10, nil); c != 0 {
		t.Fatalf("covered with no children = %d", c)
	}
}

func TestSpansRecordAndAggregate(t *testing.T) {
	sp := newSpans(2)
	root := sp.begin("op", -1, 7)
	sp.add("x", 1, 3, root, 7, true)
	sp.add("x", 1, 5, root, 7, true) // past keep: aggregated only
	sp.end(root, "op", 0, false)
	if n, mean := sp.stats("x"); n != 2 || mean != 3 {
		t.Fatalf("stats(x) = %d, %v; want 2, 3", n, mean)
	}
	if len(sp.recs) != 2 || sp.dropped.Load() != 1 {
		t.Fatalf("stored %d, dropped %d; want 2, 1", len(sp.recs), sp.dropped.Load())
	}
	var nilSpans *spans
	if nilSpans.add("x", 0, 1, -1, 0, false) != -1 || nilSpans.now() != 0 {
		t.Fatal("a nil recorder must be inert")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	b := make([]byte, 100)
	encodePkt(b, 3, 12345, 987654321, flagInbound)
	relay, seq, at, flags, ok := decodePkt(b)
	if !ok || relay != 3 || seq != 12345 || at != 987654321 || flags != flagInbound {
		t.Fatalf("decode = %d %d %d %d %v", relay, seq, at, flags, ok)
	}
	b[50] ^= 1
	if _, _, _, _, ok := decodePkt(b); ok {
		t.Fatal("a corrupted datagram must fail its checksum")
	}
}

// The oracle must reproduce a modulation.Engine driven directly on a
// simulated clock, packet for packet, for a small fixed schedule that
// crosses tuple boundaries, loses packets and mixes directions.
func TestOracleMatchesEngineOnSimClock(t *testing.T) {
	trace := core.Trace{
		{D: 50 * time.Millisecond, DelayParams: core.DelayParams{F: 2 * time.Millisecond, Vb: 800, Vr: 100}, L: 0.2},
		{D: 80 * time.Millisecond, DelayParams: core.DelayParams{F: 9 * time.Millisecond, Vb: 4000, Vr: 0}, L: 0.5},
		{D: 30 * time.Millisecond, DelayParams: core.DelayParams{F: 500 * time.Microsecond, Vb: 100, Vr: 50}, L: 0},
	}
	cfg := oracleSession{Trace: trace, Skip: 1, Seed: 42, InboundExtra: 813, Compensation: 800}
	rng := rand.New(rand.NewSource(9))
	var events []oracleEvent
	at := time.Duration(0)
	for i := 0; i < 60; i++ {
		at += time.Duration(rng.Intn(8000)) * time.Microsecond
		dir := simnet.Outbound
		if i%3 == 2 {
			dir = simnet.Inbound
		}
		events = append(events, oracleEvent{At: at, Dir: dir, Size: 64 + rng.Intn(1337), ID: i})
	}
	got := oracle(cfg, events)

	// Reference: the same engine, driven by a simulated process that
	// sleeps to each submission instant.
	s := sim.New(1)
	src := &modulation.SliceSource{Trace: trace, Loop: true}
	src.Skip(1)
	eng := modulation.NewEngine(modulation.SimClock{S: s}, src, modulation.Config{
		Tick: -1, InboundExtra: 813, Compensation: 800, RNG: rand.New(rand.NewSource(42)),
	})
	want := make([]oracleOutcome, len(events))
	s.Spawn("submitter", func(p *sim.Proc) {
		for i, ev := range events {
			p.Sleep(ev.At - p.Now().Duration())
			eng.SubmitWithDrop(ev.Dir, ev.Size, func() {
				want[i] = oracleOutcome{Delivered: true, At: s.Now().Duration()}
			}, func() {})
		}
	})
	s.RunUntil(sim.Time(time.Minute))

	delivered := 0
	for i := range events {
		if got[i] != want[i] {
			t.Errorf("packet %d: oracle %+v, engine %+v", i, got[i], want[i])
		}
		if got[i].Delivered {
			delivered++
			if got[i].At < events[i].At {
				t.Errorf("packet %d delivered before it was offered", i)
			}
		}
	}
	if delivered == 0 || delivered == len(events) {
		t.Fatalf("schedule should both deliver and drop; delivered %d of %d", delivered, len(events))
	}
	// First packet: exact scheduling, tuple 1 in force (Skip 1), idle
	// bottleneck: delay = F + (Vb+Vr)·size for outbound.
	if got[0].Delivered {
		tu := trace[1]
		want0 := events[0].At + tu.F + tu.Vb.Cost(events[0].Size) + tu.Vr.Cost(events[0].Size)
		if got[0].At != want0 {
			t.Errorf("first delivery at %v, hand-computed %v", got[0].At, want0)
		}
	}
}

// The benchmark renders Figures 6–8 from its own cell pass; at the
// default seed that must equal what expt's figure functions print, and
// hash to the recorded value.
func TestReproTablesMatchExpt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Figure 6-8 reproduction twice")
	}
	o := reproOptions(reproDefaultSeed)
	ref, err := setupRepro(o)
	if err != nil {
		t.Fatal(err)
	}
	cells := reproCells(o)
	outs := make([]reproOut, len(cells))
	for i, c := range cells {
		if outs[i], err = runCell(c, o, ref.comp, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := renderTables(o, cells, outs, ref)

	web, err := expt.Fig6Web(o)
	if err != nil {
		t.Fatal(err)
	}
	ftpT, err := expt.Fig7FTP(o)
	if err != nil {
		t.Fatal(err)
	}
	andrew, err := expt.Fig8Andrew(o)
	if err != nil {
		t.Fatal(err)
	}
	want := web.Format() + ftpT.Format() + andrew.Format()
	if got != want {
		t.Fatalf("benchmark tables differ from expt's:\n--- got\n%s\n--- want\n%s", got, want)
	}
	if sum := sha(got); sum != reproTablesSHA256 {
		t.Fatalf("tables hash to %s, recorded %s", sum, reproTablesSHA256)
	}
}
