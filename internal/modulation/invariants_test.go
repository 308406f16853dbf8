package modulation

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/replay"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

// TestBottleneckFIFOProperty: packets submitted in some order leave the
// bottleneck in that order — the unified queue never reorders, regardless
// of sizes, directions, or arrival spacing. (With a residual per-byte cost
// the *delivery* order may legitimately differ by size — the model
// overlaps s·Vr — so the property is stated with Vr = 0, where delivery
// order equals bottleneck order.)
func TestBottleneckFIFOProperty(t *testing.T) {
	f := func(sizes []uint16, gaps []uint16, seed int64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		s := sim.New(seed)
		p := core.DelayParams{F: 3 * time.Millisecond, Vb: 2000, Vr: 0}
		e := NewEngine(SimClock{S: s}, &SliceSource{Trace: replay.Constant(p, 0, time.Hour, time.Second)},
			Config{Tick: -1, RNG: s.RNG("fifo")})
		var order []int
		at := sim.Time(0)
		for i, sz := range sizes {
			i := i
			size := int(sz%1500) + 1
			gap := time.Duration(0)
			if i < len(gaps) {
				gap = time.Duration(gaps[i]%1000) * time.Microsecond
			}
			at = at.Add(gap)
			dir := simnet.Outbound
			if sz%2 == 1 {
				dir = simnet.Inbound
			}
			s.At(at, func() {
				e.SubmitWithDrop(dir, size, func() { order = append(order, i) }, nil)
			})
		}
		s.Run()
		if len(order) != len(sizes) {
			return false // no drops configured, all must deliver
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDeliveryNeverBeforeSubmit: whatever the trace contents, a packet is
// never delivered before it was submitted.
func TestDeliveryNeverBeforeSubmitProperty(t *testing.T) {
	f := func(fMs, vb uint16, tick uint8, seed int64) bool {
		s := sim.New(seed)
		p := core.DelayParams{
			F:  time.Duration(fMs%50) * time.Millisecond,
			Vb: core.PerByte(vb % 10000),
			Vr: core.PerByte(vb % 500),
		}
		tk := time.Duration(tick%20) * time.Millisecond
		if tk == 0 {
			tk = -1
		}
		e := NewEngine(SimClock{S: s}, &SliceSource{Trace: replay.Constant(p, 0, time.Hour, time.Second)},
			Config{Tick: tk, RNG: s.RNG("x")})
		ok := true
		for i := 0; i < 20; i++ {
			at := sim.Time(i) * sim.Time(7*time.Millisecond)
			s.At(at, func() {
				e.SubmitWithDrop(simnet.Outbound, 700, func() {
					if s.Now() < at {
						ok = false
					}
				}, nil)
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConservationProperty: submitted = delivered + dropped, always.
func TestConservationProperty(t *testing.T) {
	f := func(loss uint8, n uint8, seed int64) bool {
		s := sim.New(seed)
		l := float64(loss%90) / 100
		p := core.DelayParams{F: time.Millisecond, Vb: 100, Vr: 0}
		e := NewEngine(SimClock{S: s}, &SliceSource{Trace: replay.Constant(p, l, time.Hour, time.Second)},
			Config{Tick: -1, RNG: s.RNG("c")})
		total := int(n%100) + 1
		delivered := 0
		for i := 0; i < total; i++ {
			s.At(sim.Time(i)*sim.Time(time.Millisecond), func() {
				e.SubmitWithDrop(simnet.Outbound, 100, func() { delivered++ }, nil)
			})
		}
		s.Run()
		st := e.Stats()
		return st.Submitted == int64(total) && int64(delivered)+st.Dropped == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestThroughputMatchesTrace: sustained backlogged traffic drains at
// exactly 1/Vb regardless of tick quantization.
func TestThroughputMatchesTrace(t *testing.T) {
	for _, tick := range []time.Duration{-1, 10 * time.Millisecond} {
		s := sim.New(4)
		p := core.DelayParams{F: 5 * time.Millisecond, Vb: core.PerByteFromBandwidth(1.5e6), Vr: 0}
		e := NewEngine(SimClock{S: s}, &SliceSource{Trace: replay.Constant(p, 0, time.Hour, time.Second)},
			Config{Tick: tick, RNG: s.RNG("tp")})
		const n, size = 500, 1500
		var last sim.Time
		for i := 0; i < n; i++ {
			e.SubmitWithDrop(simnet.Outbound, size, func() { last = s.Now() }, nil)
		}
		s.Run()
		wantBits := float64(n * size * 8)
		gotMbps := wantBits / last.Duration().Seconds() / 1e6
		if gotMbps < 1.45 || gotMbps > 1.56 {
			t.Fatalf("tick %v: backlogged throughput %.3f Mb/s, want ≈1.5", tick, gotMbps)
		}
	}
}

// TestEngineDeterministicAcrossRuns: identical seeds yield identical drop
// patterns and delivery times.
func TestEngineDeterministicAcrossRuns(t *testing.T) {
	run := func() []sim.Time {
		s := sim.New(99)
		p := core.DelayParams{F: 2 * time.Millisecond, Vb: 3000, Vr: 200}
		e := NewEngine(SimClock{S: s}, &SliceSource{Trace: replay.Constant(p, 0.25, time.Hour, time.Second)},
			Config{Tick: DefaultTick, RNG: s.RNG("det")})
		var times []sim.Time
		for i := 0; i < 200; i++ {
			s.At(sim.Time(i)*sim.Time(3*time.Millisecond), func() {
				e.SubmitWithDrop(simnet.Outbound, 800, func() { times = append(times, s.Now()) }, nil)
			})
		}
		s.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

// The four engine invariants below are stated as seeded properties over
// random traces and arrival schedules. Each runs through both remaining
// submission doors — SubmitSpan one packet at a time, and SubmitBatch
// one burst per arrival instant — and the two doors must also agree
// packet for packet. Most are stated against a twin engine that differs
// in one setting, so the test needs no second copy of the model.

// invariantSeeds is how many seeded cases each property runs per door.
const invariantSeeds = 40

// arrival is one packet of a seeded schedule.
type arrival struct {
	at   time.Duration
	dir  simnet.Direction
	size int
}

// door is one way into the engine: submit hands it one burst of packets
// that share an arrival instant.
type door struct {
	name   string
	submit func(e *Engine, burst []Submission)
}

var doors = []door{
	{"SubmitSpan", func(e *Engine, burst []Submission) {
		for _, s := range burst {
			e.SubmitSpan(s.Dir, s.Size, nil, s.Deliver, s.Drop)
		}
	}},
	{"SubmitBatch", func(e *Engine, burst []Submission) { e.SubmitBatch(burst) }},
}

// randomSchedule draws n arrivals in bursts of 1–6 packets with gaps of
// 0–4 ms, mixed directions and sizes of 40–1499 bytes.
func randomSchedule(rng *rand.Rand, n int) []arrival {
	arr := make([]arrival, 0, n)
	at := time.Duration(0)
	for len(arr) < n {
		at += time.Duration(rng.Intn(4000)) * time.Microsecond
		for k := 1 + rng.Intn(6); k > 0 && len(arr) < n; k-- {
			dir := simnet.Outbound
			if rng.Intn(2) == 1 {
				dir = simnet.Inbound
			}
			arr = append(arr, arrival{at: at, dir: dir, size: 40 + rng.Intn(1460)})
		}
	}
	return arr
}

// randomTrace draws tuples of 2–21 ms until they cover horizon, with F
// up to 30 ms, Vb up to 3000 ns/B (a queue builds within a burst), Vr up
// to 500 ns/B and, when lossy, L up to 0.6.
func randomTrace(rng *rand.Rand, horizon time.Duration, lossy bool) core.Trace {
	var tr core.Trace
	for total := time.Duration(0); total <= horizon; {
		tu := core.Tuple{
			D: time.Duration(2+rng.Intn(20)) * time.Millisecond,
			DelayParams: core.DelayParams{
				F:  time.Duration(rng.Intn(30000)) * time.Microsecond,
				Vb: core.PerByte(rng.Intn(3000)),
				Vr: core.PerByte(rng.Intn(500)),
			},
		}
		if lossy {
			tu.L = 0.6 * rng.Float64()
		}
		tr = append(tr, tu)
		total += tu.D
	}
	return tr
}

// randomTick is exact scheduling (-1) or a tick of 1–20 ms.
func randomTick(rng *rand.Rand) time.Duration {
	if rng.Intn(4) == 0 {
		return -1
	}
	return time.Duration(1+rng.Intn(20)) * time.Millisecond
}

// runSchedule feeds arr to a fresh engine through d, one burst per
// arrival instant, and returns every packet's outcome. Each packet must
// be delivered or dropped exactly once.
func runSchedule(t *testing.T, tr core.Trace, cfg Config, dropSeed int64, arr []arrival, d door) []outcome {
	t.Helper()
	s := sim.New(1)
	cfg.RNG = rand.New(rand.NewSource(dropSeed))
	e := engine(s, tr, cfg)
	outs := make([]outcome, len(arr))
	fates := make([]int, len(arr))
	for i := 0; i < len(arr); {
		j := i
		var burst []Submission
		for ; j < len(arr) && arr[j].at == arr[i].at; j++ {
			k := j
			burst = append(burst, Submission{
				Dir:  arr[k].dir,
				Size: arr[k].size,
				Deliver: func() {
					fates[k]++
					outs[k] = outcome{at: s.Now().Duration()}
				},
				Drop: func() {
					fates[k]++
					outs[k] = outcome{dropped: true}
				},
			})
		}
		s.At(sim.Time(arr[i].at), func() { d.submit(e, burst) })
		i = j
	}
	s.Run()
	for i, n := range fates {
		if n != 1 {
			t.Fatalf("%s: packet %d resolved %d times, want once", d.name, i, n)
		}
	}
	return outs
}

// checkInvariant runs prop for every seed through every door. prop draws
// its case from rng, checks the invariant and returns the outcomes of
// its primary run; the doors must return identical outcomes per seed.
func checkInvariant(t *testing.T, prop func(t *testing.T, rng *rand.Rand, d door) []outcome) {
	for seed := int64(1); seed <= invariantSeeds; seed++ {
		var first []outcome
		for _, d := range doors {
			got := prop(t, rand.New(rand.NewSource(seed)), d)
			if first == nil {
				first = got
				continue
			}
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("seed %d packet %d: %s gives %v, %s gives %v",
						seed, i, doors[0].name, first[i], d.name, got[i])
				}
			}
		}
	}
}

// TestTickRuleProperty: with a tick T, a packet whose exact delay is
// under T/2 is delivered at once, and any other is delivered at the tick
// nearest its exact delivery instant (a half tick rounds up). The exact
// instant comes from a twin engine with exact scheduling; quantizing
// never changes which packets are dropped.
func TestTickRuleProperty(t *testing.T) {
	checkInvariant(t, func(t *testing.T, rng *rand.Rand, d door) []outcome {
		arr := randomSchedule(rng, 80)
		tr := randomTrace(rng, arr[len(arr)-1].at, rng.Intn(2) == 1)
		tick := time.Duration(1+rng.Intn(20)) * time.Millisecond
		if rng.Intn(2) == 0 {
			// Boundary cases: with no per-byte cost the delay is F, put
			// within a nanosecond of a multiple of half a tick.
			for i := range tr {
				tr[i].Vb, tr[i].Vr = 0, 0
				tr[i].F = max(0, time.Duration(rng.Intn(4))*tick/2+time.Duration(rng.Intn(3)-1))
			}
		}
		dropSeed := rng.Int63()
		exact := runSchedule(t, tr, Config{Tick: -1}, dropSeed, arr, d)
		ticked := runSchedule(t, tr, Config{Tick: tick}, dropSeed, arr, d)
		for i, a := range arr {
			want := exact[i]
			if !want.dropped {
				if want.at-a.at < tick/2 {
					want.at = a.at
				} else {
					want.at = (want.at + tick/2) / tick * tick
				}
			}
			if ticked[i] != want {
				t.Fatalf("%s tick %v packet %d sent at %v: exact %v, ticked %v, want %v",
					d.name, tick, i, a.at, exact[i], ticked[i], want)
			}
		}
		return ticked
	})
}

// TestCompensationFloorProperty: compensation lowers inbound Vb but
// never below 0. So no packet leaves before its arrival plus F + s·Vr of
// the tuple in force, and compensating past every tuple's Vb +
// InboundExtra changes nothing at all.
func TestCompensationFloorProperty(t *testing.T) {
	checkInvariant(t, func(t *testing.T, rng *rand.Rand, d door) []outcome {
		arr := randomSchedule(rng, 80)
		tr := randomTrace(rng, arr[len(arr)-1].at, false)
		extra := core.PerByte(rng.Intn(1000))
		comp := core.PerByte(rng.Intn(5000))
		cfg := Config{Tick: randomTick(rng), InboundExtra: extra, Compensation: comp}
		dropSeed := rng.Int63()
		outs := runSchedule(t, tr, cfg, dropSeed, arr, d)
		if cfg.Tick < 0 {
			for i, a := range arr {
				tu := tupleAt(tr, a.at)
				if earliest := a.at + tu.F + tu.Vr.Cost(a.size); outs[i].at < earliest {
					t.Fatalf("%s packet %d (dir %d) delivered at %v, before arrival + F + s·Vr = %v",
						d.name, i, a.dir, outs[i].at, earliest)
				}
			}
		}
		floor := extra
		for _, tu := range tr {
			floor = max(floor, tu.Vb+extra)
		}
		cfg.Compensation = floor
		atFloor := runSchedule(t, tr, cfg, dropSeed, arr, d)
		cfg.Compensation = floor + core.PerByte(1+rng.Intn(5000))
		past := runSchedule(t, tr, cfg, dropSeed, arr, d)
		for i := range arr {
			if atFloor[i] != past[i] {
				t.Fatalf("%s packet %d: compensation at the floor gives %v, past it %v",
					d.name, i, atFloor[i], past[i])
			}
		}
		return outs
	})
}

// tupleAt returns the tuple in force at instant at: tuple i covers
// [D_0+…+D_(i-1), D_0+…+D_i) from the engine's clock zero.
func tupleAt(tr core.Trace, at time.Duration) core.Tuple {
	end := time.Duration(0)
	for _, tu := range tr {
		end += tu.D
		if at < end {
			return tu
		}
	}
	return tr[len(tr)-1]
}

// TestDroppedPacketsOccupyBottleneckProperty: the loss lottery runs after
// the bottleneck queue, so a dropped packet still occupies it. Every
// packet that survives a lossy trace leaves exactly when it leaves on a
// twin trace with no loss; had drops skipped the queue, survivors behind
// them would leave early.
func TestDroppedPacketsOccupyBottleneckProperty(t *testing.T) {
	checkInvariant(t, func(t *testing.T, rng *rand.Rand, d door) []outcome {
		arr := randomSchedule(rng, 80)
		lossy := randomTrace(rng, arr[len(arr)-1].at, true)
		lossless := append(core.Trace(nil), lossy...)
		for i := range lossless {
			lossless[i].L = 0
		}
		cfg := Config{Tick: randomTick(rng)}
		dropSeed := rng.Int63()
		got := runSchedule(t, lossy, cfg, dropSeed, arr, d)
		ref := runSchedule(t, lossless, cfg, dropSeed, arr, d)
		for i := range arr {
			if ref[i].dropped {
				t.Fatalf("%s packet %d dropped on a lossless trace", d.name, i)
			}
			if !got[i].dropped && got[i] != ref[i] {
				t.Fatalf("%s packet %d survived at %v, lossless twin %v", d.name, i, got[i], ref[i])
			}
		}
		return got
	})
}

// TestDirectionsShareQueueProperty: inbound and outbound packets
// serialize through one bottleneck queue. With no inbound-only costs,
// a mixed-direction schedule gives exactly the outcomes of the same
// schedule sent all outbound; separate queues would let the two
// directions overlap and leave early.
func TestDirectionsShareQueueProperty(t *testing.T) {
	checkInvariant(t, func(t *testing.T, rng *rand.Rand, d door) []outcome {
		arr := randomSchedule(rng, 80)
		tr := randomTrace(rng, arr[len(arr)-1].at, rng.Intn(2) == 1)
		cfg := Config{Tick: randomTick(rng)}
		dropSeed := rng.Int63()
		mixed := runSchedule(t, tr, cfg, dropSeed, arr, d)
		outbound := append([]arrival(nil), arr...)
		for i := range outbound {
			outbound[i].dir = simnet.Outbound
		}
		ref := runSchedule(t, tr, cfg, dropSeed, outbound, d)
		for i, a := range arr {
			if mixed[i] != ref[i] {
				t.Fatalf("%s packet %d (dir %d): mixed %v, all-outbound %v", d.name, i, a.dir, mixed[i], ref[i])
			}
		}
		return mixed
	})
}
