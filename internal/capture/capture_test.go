package capture

import (
	"runtime"
	"testing"
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/pinger"
	"tracemod/internal/scenario"
	"tracemod/internal/sim"
	"tracemod/internal/tracefmt"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Push(tracefmt.RecPacket, i)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	out := r.Drain(0)
	if len(out) != 3 {
		t.Fatalf("drained %d", len(out))
	}
	for i, v := range out {
		if v.(int) != i {
			t.Fatalf("order wrong: %v", out)
		}
	}
	if r.Len() != 0 {
		t.Fatal("drain should empty the ring")
	}
}

func TestRingOverrunCountsLost(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Push(tracefmt.RecPacket, i)
	}
	if r.LostSinceDrain() != 2 {
		t.Fatalf("lost = %d, want 2", r.LostSinceDrain())
	}
	out := r.Drain(sim.Time(77))
	// First record must be the loss marker, then the 3 surviving newest.
	lost, ok := out[0].(tracefmt.LostRecord)
	if !ok {
		t.Fatalf("first drained record = %T, want LostRecord", out[0])
	}
	if lost.Count != 2 || lost.Of != tracefmt.RecPacket || lost.At != 77 {
		t.Fatalf("lost = %+v", lost)
	}
	if len(out) != 4 || out[1].(int) != 2 || out[3].(int) != 4 {
		t.Fatalf("out = %v", out)
	}
	// Counter resets after drain.
	if r.LostSinceDrain() != 0 {
		t.Fatal("lost counter should reset")
	}
}

func TestRingLostByType(t *testing.T) {
	r := NewRing(1)
	r.Push(tracefmt.RecDevice, "d")
	r.Push(tracefmt.RecPacket, "p") // evicts the device record
	r.Push(tracefmt.RecPacket, "p2")
	out := r.Drain(0)
	foundDev, foundPkt := false, false
	for _, rec := range out {
		if l, ok := rec.(tracefmt.LostRecord); ok {
			switch l.Of {
			case tracefmt.RecDevice:
				foundDev = l.Count == 1
			case tracefmt.RecPacket:
				foundPkt = l.Count == 1
			}
		}
	}
	if !foundDev || !foundPkt {
		t.Fatalf("per-type loss markers missing: %v", out)
	}
}

func TestRingGrowsToItsCapacity(t *testing.T) {
	// The slots grow with the records, never past the capacity, and a
	// grown ring loses exactly what a preallocated one would: the oldest
	// records beyond the capacity, in arrival order across drains.
	const capacity = 1000
	r := NewRing(capacity)
	if len(r.recs) != 0 {
		t.Fatalf("a new ring holds %d slots, want 0", len(r.recs))
	}
	next := 0
	for round, pushes := range []int{10, 600, 1500, 5} {
		for i := 0; i < pushes; i++ {
			r.Push(tracefmt.RecPacket, next)
			next++
		}
		if len(r.recs) > capacity {
			t.Fatalf("round %d: %d slots exceed the capacity", round, len(r.recs))
		}
		wantLost := max(pushes-capacity, 0)
		if got := r.LostSinceDrain(); got != wantLost {
			t.Fatalf("round %d: lost %d, want %d", round, got, wantLost)
		}
		out := r.Drain(0)
		if wantLost > 0 {
			out = out[1:] // the loss marker
		}
		if len(out) != pushes-wantLost {
			t.Fatalf("round %d: drained %d, want %d", round, len(out), pushes-wantLost)
		}
		for i, rec := range out {
			if want := next - len(out) + i; rec.(int) != want {
				t.Fatalf("round %d: record %d = %v, want %d", round, i, rec, want)
			}
		}
	}
	if len(r.recs) != capacity {
		t.Fatalf("after an overrun the ring holds %d slots, want %d", len(r.recs), capacity)
	}
}

func TestRingCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRing(0)
}

func TestCollectorTapsPingTraffic(t *testing.T) {
	s := sim.New(3)
	tb := scenario.BuildWireless(s, scenario.Porter)
	c := NewCollector(s, tb.Laptop.NIC(0), 4096)
	c.Open()
	if !c.Opened() {
		t.Fatal("collector should be open")
	}
	pinger.Start(s, tb.Laptop, scenario.ServerIP, 5*time.Second)
	s.RunFor(6 * time.Second)
	c.Close()
	recs := c.Read()

	var echoes, replies, devices int
	var sawRTT bool
	for _, rec := range recs {
		switch v := rec.(type) {
		case tracefmt.PacketRecord:
			if v.ICMPType == packet.ICMPEcho && v.Dir == tracefmt.DirOut {
				echoes++
			}
			if v.ICMPType == packet.ICMPEchoReply && v.Dir == tracefmt.DirIn {
				replies++
				if v.RTT > 0 {
					sawRTT = true
				}
			}
		case tracefmt.DeviceRecord:
			devices++
			if v.Signal <= 0 {
				t.Fatal("device record should carry signal level")
			}
		}
	}
	// 5 groups x up to 3 echoes each.
	if echoes < 10 || replies < 8 {
		t.Fatalf("echoes=%d replies=%d: workload not captured", echoes, replies)
	}
	if !sawRTT {
		t.Fatal("ECHOREPLY records must carry computed RTTs")
	}
	if devices < 40 { // 5s at 100ms sampling
		t.Fatalf("devices=%d, want ≈50", devices)
	}
}

func TestCollectorRecordsSizes(t *testing.T) {
	s := sim.New(3)
	tb := scenario.BuildWireless(s, scenario.Porter)
	c := NewCollector(s, tb.Laptop.NIC(0), 4096)
	c.Open()
	pg := pinger.Start(s, tb.Laptop, scenario.ServerIP, 2*time.Second)
	s.RunFor(3 * time.Second)
	sizes := map[uint16]bool{}
	for _, rec := range c.Read() {
		if v, ok := rec.(tracefmt.PacketRecord); ok && v.ICMPType == packet.ICMPEcho {
			sizes[v.Size] = true
		}
	}
	s1 := uint16(pinger.WireSize(pg.S1))
	s2 := uint16(pinger.WireSize(pg.S2))
	if !sizes[s1] || !sizes[s2] {
		t.Fatalf("sizes seen %v, want %d and %d", sizes, s1, s2)
	}
}

func TestCollectEndToEnd(t *testing.T) {
	s := sim.New(5)
	tb := scenario.BuildWireless(s, scenario.Porter)
	pinger.Start(s, tb.Laptop, scenario.ServerIP, 10*time.Second)
	tr, err := Collect(s, tb.Laptop.NIC(0), 8192, 10*time.Second, "porter test")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Comment != "porter test" || tr.Header.Device != "wavelan0" {
		t.Fatalf("header = %+v", tr.Header)
	}
	if len(tr.Packets) < 30 {
		t.Fatalf("packets = %d, want >= 30 over 10s", len(tr.Packets))
	}
	if len(tr.Devices) < 80 {
		t.Fatalf("devices = %d, want ≈100", len(tr.Devices))
	}
	if tr.TotalLost() != 0 {
		t.Fatalf("lost = %d with a huge buffer", tr.TotalLost())
	}
	// Records must be time-ordered.
	for i := 1; i < len(tr.Packets); i++ {
		if tr.Packets[i].At < tr.Packets[i-1].At {
			t.Fatal("packet records out of order")
		}
	}
}

func TestCollectWithTinyBufferLosesRecords(t *testing.T) {
	s := sim.New(5)
	tb := scenario.BuildWireless(s, scenario.Porter)
	pinger.Start(s, tb.Laptop, scenario.ServerIP, 10*time.Second)
	// A 4-record kernel buffer drained every 500ms will certainly overrun:
	// each second produces ~6 packet records plus 10 device records.
	tr, err := Collect(s, tb.Laptop.NIC(0), 4, 10*time.Second, "lossy")
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalLost() == 0 {
		t.Fatal("tiny buffer should overrun and report lost records")
	}
}

func TestDaemonStopsAtEnd(t *testing.T) {
	s := sim.New(5)
	tb := scenario.BuildWireless(s, scenario.Porter)
	pinger.Start(s, tb.Laptop, scenario.ServerIP, 3*time.Second)
	tr, err := Collect(s, tb.Laptop.NIC(0), 8192, 3*time.Second, "short")
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(3100 * time.Millisecond)
	for _, p := range tr.Packets {
		if p.At > limit {
			t.Fatalf("record at %v after collection end", p.At)
		}
	}
}

func TestHostClockSkewStretchesIntervals(t *testing.T) {
	s := sim.New(3)
	tb := scenario.BuildWireless(s, scenario.Porter)
	c := NewCollector(s, tb.Laptop.NIC(0), 4096)
	c.Skew = 0.10 // absurd 10% skew to make the effect unmistakable
	c.Open()
	pinger.Start(s, tb.Laptop, scenario.ServerIP, 3*time.Second)
	s.RunFor(4 * time.Second)
	c.Close()

	// Compare against a perfect-clock collection of the identical run.
	s2 := sim.New(3)
	tb2 := scenario.BuildWireless(s2, scenario.Porter)
	c2 := NewCollector(s2, tb2.Laptop.NIC(0), 4096)
	c2.Open()
	pinger.Start(s2, tb2.Laptop, scenario.ServerIP, 3*time.Second)
	s2.RunFor(4 * time.Second)
	c2.Close()

	rtts := func(recs []any) []int64 {
		var out []int64
		for _, rec := range recs {
			if v, ok := rec.(tracefmt.PacketRecord); ok && v.RTT > 0 {
				out = append(out, v.RTT)
			}
		}
		return out
	}
	skewed, perfect := rtts(c.Read()), rtts(c2.Read())
	if len(skewed) == 0 || len(skewed) != len(perfect) {
		t.Fatalf("rtt counts differ: %d vs %d", len(skewed), len(perfect))
	}
	for i := range skewed {
		ratio := float64(skewed[i]) / float64(perfect[i])
		if ratio < 1.0999 || ratio > 1.1001 {
			t.Fatalf("rtt %d stretched by %.5f, want exactly 1.1", i, ratio)
		}
	}
}

func TestHostClockGranularityQuantizes(t *testing.T) {
	s := sim.New(3)
	tb := scenario.BuildWireless(s, scenario.Porter)
	c := NewCollector(s, tb.Laptop.NIC(0), 4096)
	c.Granularity = time.Millisecond
	c.Open()
	pinger.Start(s, tb.Laptop, scenario.ServerIP, 3*time.Second)
	s.RunFor(4 * time.Second)
	c.Close()
	saw := 0
	for _, rec := range c.Read() {
		if v, ok := rec.(tracefmt.PacketRecord); ok {
			saw++
			if v.At%int64(time.Millisecond) != 0 {
				t.Fatalf("timestamp %d not on 1ms grid", v.At)
			}
			if v.RTT > 0 && v.RTT%int64(time.Millisecond) != 0 {
				t.Fatalf("rtt %d not on 1ms grid", v.RTT)
			}
		}
	}
	if saw == 0 {
		t.Fatal("no packet records")
	}
}

func TestCollectWithDefaultsBufCap(t *testing.T) {
	s := sim.New(5)
	tb := scenario.BuildWireless(s, scenario.Porter)
	pinger.Start(s, tb.Laptop, scenario.ServerIP, 2*time.Second)
	tr, err := CollectWith(s, tb.Laptop.NIC(0), Opts{}, 2*time.Second, "defaults")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) == 0 || tr.TotalLost() != 0 {
		t.Fatalf("packets=%d lost=%d", len(tr.Packets), tr.TotalLost())
	}
}

// collectAllocBytes is the heap bytes one 60 s Wean collection allocates
// inside Collect: the simulated pinger traffic, the kernel ring, the
// daemon's drains and the trace file written and read back.
func collectAllocBytes() uint64 {
	s := sim.New(1)
	defer s.Close()
	tb := scenario.BuildWireless(s, scenario.Wean)
	pinger.Start(s, tb.Laptop, scenario.ServerIP, time.Minute)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Collect(s, tb.Laptop.NIC(0), 1<<16, time.Minute, "alloc test"); err != nil {
		panic(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCollectAllocBytes holds a collection's allocation at least 60%
// below what it was when the ring allocated all 1<<16 slots up front:
// 1,758,152 bytes, measured with go1.24 on linux/amd64. A ring that grows
// as records arrive measured 324,272.
func TestCollectAllocBytes(t *testing.T) {
	const fixedRing uint64 = 1_758_152
	b := collectAllocBytes()
	t.Logf("60 s Wean collection allocates %d bytes", b)
	if ceiling := fixedRing * 4 / 10; b > ceiling {
		t.Errorf("60 s Wean collection allocates %d bytes, ceiling %d", b, ceiling)
	}
}
