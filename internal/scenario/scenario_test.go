package scenario

import (
	"testing"
	"time"

	"tracemod/internal/packet"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

func TestAllScenariosWellFormed(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("want 4 scenarios, got %d", len(all))
	}
	for _, sc := range all {
		if sc.Profile.Duration() < 100*time.Second {
			t.Errorf("%s: traversal %v too short to cover a benchmark", sc.Name, sc.Profile.Duration())
		}
		for _, seg := range sc.Profile.Segments {
			if seg.BWLo <= 0 || seg.BWHi < seg.BWLo {
				t.Errorf("%s/%s: bad bandwidth range", sc.Name, seg.Label)
			}
			if seg.LossHi >= 1 || seg.LossLo < 0 || seg.LossHi < seg.LossLo {
				t.Errorf("%s/%s: bad loss range", sc.Name, seg.Label)
			}
			if seg.LatencyHi < seg.LatencyLo {
				t.Errorf("%s/%s: bad latency range", sc.Name, seg.Label)
			}
		}
	}
}

func TestByName(t *testing.T) {
	sc, ok := ByName("Porter")
	if !ok || sc.Name != "Porter" {
		t.Fatal("Porter not found")
	}
	if _, ok := ByName("porter"); ok {
		t.Fatal("lookup is case-sensitive")
	}
}

func TestScenarioNarrativeShapes(t *testing.T) {
	// Wean's elevator segment must be dramatically worse than its walk.
	var elevator, walk *struct{ loss, bw float64 }
	for _, seg := range Wean.Profile.Segments {
		v := &struct{ loss, bw float64 }{(seg.LossLo + seg.LossHi) / 2, (seg.BWLo + seg.BWHi) / 2}
		switch seg.Label {
		case "z4-z5":
			elevator = v
		case "z0-z3":
			walk = v
		}
	}
	if elevator == nil || walk == nil {
		t.Fatal("Wean segments missing")
	}
	if elevator.loss < 5*walk.loss {
		t.Fatal("elevator loss should be atrocious relative to the walk")
	}
	if elevator.bw > walk.bw/2 {
		t.Fatal("elevator bandwidth should collapse")
	}

	// Flagstaff loss should worsen monotonically-ish: last > first.
	fs := Flagstaff.Profile.Segments
	if fs[len(fs)-1].LossLo <= fs[0].LossLo {
		t.Fatal("Flagstaff loss should be worst late in the traversal")
	}

	// Chatterbox is stationary with five interferers.
	if Chatterbox.Motion || Chatterbox.Interferers != 5 {
		t.Fatal("Chatterbox should be static with 5 interferers")
	}
}

func TestBuildWirelessConnectivity(t *testing.T) {
	s := sim.New(11)
	tb := BuildWireless(s, Porter)
	var rtt time.Duration
	start := s.Now()
	tb.Laptop.RegisterProto(packet.ProtoICMP, func(n *simnet.Node, ip packet.IPv4) {
		m := packet.ICMP(ip.Payload())
		if m.Valid() && m.Type() == packet.ICMPEchoReply {
			rtt = s.Now().Sub(start)
			s.Stop()
		}
	})
	echo := packet.MarshalICMP(packet.ICMPFields{Type: packet.ICMPEcho, ID: 1, Seq: 1}, packet.EchoPayload(32, 0))
	tb.Laptop.SendIP(packet.ProtoICMP, ServerIP, append(make([]byte, packet.IPv4HeaderLen), echo...))
	s.Run()
	if rtt == 0 {
		t.Fatal("no echo reply across gateway")
	}
	if rtt < time.Millisecond {
		t.Fatalf("rtt %v implausibly fast for a WaveLAN path", rtt)
	}
}

func TestBuildEthernetConnectivity(t *testing.T) {
	s := sim.New(11)
	tb := BuildEthernet(s)
	got := false
	tb.Server.RegisterProto(99, func(n *simnet.Node, ip packet.IPv4) { got = true })
	tb.Laptop.SendIP(99, ModServer, append(make([]byte, packet.IPv4HeaderLen), "hi"...))
	s.Run()
	if !got {
		t.Fatal("isolated ethernet not connected")
	}
	if tb.Gateway != nil || tb.Model != nil {
		t.Fatal("ethernet testbed should have no gateway or radio model")
	}
}

func TestInterferersLoadTheMedium(t *testing.T) {
	s := sim.New(21)
	tb := BuildWireless(s, Chatterbox)
	s.RunFor(30 * time.Second)
	st := tb.Wireless.Stats()
	if st.Frames < 50 {
		t.Fatalf("only %d frames in 30s: interferers idle", st.Frames)
	}
	if st.Bytes < 100_000 {
		t.Fatalf("only %d bytes of cross traffic", st.Bytes)
	}
}

func TestNoInterferersOutsideChatterbox(t *testing.T) {
	s := sim.New(21)
	tb := BuildWireless(s, Flagstaff)
	s.RunFor(20 * time.Second)
	if tb.Wireless.Stats().Frames != 0 {
		t.Fatal("Flagstaff cell should be quiet with no workload")
	}
}
