// Adaptive application under synthetic modulation — the Section 6 use
// case: "the use of synthetic traces to explore the behavior of an
// adaptive mobile system in response to step and impulse variations in
// bandwidth."
//
// A fidelity-adaptive fetcher runs over a modulated network while the
// replay trace steps down to a slow link and back. Its fidelity track
// (which object size it dares to fetch) visualizes agility.
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"tracemod/internal/apps/adaptive"
	"tracemod/internal/core"
	"tracemod/internal/modulation"
	"tracemod/internal/packet"
	"tracemod/internal/replay"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
	"tracemod/internal/transport"
)

func main() {
	good := core.DelayParams{F: 2 * time.Millisecond, Vb: core.PerByteFromBandwidth(1.5e6), Vr: 0}
	bad := core.DelayParams{F: 20 * time.Millisecond, Vb: core.PerByteFromBandwidth(150e3), Vr: 0}

	// Step down at t=40s, impulse recovery structure via Impulse: good,
	// then 30s of bad, then good again.
	trace := replay.Impulse(good, bad, 0.005, 0.02, 40*time.Second, 30*time.Second, time.Hour, time.Second)

	s := sim.New(11)
	defer s.Close()
	m := simnet.NewMedium(s, "lan", simnet.Ethernet10())
	cn := simnet.NewNode(s, "client")
	cn.AttachNIC(m, packet.IP4(10, 7, 0, 1), packet.IP4(255, 255, 255, 0))
	sn := simnet.NewNode(s, "server")
	sn.AttachNIC(m, packet.IP4(10, 7, 0, 2), packet.IP4(255, 255, 255, 0))
	eng := modulation.NewEngine(modulation.SimClock{S: s},
		&modulation.SliceSource{Trace: trace, Loop: true},
		modulation.Config{Tick: modulation.DefaultTick, RNG: s.RNG("mod")})
	modulation.Install(cn, eng)

	if _, err := adaptive.NewServer(s, transport.NewUDP(sn), nil); err != nil {
		log.Fatal(err)
	}
	client, err := adaptive.NewClient(transport.NewUDP(cn), packet.IP4(10, 7, 0, 2), adaptive.Config{})
	if err != nil {
		log.Fatal(err)
	}

	var samples []adaptive.Sample
	s.Spawn("fetcher", func(p *sim.Proc) {
		samples = client.Run(p, 2*time.Minute)
		s.Stop() // the run ends with the fetcher; Close unwinds the server
	})
	s.RunUntil(sim.Time(time.Hour))

	fmt.Println("== adaptive fidelity under a 30s bandwidth impulse (t=40-70s) ==")
	fmt.Println("level 0 = full 64KB object, 1 = 16KB, 2 = minimal 4KB")
	fmt.Println()
	for _, smp := range samples {
		bar := strings.Repeat("█", (2-smp.Level)*8+4)
		fmt.Printf("t=%5.1fs  L%d %-22s %6.0fms %7.0f kb/s\n",
			time.Duration(smp.At).Seconds(), smp.Level, bar,
			float64(smp.Elapsed)/float64(time.Millisecond), smp.EstBW/1e3)
	}

	ag := adaptive.MeasureAgility(samples, 40*time.Second, len(adaptive.DefaultLevels)-1)
	fmt.Printf("\nagility: mean level %.2f before the impulse, %.2f during/after;\n", ag.MeanLevelBefore, ag.MeanLevelAfter)
	if ag.AdaptDelay >= 0 {
		fmt.Printf("reached minimal fidelity %.1fs after the step down.\n", ag.AdaptDelay.Seconds())
	}
}
