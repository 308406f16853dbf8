// Synthetic traces (Section 6): modulation is not limited to recorded
// networks. This example subjects an FTP transfer to step and impulse
// bandwidth variations that no physical walk would produce on demand —
// the technique the authors used to study adaptive mobile systems.
//
// Run with: go run ./examples/synthetic
package main

import (
	"fmt"
	"log"
	"time"

	"tracemod"
	"tracemod/internal/apps/ftp"
	"tracemod/internal/core"
	"tracemod/internal/modulation"
	"tracemod/internal/scenario"
	"tracemod/internal/sim"
	"tracemod/internal/transport"
)

// transferUnder runs a 4 MB FTP send on an isolated Ethernet modulated by
// the trace, reporting progress at quarter marks so the step/impulse is
// visible in the timings. The run ends when the transfer process returns;
// Close then unwinds the server and the looping modulation daemon.
func transferUnder(name string, trace core.Trace) {
	s := sim.New(7)
	defer s.Close()
	tb := scenario.BuildEthernet(s)
	dev := modulation.StartDaemon(s, trace, true)
	eng := modulation.NewEngine(modulation.SimClock{S: s}, dev, modulation.Config{
		Tick: modulation.DefaultTick,
		RNG:  s.RNG("synthetic"),
	})
	modulation.Install(tb.Laptop, eng)

	ct := transport.NewTCP(tb.Laptop)
	st := transport.NewTCP(tb.Server)
	ftp.Serve(s, st)

	const size = 4 << 20
	marks := make([]time.Duration, 0, 4)
	s.Spawn("bench", func(p *sim.Proc) {
		defer s.Stop()
		c, err := ct.Dial(p, scenario.ModServer, ftp.Port)
		if err != nil {
			log.Fatalf("dial: %v", err)
		}
		defer c.Close()
		c.Write(p, []byte(fmt.Sprintf("SEND %d\n", size)))
		chunk := make([]byte, 32*1024)
		sent := 0
		next := size / 4
		start := p.Now()
		for sent < size {
			n := len(chunk)
			if size-sent < n {
				n = size - sent
			}
			if _, err := c.Write(p, chunk[:n]); err != nil {
				log.Fatalf("write: %v", err)
			}
			sent += n
			if sent >= next {
				marks = append(marks, p.Now().Sub(start))
				next += size / 4
			}
		}
	})
	s.RunUntil(sim.Time(time.Hour))

	fmt.Printf("%-9s quarter marks:", name)
	prev := time.Duration(0)
	for _, m := range marks {
		fmt.Printf("  +%6.1fs", (m - prev).Seconds())
		prev = m
	}
	fmt.Printf("  (total %.1fs)\n", prev.Seconds())
}

func main() {
	fmt.Println("== synthetic trace modulation: 4 MB FTP send, time per quarter ==")
	fmt.Println("(a step or impulse in the trace shows up as a slow quarter)")
	fmt.Println()

	for _, kind := range []string{"wavelan", "step", "impulse", "slow"} {
		trace, err := tracemod.Synthetic(kind, 20*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		transferUnder(kind, trace)
	}
}
