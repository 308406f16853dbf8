// Figure 1 — Effect of Delay Compensation: FTP transfers of varying sizes
// over a synthetic WaveLAN-like replay trace, fetched and stored, with and
// without inbound delay compensation; plus the slower-network check that
// shows compensation is a property of the modulation setup, not of the
// traced network.

package expt

import (
	"fmt"
	"strings"
	"time"

	"tracemod/internal/apps/ftp"
	"tracemod/internal/core"
	"tracemod/internal/modulation"
	"tracemod/internal/replay"
	"tracemod/internal/scenario"
	"tracemod/internal/sim"
	"tracemod/internal/transport"
)

// Fig1Point is one transfer's measurement.
type Fig1Point struct {
	SizeMB          int
	Store           time.Duration // outbound, unaffected by compensation
	FetchRaw        time.Duration // inbound, no compensation
	FetchComp       time.Duration // inbound, compensated
	ThroughputMbps3 [3]float64    // store, fetch-raw, fetch-comp
}

// Fig1Result is the full figure.
type Fig1Result struct {
	Compensation core.PerByte
	Points       []Fig1Point
	// SlowNet verifies compensation independence: the same compensation
	// value applied to a much slower synthetic network.
	SlowStore, SlowFetchRaw, SlowFetchComp time.Duration
}

// fig1Transfer runs one modulated FTP transfer with no disk model (the
// figure isolates network behaviour).
func fig1Transfer(trace core.Trace, dir ftp.Direction, size int, comp core.PerByte, o Options) (time.Duration, error) {
	s := sim.New(o.BaseSeed + 3301)
	defer s.Close()
	tb := scenario.BuildEthernet(s)
	dev := modulation.StartDaemon(s, trace, true)
	eng := modulation.NewEngine(modulation.SimClock{S: s}, dev, modulation.Config{
		Tick:         o.Tick,
		InboundExtra: PhysicalInboundExtra(),
		Compensation: comp,
		RNG:          s.RNG("fig1"),
	})
	modulation.Install(tb.Laptop, eng)
	ct, st := transport.NewTCP(tb.Laptop), transport.NewTCP(tb.Server)
	ftp.Serve(s, st)
	var elapsed time.Duration
	var err error
	s.Spawn("fig1", func(p *sim.Proc) {
		elapsed, err = ftp.Transfer(p, ct, scenario.ModServer, dir, size, 0)
	})
	s.RunUntil(s.Now().Add(o.RunCap))
	if err != nil {
		return 0, err
	}
	if elapsed == 0 {
		return 0, fmt.Errorf("expt: fig1 transfer did not finish")
	}
	return elapsed, nil
}

// Fig1 reproduces Figure 1.
func Fig1(o Options) (*Fig1Result, error) {
	comp, err := MeasureCompensation(o)
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{Compensation: comp}
	trace := replay.WaveLANLike(time.Hour)
	sizes := []int{1, 2, 4, 6, 8, 10}

	// Independence check on a much slower network (Section 3.3): the same
	// compensation value must still move fetch toward store.
	slow := replay.SlowNetLike(2 * time.Hour)
	const slowSize = 1 << 20

	// Every transfer is an independent cell: fan them all out and merge by
	// index. Jobs 0..3*len(sizes)-1 are the main grid, size-major in
	// (store, fetch-raw, fetch-comp) order; the last three are the
	// slow-network check in the same order.
	times := make([]time.Duration, 3*len(sizes)+3)
	err = forEach(o, len(times), func(i int) error {
		tr, size := trace, 0
		j := i
		if i < 3*len(sizes) {
			size = sizes[i/3] << 20
		} else {
			tr, size, j = slow, slowSize, i-3*len(sizes)
		}
		dir, c := ftp.Send, comp
		switch j % 3 {
		case 1:
			dir, c = ftp.Recv, 0
		case 2:
			dir = ftp.Recv
		}
		d, err := fig1Transfer(tr, dir, size, c, o)
		if err != nil {
			return err
		}
		times[i] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, mb := range sizes {
		pt := Fig1Point{SizeMB: mb,
			Store: times[3*si], FetchRaw: times[3*si+1], FetchComp: times[3*si+2]}
		mbits := float64(mb<<20) * 8 / 1e6
		pt.ThroughputMbps3 = [3]float64{
			mbits / pt.Store.Seconds(),
			mbits / pt.FetchRaw.Seconds(),
			mbits / pt.FetchComp.Seconds(),
		}
		res.Points = append(res.Points, pt)
	}
	res.SlowStore = times[3*len(sizes)]
	res.SlowFetchRaw = times[3*len(sizes)+1]
	res.SlowFetchComp = times[3*len(sizes)+2]
	return res, nil
}

// Format renders the figure's data as aligned series.
func (r *Fig1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: Effect of Delay Compensation (synthetic WaveLAN-like trace)\n")
	fmt.Fprintf(&b, "compensation = %.1f ns/B (physical path ≈ %.2f Mb/s)\n", float64(r.Compensation), r.Compensation.BitsPerSec()/1e6)
	fmt.Fprintf(&b, "%-8s %-12s %-14s %-14s %-24s\n", "size", "store", "fetch(raw)", "fetch(comp)", "throughput Mb/s (s/f/fc)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8s %-12v %-14v %-14v %.3f / %.3f / %.3f\n",
			fmt.Sprintf("%dMB", p.SizeMB), p.Store.Round(time.Millisecond),
			p.FetchRaw.Round(time.Millisecond), p.FetchComp.Round(time.Millisecond),
			p.ThroughputMbps3[0], p.ThroughputMbps3[1], p.ThroughputMbps3[2])
	}
	fmt.Fprintf(&b, "slow-network check (1MB, ≈100Kb/s trace): store=%v fetch(raw)=%v fetch(comp)=%v\n",
		r.SlowStore.Round(time.Millisecond), r.SlowFetchRaw.Round(time.Millisecond), r.SlowFetchComp.Round(time.Millisecond))
	return b.String()
}
