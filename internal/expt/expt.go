// Package expt is the experiment harness: it composes the substrates into
// the paper's validation pipeline — live benchmark runs over the simulated
// wireless scenarios, trace collection and distillation, delay-compensation
// measurement, and modulated benchmark runs over the isolated Ethernet —
// and regenerates every table and figure in the evaluation (Figures 1-8).
package expt

import (
	"fmt"
	"math/rand"
	"time"

	"tracemod/internal/apps/ftp"
	"tracemod/internal/apps/nfs"
	"tracemod/internal/apps/web"
	"tracemod/internal/capture"
	"tracemod/internal/core"
	"tracemod/internal/distill"
	"tracemod/internal/modulation"
	"tracemod/internal/obs/span"
	"tracemod/internal/packet"
	"tracemod/internal/pinger"
	"tracemod/internal/scenario"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
	"tracemod/internal/tracefmt"
	"tracemod/internal/transport"
)

// Options parameterizes a full experiment run.
type Options struct {
	// Trials per cell; the paper runs four.
	Trials int
	// BaseSeed derives every trial's seed deterministically.
	BaseSeed int64
	// Tick is the modulation scheduling granularity.
	Tick time.Duration
	// Distill holds the sliding-window configuration.
	Distill distill.Config
	// FTPSize is the FTP benchmark's file size.
	FTPSize int
	// WebProcMean is the browser's per-object processing time.
	WebProcMean time.Duration
	// RunCap bounds each benchmark run in virtual time.
	RunCap time.Duration
	// Workers caps how many experiment cells run concurrently; 0 means
	// runtime.NumCPU(), 1 runs serially. Every cell owns a private
	// scheduler seeded from its indices, so results — and rendered output
	// bytes — are identical at any worker count.
	Workers int
}

// Default returns the paper's configuration.
func Default() Options {
	return Options{
		Trials:      4,
		BaseSeed:    1997,
		Tick:        modulation.DefaultTick,
		Distill:     distill.DefaultConfig(),
		FTPSize:     ftp.DefaultSize,
		WebProcMean: web.DefaultProcMean,
		RunCap:      2 * time.Hour,
	}
}

// WebTraces returns the fixed five-user workload replayed in every Web
// benchmark run (the paper replays the same captured references
// everywhere).
func WebTraces() []web.UserTrace {
	return web.GenTraces(rand.New(rand.NewSource(42)))
}

// AndrewTree returns the fixed Andrew input tree.
func AndrewTree() nfs.Tree {
	return nfs.GenTree(rand.New(rand.NewSource(43)))
}

// Bench selects a benchmark.
type Bench int

// The paper's benchmarks.
const (
	BenchWeb Bench = iota
	BenchFTPSend
	BenchFTPRecv
	BenchAndrew
)

func (b Bench) String() string {
	switch b {
	case BenchWeb:
		return "web"
	case BenchFTPSend:
		return "ftp-send"
	case BenchFTPRecv:
		return "ftp-recv"
	default:
		return "andrew"
	}
}

// Result is one benchmark trial's outcome.
type Result struct {
	Elapsed time.Duration
	// Phases is set for the Andrew benchmark only.
	Phases *nfs.PhaseTimes
}

// runBench wires the chosen benchmark between laptop and server and runs
// it to completion. workSeed drives the benchmark's own CPU/processing
// jitter so real and modulated trials of the same index share a workload.
func runBench(s *sim.Scheduler, laptop, server *scenarioNode, b Bench, workSeed int64, o Options) (Result, error) {
	var res Result
	var benchErr error
	wrng := rand.New(rand.NewSource(workSeed))

	switch b {
	case BenchWeb:
		ct, st := transport.NewTCP(laptop.node), transport.NewTCP(server.node)
		web.Serve(s, st)
		traces := WebTraces()
		s.Spawn("web-bench", func(p *sim.Proc) {
			res.Elapsed, benchErr = web.Run(p, ct, server.addr, traces, web.Config{
				ProcMean: o.WebProcMean, RNG: wrng,
			})
		})
	case BenchFTPSend, BenchFTPRecv:
		ct, st := transport.NewTCP(laptop.node), transport.NewTCP(server.node)
		ftp.Serve(s, st)
		dir := ftp.Send
		if b == BenchFTPRecv {
			dir = ftp.Recv
		}
		s.Spawn("ftp-bench", func(p *sim.Proc) {
			res.Elapsed, benchErr = ftp.Transfer(p, ct, server.addr, dir, o.FTPSize, ftp.DefaultDiskRate)
		})
	case BenchAndrew:
		cu, su := transport.NewUDP(laptop.node), transport.NewUDP(server.node)
		if _, err := nfs.NewServer(s, su); err != nil {
			return res, err
		}
		client, err := nfs.NewClient(s, cu, server.addr)
		if err != nil {
			return res, err
		}
		tree := AndrewTree()
		s.Spawn("andrew-bench", func(p *sim.Proc) {
			var pt nfs.PhaseTimes
			pt, benchErr = nfs.RunAndrew(p, client, tree, nfs.AndrewConfig{CPUScale: 1, RNG: wrng})
			res.Phases = &pt
			res.Elapsed = pt.Total
		})
	}

	s.RunUntil(s.Now().Add(o.RunCap))
	if benchErr != nil {
		return res, benchErr
	}
	if res.Elapsed == 0 {
		return res, fmt.Errorf("expt: %v did not finish within %v", b, o.RunCap)
	}
	return res, nil
}

// scenarioNode pairs a node with the address peers use to reach it.
type scenarioNode struct {
	node *simnet.Node
	addr packet.IPAddr
}

// RunLive executes one benchmark trial over the live wireless scenario.
func RunLive(sc scenario.Scenario, b Bench, trial int, o Options) (Result, error) {
	s := sim.New(o.BaseSeed + int64(trial)*101)
	defer s.Close()
	tb := scenario.BuildWireless(s, sc)
	return runBench(s,
		&scenarioNode{tb.Laptop, scenario.LaptopIP},
		&scenarioNode{tb.Server, scenario.ServerIP},
		b, workloadSeed(o, trial), o)
}

// RunEthernetReference executes one benchmark trial over the bare isolated
// Ethernet (the reference rows of Figures 6-8).
func RunEthernetReference(b Bench, trial int, o Options) (Result, error) {
	s := sim.New(o.BaseSeed + int64(trial)*103)
	defer s.Close()
	tb := scenario.BuildEthernet(s)
	return runBench(s,
		&scenarioNode{tb.Laptop, scenario.ModLaptop},
		&scenarioNode{tb.Server, scenario.ModServer},
		b, workloadSeed(o, trial), o)
}

// workloadSeed keeps the benchmark-internal randomness identical across
// real and modulated trials of the same index.
func workloadSeed(o Options, trial int) int64 { return o.BaseSeed*7919 + int64(trial) }

// Collect performs one collection traversal of the scenario — the pinger
// workload plus the in-kernel tracer — and distills the result.
func Collect(sc scenario.Scenario, trial int, o Options) (*distill.Result, error) {
	_, res, err := CollectFull(sc, trial, o)
	return res, err
}

// CollectFull is Collect, also returning the raw collected trace (the
// figure harness reads device records for the signal-level series).
func CollectFull(sc scenario.Scenario, trial int, o Options) (*tracefmt.Trace, *distill.Result, error) {
	s := sim.New(o.BaseSeed + int64(trial)*107 + 13)
	defer s.Close()
	tb := scenario.BuildWireless(s, sc)
	dur := sc.Profile.Duration()
	pinger.Start(s, tb.Laptop, scenario.ServerIP, dur)
	tr, err := capture.Collect(s, tb.Laptop.NIC(0), 1<<16, dur,
		fmt.Sprintf("%s trial %d", sc.Name, trial))
	if err != nil {
		return nil, nil, err
	}
	res, err := distill.Distill(tr, o.Distill)
	if err != nil {
		return nil, nil, err
	}
	return tr, res, nil
}

// MeasureCompensation measures the physical modulation network with the
// same collection tools and returns its long-term average bottleneck
// per-byte cost (Section 3.3). It depends only on the modulation setup, so
// one measurement serves every experiment.
func MeasureCompensation(o Options) (core.PerByte, error) {
	s := sim.New(o.BaseSeed + 7)
	defer s.Close()
	tb := scenario.BuildEthernet(s)
	const dur = 60 * time.Second
	pinger.Start(s, tb.Laptop, scenario.ModServer, dur)
	tr, err := capture.Collect(s, tb.Laptop.NIC(0), 1<<16, dur, "compensation measurement")
	if err != nil {
		return 0, err
	}
	res, err := distill.Distill(tr, o.Distill)
	if err != nil {
		return 0, err
	}
	return res.Replay.MeanVb(), nil
}

// PhysicalInboundExtra is the modulation testbed's receive-path per-byte
// cost, charged serially on inbound packets by the emulated kernel (the
// endpoint-placement artifact Figure 1 demonstrates); the measured
// Compensation exists to cancel it.
func PhysicalInboundExtra() core.PerByte {
	return simnet.Ethernet10().PerByte
}

// RunModulated executes one benchmark trial on the isolated Ethernet with
// the modulation layer driven by trace (looped, as the daemon does for
// benchmarks that outlast the traversal).
func RunModulated(trace core.Trace, b Bench, trial int, comp core.PerByte, o Options) (Result, error) {
	r, _, err := runModulated(trace, b, trial, comp, o, nil)
	return r, err
}

// RunModulatedTraced is RunModulated with full span sampling: every packet
// the engine shapes gets a self-rooted "modulation.packet" span with its
// cursor, bottleneck, coalescing, and delivery events, timestamped in
// virtual time off the trial's own scheduler. Spans are collected up to
// maxSpans (0 = the collector's default cap) and returned alongside the
// benchmark result — the `expt -trace-out` feed.
func RunModulatedTraced(trace core.Trace, b Bench, trial int, comp core.PerByte, o Options, maxSpans int) (Result, []*span.SpanData, error) {
	sink := span.NewCollectorSink(maxSpans)
	r, _, err := runModulated(trace, b, trial, comp, o, sink)
	return r, sink.Spans(), err
}

func runModulated(trace core.Trace, b Bench, trial int, comp core.PerByte, o Options, sink *span.CollectorSink) (Result, *modulation.Engine, error) {
	s := sim.New(o.BaseSeed + int64(trial)*109 + 29)
	defer s.Close()
	tb := scenario.BuildEthernet(s)
	dev := modulation.StartDaemon(s, trace, true)
	var spans *span.Tracer
	if sink != nil {
		spans = span.New(span.Config{
			Sample: 1,
			Sink:   sink,
			Now:    modulation.SimClock{S: s}.Now,
			// Deterministic IDs: a traced run's span dump is reproducible
			// for the same seed and trial, like every other expt output.
			Seed: uint64(o.BaseSeed)*2654435761 + uint64(trial) + 1,
		})
	}
	eng := modulation.NewEngine(modulation.SimClock{S: s}, dev, modulation.Config{
		Tick:         o.Tick,
		InboundExtra: PhysicalInboundExtra(),
		Compensation: comp,
		RNG:          s.RNG("modulation"),
		Spans:        spans,
	})
	modulation.Install(tb.Laptop, eng)
	r, err := runBench(s,
		&scenarioNode{tb.Laptop, scenario.ModLaptop},
		&scenarioNode{tb.Server, scenario.ModServer},
		b, workloadSeed(o, trial), o)
	return r, eng, err
}
