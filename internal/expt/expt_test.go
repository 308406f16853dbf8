package expt

import (
	"math"
	"runtime"
	"testing"
	"time"

	"tracemod/internal/apps/ftp"
	"tracemod/internal/scenario"
)

// fastOptions keeps experiment tests quick: two trials and a smaller FTP
// payload, which preserves every structural property under test.
func fastOptions() Options {
	o := Default()
	o.Trials = 2
	o.FTPSize = 2 << 20
	return o
}

func TestWorkloadsAreFixedAcrossCalls(t *testing.T) {
	a, b := WebTraces(), WebTraces()
	if len(a) != 5 || len(b) != 5 {
		t.Fatal("web workload must have five users")
	}
	for i := range a {
		if a[i].Requests() != b[i].Requests() || a[i].TotalBytes() != b[i].TotalBytes() {
			t.Fatal("web workload must be identical across calls")
		}
	}
	ta, tb := AndrewTree(), AndrewTree()
	if len(ta.Files) != len(tb.Files) || ta.TotalBytes() != tb.TotalBytes() {
		t.Fatal("andrew tree must be identical across calls")
	}
}

func TestBenchString(t *testing.T) {
	names := map[Bench]string{BenchWeb: "web", BenchFTPSend: "ftp-send", BenchFTPRecv: "ftp-recv", BenchAndrew: "andrew"}
	for b, want := range names {
		if b.String() != want {
			t.Fatalf("%d = %q, want %q", b, b.String(), want)
		}
	}
}

func TestRunLiveDeterministicPerTrial(t *testing.T) {
	o := fastOptions()
	a, err := RunLive(scenario.Porter, BenchFTPSend, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLive(scenario.Porter, BenchFTPSend, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("same trial differed: %v vs %v", a.Elapsed, b.Elapsed)
	}
	c, err := RunLive(scenario.Porter, BenchFTPSend, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Elapsed == a.Elapsed {
		t.Fatal("different trials should differ")
	}
}

func TestEthernetFasterThanWireless(t *testing.T) {
	o := fastOptions()
	eth, err := RunEthernetReference(BenchFTPSend, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunLive(scenario.Porter, BenchFTPSend, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	if eth.Elapsed >= live.Elapsed {
		t.Fatalf("ethernet %v should beat wireless %v", eth.Elapsed, live.Elapsed)
	}
}

func TestCollectProducesValidReplay(t *testing.T) {
	o := fastOptions()
	res, err := Collect(scenario.Porter, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Replay.Validate(); err != nil {
		t.Fatal(err)
	}
	// The replay trace must span the traversal.
	if res.Replay.TotalDuration() < scenario.Porter.Profile.Duration() {
		t.Fatalf("replay spans %v, traversal is %v", res.Replay.TotalDuration(), scenario.Porter.Profile.Duration())
	}
	bw := res.Replay.MeanVb().BitsPerSec()
	if bw < 0.8e6 || bw > 2.2e6 {
		t.Fatalf("distilled bandwidth %.2f Mb/s not WaveLAN-like", bw/1e6)
	}
}

func TestMeasureCompensationIsPhysicalPath(t *testing.T) {
	o := fastOptions()
	comp, err := MeasureCompensation(o)
	if err != nil {
		t.Fatal(err)
	}
	// The isolated Ethernet runs at 10 Mb/s -> 800 ns/B.
	if math.Abs(comp.BitsPerSec()-10e6) > 1.5e6 {
		t.Fatalf("compensation %.2f Mb/s, want ≈10", comp.BitsPerSec()/1e6)
	}
}

func TestModulatedTracksLive(t *testing.T) {
	// The headline property: a modulated run lands near its live
	// counterpart. Allow a generous band; the tables check tightness.
	o := fastOptions()
	res, err := Collect(scenario.Porter, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := MeasureCompensation(o)
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunLive(scenario.Porter, BenchFTPSend, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := RunModulated(res.Replay, BenchFTPSend, 0, comp, o)
	if err != nil {
		t.Fatal(err)
	}
	ratio := mod.Elapsed.Seconds() / live.Elapsed.Seconds()
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("modulated/live = %.2f (mod %v, live %v)", ratio, mod.Elapsed, live.Elapsed)
	}
}

func TestAndrewPhasesUnderModulation(t *testing.T) {
	o := fastOptions()
	res, err := Collect(scenario.Wean, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := MeasureCompensation(o)
	mod, err := RunModulated(res.Replay, BenchAndrew, 0, comp, o)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Phases == nil {
		t.Fatal("andrew result must carry phases")
	}
	secs := mod.Phases.Seconds()
	sum := 0.0
	for _, v := range secs[:5] {
		if v <= 0 {
			t.Fatalf("phase times = %v", secs)
		}
		sum += v
	}
	if math.Abs(sum-secs[5]) > 0.01 {
		t.Fatalf("phases sum %.2f != total %.2f", sum, secs[5])
	}
}

func TestFig1Structure(t *testing.T) {
	o := fastOptions()
	r, err := Fig1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("points = %d, want 6 sizes", len(r.Points))
	}
	for _, p := range r.Points {
		if p.Store <= 0 || p.FetchRaw <= 0 || p.FetchComp <= 0 {
			t.Fatalf("point %+v has missing transfers", p)
		}
		// Compensation must move fetch toward (or past) store relative to
		// the raw fetch.
		if p.FetchComp > p.FetchRaw {
			t.Fatalf("%dMB: compensation made fetch slower (%v -> %v)", p.SizeMB, p.FetchRaw, p.FetchComp)
		}
		// Throughput is bounded by the synthetic trace's 1.5 Mb/s.
		for _, mbps := range p.ThroughputMbps3 {
			if mbps <= 0 || mbps > 1.6 {
				t.Fatalf("%dMB: throughput %.2f Mb/s out of range", p.SizeMB, mbps)
			}
		}
	}
	// Elapsed time grows with size.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Store <= r.Points[i-1].Store {
			t.Fatal("store elapsed should grow with size")
		}
	}
	// The slow-network check ran and is much slower than WaveLAN.
	if r.SlowStore < 4*r.Points[0].Store {
		t.Fatalf("slow-net store %v should dwarf wavelan %v", r.SlowStore, r.Points[0].Store)
	}
	if r.Format() == "" {
		t.Fatal("format must render")
	}
}

func TestFigScenarioMotion(t *testing.T) {
	o := fastOptions()
	fig, err := FigScenario(scenario.Wean, o)
	if err != nil {
		t.Fatal(err)
	}
	if !fig.Motion || len(fig.Points) != len(scenario.Wean.Profile.Segments) {
		t.Fatalf("points = %d, want one per leg", len(fig.Points))
	}
	// The elevator leg (z4) must show the worst loss and bandwidth.
	var elevator, walk *LegPoint
	for i := range fig.Points {
		switch fig.Points[i].Label {
		case "z4":
			elevator = &fig.Points[i]
		case "z0":
			walk = &fig.Points[i]
		}
	}
	if elevator == nil || walk == nil {
		t.Fatalf("legs missing: %+v", fig.Points)
	}
	if elevator.LossPct.Max < 20 {
		t.Fatalf("elevator loss %v, want atrocious", elevator.LossPct)
	}
	if elevator.BandwidthKbps.Min > walk.BandwidthKbps.Min {
		t.Fatal("elevator bandwidth should collapse below the walk's")
	}
	if elevator.Signal.Min > 8 {
		t.Fatalf("elevator signal %v, want near-noise", elevator.Signal)
	}
	if fig.Format() == "" {
		t.Fatal("format must render")
	}
}

func TestFigScenarioStationary(t *testing.T) {
	o := fastOptions()
	fig, err := FigScenario(scenario.Chatterbox, o)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Motion || fig.SignalH == nil || fig.LossH == nil {
		t.Fatal("stationary scenario must produce histograms")
	}
	if fig.SignalH.N == 0 || fig.LatencyH.N == 0 {
		t.Fatal("histograms must have observations")
	}
	// Chatterbox signal is consistently high (~18).
	var lo int
	for i := 0; i < 6; i++ { // bins below ~15
		lo += fig.SignalH.Counts[i]
	}
	if frac := float64(lo) / float64(fig.SignalH.N); frac > 0.2 {
		t.Fatalf("%.0f%% of signal samples below 15; Chatterbox should be high-signal", frac*100)
	}
	if fig.Format() == "" {
		t.Fatal("format must render")
	}
}

func TestFig7Shape(t *testing.T) {
	// Structural check on a reduced table (2 trials, 2MB transfers):
	// every scenario is slower than Ethernet, and formatting works.
	o := fastOptions()
	tbl, err := Fig7FTP(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row.Send.Real.Mean <= tbl.EthernetSend.Mean {
			t.Fatalf("%s live send %.1fs should exceed ethernet %.1fs",
				row.Scenario, row.Send.Real.Mean, tbl.EthernetSend.Mean)
		}
		if row.Send.Mod.Mean <= 0 || row.Recv.Mod.Mean <= 0 {
			t.Fatalf("%s missing modulated results", row.Scenario)
		}
	}
	if tbl.Format() == "" {
		t.Fatal("format must render")
	}
}

func TestAblateCompensationShape(t *testing.T) {
	o := fastOptions()
	r, err := AblateCompensation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Fetch elapsed decreases monotonically as compensation grows.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Fetch > r.Rows[i-1].Fetch {
			t.Fatalf("fetch not monotone in compensation: %+v", r.Rows)
		}
	}
	if r.Format() == "" {
		t.Fatal("format must render")
	}
}

func TestCellCriteria(t *testing.T) {
	c := Cell{}
	c.Real.Mean, c.Real.Std = 100, 5
	c.Mod.Mean, c.Mod.Std = 104, 2
	if !c.Agrees() {
		t.Fatal("4 <= 7 should agree")
	}
	if math.Abs(c.Sigma()-4.0/7.0) > 1e-9 {
		t.Fatalf("sigma = %v", c.Sigma())
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Default()
	if o.Trials != 4 || o.Tick != 10*time.Millisecond {
		t.Fatalf("defaults = %+v", o)
	}
	if o.Distill.Window != 5*time.Second || o.Distill.Step != time.Second {
		t.Fatalf("distill defaults = %+v", o.Distill)
	}
	if o.FTPSize != 10<<20 {
		t.Fatalf("ftp size = %d", o.FTPSize)
	}
}

func TestAblateClockShape(t *testing.T) {
	o := fastOptions()
	r, err := AblateClock(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// 100ppm skew must be essentially free (|err| < 0.1%).
	ppm := r.Rows[1]
	if math.Abs(ppm.BWErrPct) > 0.1 || math.Abs(ppm.FErrPct) > 0.1 {
		t.Fatalf("100ppm skew err = %.3f%%/%.3f%%, want ≈0", ppm.BWErrPct, ppm.FErrPct)
	}
	// 1% skew errs about 1%.
	pct := r.Rows[2]
	if math.Abs(pct.BWErrPct) > 2.5 {
		t.Fatalf("1%% skew bw err = %.3f%%", pct.BWErrPct)
	}
	// Coarse granularity forces corrections.
	if r.Rows[4].Corrections <= r.Rows[0].Corrections {
		t.Fatal("10ms granularity should force more negative-solution corrections")
	}
	if r.Format() == "" {
		t.Fatal("format must render")
	}
}

// TestRunnersReclaimSimProcesses checks that every cell runner tears its
// simulated world down: servers and daemons a bounded run leaves parked
// must not outlive the call as goroutines.
func TestRunnersReclaimSimProcesses(t *testing.T) {
	o := fastOptions()
	o.Trials = 1
	o.FTPSize = 256 << 10
	base := runtime.NumGoroutine()
	check := func(name string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the run, %d before", name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	comp, err := MeasureCompensation(o)
	if err != nil {
		t.Fatal(err)
	}
	check("MeasureCompensation")
	_, res, err := CollectFull(scenario.Wean, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	check("CollectFull")
	for _, b := range []Bench{BenchWeb, BenchFTPRecv, BenchAndrew} {
		if _, err := RunLive(scenario.Wean, b, 0, o); err != nil {
			t.Fatal(err)
		}
		check("RunLive " + b.String())
		if _, err := RunEthernetReference(b, 0, o); err != nil {
			t.Fatal(err)
		}
		check("RunEthernetReference " + b.String())
		if _, err := RunModulated(res.Replay, b, 0, comp, o); err != nil {
			t.Fatal(err)
		}
		check("RunModulated " + b.String())
	}
	if _, err := fig1Transfer(res.Replay, ftp.Recv, 64<<10, comp, o); err != nil {
		t.Fatal(err)
	}
	check("fig1Transfer")
	if _, err := collectSkewed(o, 0, 0); err != nil {
		t.Fatal(err)
	}
	check("collectSkewed")
}
