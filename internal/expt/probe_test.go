package expt

import (
	"testing"

	"tracemod/internal/scenario"
)

// TestProbePipeline is a development probe: it prints the magnitudes of
// each pipeline stage so the experiment constants can be calibrated.
func TestProbePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("probe only")
	}
	o := Default()
	o.FTPSize = 10 << 20

	// Live FTP over Porter.
	for _, b := range []Bench{BenchFTPSend, BenchFTPRecv} {
		res, err := RunLive(scenario.Porter, b, 0, o)
		if err != nil {
			t.Fatalf("live %v: %v", b, err)
		}
		t.Logf("live porter %v: %v", b, res.Elapsed)
	}
	// Ethernet reference.
	for _, b := range []Bench{BenchFTPSend, BenchFTPRecv} {
		res, err := RunEthernetReference(b, 0, o)
		if err != nil {
			t.Fatalf("eth %v: %v", b, err)
		}
		t.Logf("ethernet %v: %v", b, res.Elapsed)
	}

	// Collection + distillation on Porter.
	dres, err := Collect(scenario.Porter, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("distilled: %s, meanVb bw = %.2f Mb/s", dres.Describe(), dres.Replay.MeanVb().BitsPerSec()/1e6)

	comp, err := MeasureCompensation(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("compensation = %.1f ns/B (%.2f Mb/s)", float64(comp), comp.BitsPerSec()/1e6)

	// Modulated FTP with the distilled trace.
	for _, b := range []Bench{BenchFTPSend, BenchFTPRecv} {
		res, err := RunModulated(dres.Replay, b, 0, comp, o)
		if err != nil {
			t.Fatalf("mod %v: %v", b, err)
		}
		t.Logf("modulated porter %v: %v", b, res.Elapsed)
	}
}
