package main

import (
	"strings"
	"testing"
)

// TestMergeTakesMetricsFromFastestRun: repeated runs keep the lowest
// ns/op, B/op and allocs/op, and the custom metrics of the run that set
// the ns/op, so MB/s describes the same run rather than the slowest one.
func TestMergeTakesMetricsFromFastestRun(t *testing.T) {
	const fast = "BenchmarkChecksum-2   8437542   142.2 ns/op   10548.52 MB/s   0 B/op   0 allocs/op\n"
	const slow = "BenchmarkChecksum-2   7794210   153.9 ns/op    9743.77 MB/s   0 B/op   0 allocs/op\n"
	for _, in := range []string{fast + slow, slow + fast} {
		f, err := parse(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		b := f.Benchmarks["BenchmarkChecksum"]
		if b.NsPerOp != 142.2 || b.Metrics["MB/s"] != 10548.52 {
			t.Errorf("merged %g ns/op with %g MB/s, want 142.2 with 10548.52", b.NsPerOp, b.Metrics["MB/s"])
		}
	}
}

// TestMergeKeepsMinimaOfStandardFigures: each standard figure is the
// minimum over the runs, even when different runs set them.
func TestMergeKeepsMinimaOfStandardFigures(t *testing.T) {
	in := "BenchmarkX-4   100   500 ns/op   64 B/op   3 allocs/op\n" +
		"BenchmarkX-4   100   400 ns/op   96 B/op   2 allocs/op\n" +
		"BenchmarkX-4   100   450 ns/op   32 B/op   4 allocs/op\n"
	f, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got := f.Benchmarks["BenchmarkX"]
	if got.NsPerOp != 400 || got.BytesPerOp != 32 || got.AllocsPerOp != 2 {
		t.Errorf("merged %+v, want 400 ns/op, 32 B/op, 2 allocs/op", got)
	}
}
