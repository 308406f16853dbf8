// Command perfbench is tracemod's end-to-end benchmark. It hosts emud,
// the livewire relays, the cluster coordinator and the expt harness in
// one process and drives one of four workloads from a seeded generator:
//
//	relay_flood     bare forwarding of 64-byte datagrams through ~64 relays
//	relay_shaped    trace-shaped delivery, checked against a sim oracle
//	control_ingest  upload → session → relay → finish → delete lifecycles
//	paper_repro     the paper's Figure 6–8 cells (collect, distill, run)
//
// Usage (from the repository root; see README.md in this directory):
//
//	bash perfbench/run.sh --workload relay_flood --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced, and prints the per-layer
// metrics, the tracing overhead, and writes the traced run's spans. The
// last line of standard output is one JSON object. Any correctness-check
// failure prints "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The end-to-end metrics every workload reports, in output order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"live_heap_mb", "MB"},
}

// The per-layer metrics every traced run reports; a layer the workload
// does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"livewire.avg_batch", "pkts"},
	{"livewire.reads_per_kpkt", "count"},
	{"livewire.writes_per_kpkt", "count"},
	{"livewire.errors", "count"},
	{"emud.submit_ns_per_pkt", "ns"},
	{"emud.burst_pkts", "pkts"},
	{"emud.shed_rejected", "count"},
	{"emud.create_us", "us"},
	{"emud.relay_attach_us", "us"},
	{"modulation.immediate_frac", "1"},
	{"modulation.drop_frac", "1"},
	{"modulation.outcome_mismatch_frac", "1"},
	{"wheel.fire_late_p50_us", "us"},
	{"wheel.fire_late_p99_us", "us"},
	{"wheel.pending_max", "count"},
	{"wheel.deliver_ns_per_pkt", "ns"},
	{"http.stream_chunk_p50_us", "us"},
	{"http.session_create_p50_us", "us"},
	{"http.session_delete_p50_us", "us"},
	{"cluster.proxy_hop_p50_us", "us"},
	{"wal.append_us_per_chunk", "us"},
	{"tracefmt.feed_us_per_kb", "us"},
	{"stream.distill_us_per_kb", "us"},
	{"streams.first_tuple_ms", "ms"},
	{"expt.collect_ms", "ms"},
	{"distill.batch_ms", "ms"},
	{"expt.live_ms", "ms"},
	{"expt.modulated_ms", "ms"},
	{"bench.self_us_per_op", "us"},
	{"cpu.rest_ns_per_op", "ns"},
	{"gc.alloc_b_per_op", "B"},
	{"gc.allocs_per_op", "count"},
	{"gc.cycles_per_kop", "count"},
	{"gen.late_p99_us", "us"},
	{"fail_frac", "1"},
	{"trace.overhead_frac", "1"},
}

// runConfig is one workload run's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	out     string // directory for spans and scratch state
	sp      *spans // nil: untraced
}

// result is what one workload run measured.
type result struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string // human-readable detail (sample counts, percentile levels)
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkError is a correctness-check failure: the program produced a wrong
// output. It fails the run, unlike a setup error.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "correctness check failed: " + e.msg }

func checkFail(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

var workloads = map[string]func(runConfig) (*result, error){
	"relay_flood":    runFlood,
	"relay_shaped":   runShaped,
	"control_ingest": runIngest,
	"paper_repro":    runRepro,
}

func main() {
	workload := flag.String("workload", "", "relay_flood, relay_shaped, control_ingest, paper_repro, or all")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: run untraced then traced, report per-layer metrics and write spans")
	out := flag.String("out", ".bench_build/perfbench", "directory for span files and scratch state")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = []string{"relay_flood", "relay_shaped", "control_ingest", "paper_repro"}
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", n)
			os.Exit(2)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	code := 0
	for _, n := range names {
		if c := runOne(n, *seed, *seconds, *trace == 1, *out); c != 0 {
			code = c
		}
	}
	os.Exit(code)
}

// runOne runs one workload and prints its report; it returns the exit
// code.
func runOne(name string, seed int64, seconds float64, traced bool, out string) int {
	fmt.Printf("# %s seed=%d seconds=%g trace=%v; all traffic crosses the loopback interface\n",
		name, seed, seconds, traced)
	run := workloads[name]
	cfg := runConfig{seed: seed, seconds: seconds, out: out}
	var res *result
	var err error
	metrics := map[string]metric{}
	if !traced {
		res, err = run(cfg)
		if res != nil {
			for _, m := range endToEnd {
				metrics[m.name] = metric{res.e2e[m.name], m.unit}
			}
		}
	} else {
		// Untraced then traced, each for half the time: the difference
		// in CPU per op is the tracing overhead.
		cfg.seconds = seconds / 2
		var base *result
		base, err = run(cfg)
		if err == nil {
			cfg.sp = newSpans(200000)
			res, err = run(cfg)
		}
		if res != nil {
			// The end-to-end figures come from the untraced half; print
			// them too, so one traced command shows every metric.
			for _, m := range endToEnd {
				res.note("untraced %s %s %.6g %s", name, m.name, base.e2e[m.name], m.unit)
			}
			res.layer["trace.overhead_frac"] = res.e2e["cpu_us_per_op"]/base.e2e["cpu_us_per_op"] - 1
			res.note("traced cpu_us_per_op %.4g vs untraced %.4g", res.e2e["cpu_us_per_op"], base.e2e["cpu_us_per_op"])
			path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
			if werr := cfg.sp.write(path); werr != nil && err == nil {
				err = werr
			}
			res.note("spans: %s (%d stored, %d aggregated only)", path, len(cfg.sp.recs), cfg.sp.dropped.Load())
			for _, m := range perLayer {
				metrics[m.name] = metric{res.layer[m.name], m.unit}
			}
		}
	}
	report := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: err == nil, Metrics: metrics}
	if res != nil {
		report.Attempted, report.Failed = res.attempted, res.failed
		for _, n := range res.notes {
			fmt.Println("#", n)
		}
		keys := make([]string, 0, len(metrics))
		for k := range metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%s %s %.6g %s\n", name, k, metrics[k].Value, metrics[k].Unit)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		if _, ok := err.(*checkError); !ok {
			return 1 // no result: the run itself did not complete
		}
	}
	b, _ := json.Marshal(report)
	fmt.Println(string(b))
	if err != nil {
		return 1
	}
	return 0
}

// ---- process-level measurement helpers -------------------------------

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter brackets a timed phase: wall time, CPU, and allocation counters.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	mem   runtime.MemStats
	dWall time.Duration
	dCPU  time.Duration
	dMem  struct{ bytes, allocs, gcs uint64 }
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	m.wall = time.Now()
	return m
}

func (m *meter) stop() {
	m.dWall = time.Since(m.wall)
	m.dCPU = cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.dMem.bytes = ms.TotalAlloc - m.mem.TotalAlloc
	m.dMem.allocs = ms.Mallocs - m.mem.Mallocs
	m.dMem.gcs = uint64(ms.NumGC - m.mem.NumGC)
}

// fill records the metrics every workload derives from the meter: ops
// per second, CPU per op and the GC budget.
func (m *meter) fill(r *result, ops int64) {
	if ops <= 0 {
		return
	}
	r.e2e["ops_per_s"] = float64(ops) / m.dWall.Seconds()
	r.e2e["cpu_us_per_op"] = float64(m.dCPU.Microseconds()) / float64(ops)
	r.layer["gc.alloc_b_per_op"] = float64(m.dMem.bytes) / float64(ops)
	r.layer["gc.allocs_per_op"] = float64(m.dMem.allocs) / float64(ops)
	r.layer["gc.cycles_per_kop"] = float64(m.dMem.gcs) * 1000 / float64(ops)
	r.note("timed phase: %d ops in %.3fs wall, %.3fs CPU (generator included)", ops, m.dWall.Seconds(), m.dCPU.Seconds())
}

// slicer splits a timed phase into equal slices and reports the median
// slice's throughput and CPU per op, so a burst of contention from
// outside the process moves one slice rather than the whole figure.
type slicer struct {
	marks []sliceMark
}

type sliceMark struct {
	at  time.Time
	cpu time.Duration
	ops int64
}

func (s *slicer) mark(ops int64) {
	s.marks = append(s.marks, sliceMark{time.Now(), cpuTime(), ops})
}

// medians returns the median over slices of ops per second and CPU
// microseconds per op; slices without ops are skipped.
func (s *slicer) medians() (opsPerS, cpuUSPerOp float64, n int) {
	var rates, cpus []float64
	for i := 1; i < len(s.marks); i++ {
		a, b := s.marks[i-1], s.marks[i]
		ops := b.ops - a.ops
		if ops <= 0 {
			continue
		}
		rates = append(rates, float64(ops)/b.at.Sub(a.at).Seconds())
		cpus = append(cpus, float64((b.cpu-a.cpu).Microseconds())/float64(ops))
	}
	return median(rates), median(cpus), len(rates)
}

// apply overrides the whole-phase ops_per_s and cpu_us_per_op with the
// slice medians.
func (s *slicer) apply(r *result) {
	rate, cpu, n := s.medians()
	if n == 0 {
		return
	}
	r.note("slice medians over %d slices: %.6g ops/s, %.6g us CPU/op (whole phase: %.6g, %.6g)",
		n, rate, cpu, r.e2e["ops_per_s"], r.e2e["cpu_us_per_op"])
	r.e2e["ops_per_s"], r.e2e["cpu_us_per_op"] = rate, cpu
}

// sliceCount is how many slices a timed phase of the given length gets:
// one per second, at least four.
func sliceCount(seconds float64) int {
	return max(4, int(seconds))
}

// liveHeapMB is the heap held after full collections: the state the
// process keeps, not a sample of its garbage. The second collection
// empties the sync.Pool victim caches the first one only demotes. It
// reads HeapAlloc, the bytes of live objects, rather than HeapInuse,
// which also counts the free slots of partly used spans and so depends
// on allocation history.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setupTimes runs setup n times, keeping the last instance and tearing
// down the others, and returns the kept instance and the median duration.
func setupTimes[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var kept T
	var ds []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		d := time.Since(t0).Seconds()
		if err != nil {
			return kept, 0, err
		}
		ds = append(ds, d)
		if i < n-1 {
			teardown(v)
		} else {
			kept = v
		}
	}
	return kept, median(ds), nil
}
