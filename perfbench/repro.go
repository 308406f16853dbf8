package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"time"

	"tracemod/internal/apps/ftp"
	"tracemod/internal/core"
	"tracemod/internal/distill"
	"tracemod/internal/expt"
	"tracemod/internal/scenario"
	"tracemod/internal/stats"
)

const (
	// reproFTPSize shrinks the paper's 10 MB FTP file tenfold.
	reproFTPSize = ftp.DefaultSize / 10
	reproSetups  = 3
	// reproPassSeconds is about how long one pass of the 64 cells takes on
	// two vCPUs.
	reproPassSeconds = 10
	// reproDefaultSeed is expt.Default's base seed, at which the rendered
	// tables must hash to reproTablesSHA256.
	reproDefaultSeed = 1997
)

// reproTablesSHA256 is the SHA-256 of Figures 6, 7 and 8 rendered by
// expt's Format methods at expt.Default() with FTPSize = reproFTPSize:
// byte-for-byte what expt.Fig6Web, Fig7FTP and Fig8Andrew print for that
// configuration (TestReproTablesMatchExpt checks the equivalence).
const reproTablesSHA256 = "8b889acd03e51ea5d2a6086781e7d63a521edb32c5a9f437bc5159e066b3b8b1"

var reproBenches = []expt.Bench{expt.BenchWeb, expt.BenchFTPSend, expt.BenchFTPRecv, expt.BenchAndrew}

// reproCell is one Figure 6–8 cell: a scenario, a benchmark and a trial.
type reproCell struct {
	sc    scenario.Scenario
	bench expt.Bench
	trial int
}

// reproOut is what one cell produced.
type reproOut struct {
	live, mod expt.Result
}

// reproCells lists a whole table pass as o.Trials groups of equal mix,
// one trial of every scenario and benchmark each; within a group the
// slowest scenario comes first so the worker pool's tail stays short.
func reproCells(o expt.Options) []reproCell {
	scs := scenario.All()
	order := []scenario.Scenario{scs[3], scs[2], scs[1], scs[0]}
	var cells []reproCell
	for t := 0; t < o.Trials; t++ {
		for _, sc := range order {
			for _, b := range reproBenches {
				cells = append(cells, reproCell{sc: sc, bench: b, trial: t})
			}
		}
	}
	return cells
}

func reproOptions(seed int64) expt.Options {
	o := expt.Default()
	o.BaseSeed = seed
	o.FTPSize = reproFTPSize
	o.Workers = runtime.NumCPU()
	return o
}

// reproRef is the set-up: the compensation measurement and the Ethernet
// reference rows every table compares against.
type reproRef struct {
	comp core.PerByte
	eth  map[expt.Bench][]expt.Result // by trial
}

func setupRepro(o expt.Options) (*reproRef, error) {
	comp, err := expt.MeasureCompensation(o)
	if err != nil {
		return nil, err
	}
	ref := &reproRef{comp: comp, eth: map[expt.Bench][]expt.Result{}}
	type job struct {
		b     expt.Bench
		trial int
	}
	var jobs []job
	for _, b := range reproBenches {
		ref.eth[b] = make([]expt.Result, o.Trials)
		for t := 0; t < o.Trials; t++ {
			jobs = append(jobs, job{b, t})
		}
	}
	errs := make([]error, len(jobs))
	pool(o.Workers, len(jobs), func(i int) {
		j := jobs[i]
		ref.eth[j.b][j.trial], errs[i] = expt.RunEthernetReference(j.b, j.trial, o)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// pool runs fn(0..n-1) on w goroutines, handing out indices in order.
func pool(w, n int, fn func(i int)) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runCell is one op: collect and distill the scenario's trace for the
// trial, then run the benchmark live over the scenario and modulated by
// the trace.
func runCell(c reproCell, o expt.Options, comp core.PerByte, sp *spans, op int64) (reproOut, error) {
	var out reproOut
	st0 := sp.now()
	root := sp.begin("repro.cell", -1, op)
	defer sp.end(root, "repro.cell", st0, false)

	t0 := sp.now()
	var trace core.Trace
	if sp == nil {
		res, err := expt.Collect(c.sc, c.trial, o)
		if err != nil {
			return out, err
		}
		trace = res.Replay
	} else {
		raw, res, err := expt.CollectFull(c.sc, c.trial, o)
		if err != nil {
			return out, err
		}
		trace = res.Replay
		sp.add("expt.collect", t0, sp.now(), root, op, false)
		// The traced run also times the batch distiller alone on the
		// same collected records.
		t1 := sp.now()
		if _, err := distill.Distill(raw, o.Distill); err != nil {
			return out, err
		}
		sp.add("distill.batch", t1, sp.now(), root, op, false)
	}
	var err error
	t0 = sp.now()
	if out.live, err = expt.RunLive(c.sc, c.bench, c.trial, o); err != nil {
		return out, fmt.Errorf("live %s/%v trial %d: %w", c.sc.Name, c.bench, c.trial, err)
	}
	sp.add("expt.live", t0, sp.now(), root, op, false)
	t0 = sp.now()
	if out.mod, err = expt.RunModulated(trace, c.bench, c.trial, comp, o); err != nil {
		return out, fmt.Errorf("mod %s/%v trial %d: %w", c.sc.Name, c.bench, c.trial, err)
	}
	sp.add("expt.modulated", t0, sp.now(), root, op, false)
	return out, nil
}

// renderTables builds Figures 6–8 from one pass of cell results and the
// Ethernet references, exactly as expt's table functions do, and renders
// them with expt's Format methods.
func renderTables(o expt.Options, cells []reproCell, outs []reproOut, ref *reproRef) string {
	type key struct {
		sc string
		b  expt.Bench
	}
	byKey := map[key][]reproOut{}
	for i, c := range cells {
		k := key{c.sc.Name, c.bench}
		if byKey[k] == nil {
			byKey[k] = make([]reproOut, o.Trials)
		}
		byKey[k][c.trial] = outs[i]
	}
	cell := func(sc string, b expt.Bench) expt.Cell {
		var real, mod []float64
		for _, r := range byKey[key{sc, b}] {
			real = append(real, r.live.Elapsed.Seconds())
			mod = append(mod, r.mod.Elapsed.Seconds())
		}
		return expt.Cell{Real: stats.Summarize(real), Mod: stats.Summarize(mod)}
	}
	eth := func(b expt.Bench) stats.Summary {
		var xs []float64
		for _, r := range ref.eth[b] {
			xs = append(xs, r.Elapsed.Seconds())
		}
		return stats.Summarize(xs)
	}

	web := &expt.WebTable{Ethernet: eth(expt.BenchWeb)}
	ftpT := &expt.FTPTable{EthernetSend: eth(expt.BenchFTPSend), EthernetRecv: eth(expt.BenchFTPRecv)}
	andrew := &expt.AndrewTable{}
	for _, sc := range scenario.All() {
		web.Rows = append(web.Rows, expt.WebRow{Scenario: sc.Name, Cell: cell(sc.Name, expt.BenchWeb)})
		ftpT.Rows = append(ftpT.Rows, expt.FTPRow{Scenario: sc.Name,
			Send: cell(sc.Name, expt.BenchFTPSend), Recv: cell(sc.Name, expt.BenchFTPRecv)})
		row := expt.AndrewRow{Scenario: sc.Name}
		runs := byKey[key{sc.Name, expt.BenchAndrew}]
		for ph := 0; ph < 6; ph++ {
			var rs, ms []float64
			for _, r := range runs {
				rs = append(rs, r.live.Phases.Seconds()[ph])
				ms = append(ms, r.mod.Phases.Seconds()[ph])
			}
			row.Phases[ph] = expt.Cell{Real: stats.Summarize(rs), Mod: stats.Summarize(ms)}
		}
		andrew.Rows = append(andrew.Rows, row)
	}
	for ph := 0; ph < 6; ph++ {
		var xs []float64
		for _, r := range ref.eth[expt.BenchAndrew] {
			xs = append(xs, r.Phases.Seconds()[ph])
		}
		andrew.Ethernet[ph] = stats.Summarize(xs)
	}
	return web.Format() + ftpT.Format() + andrew.Format()
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// runRepro runs whole table passes of the Figure 6–8 cells on
// runtime.NumCPU() workers, one pass per reproPassSeconds of measured
// time (at least one). The pass count is fixed by --seconds, not by the
// clock: a pass holds 64 cells of very different cost, and stopping on a
// deadline would make runs differ by a whole pass. Op = one cell.
func runRepro(cfg runConfig) (*result, error) {
	res := newResult()
	o := reproOptions(cfg.seed)
	ref, setup, err := setupTimes(reproSetups, func() (*reproRef, error) { return setupRepro(o) }, func(*reproRef) {})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup
	res.note("setup: median of %d set-ups (compensation measurement + %d Ethernet reference runs)",
		reproSetups, len(reproBenches)*o.Trials)

	cells := reproCells(o)
	// Warm-up: one cheap cell per benchmark.
	for _, b := range reproBenches {
		if _, err := runCell(reproCell{sc: scenario.Wean, bench: b, trial: 0}, o, ref.comp, nil, -1); err != nil {
			return nil, err
		}
	}

	lat := &hist{}
	var first []reproOut
	var op int64
	m := startMeter()
	// Each trial group is a slice: every slice runs the same cell mix, so
	// the median slice is comparable across runs.
	sl := &slicer{}
	sl.mark(0)
	group := len(cells) / o.Trials
	passes := max(1, int(math.Round(cfg.seconds/reproPassSeconds)))
	for pass := 0; pass < passes; pass++ {
		outs := make([]reproOut, len(cells))
		errs := make([]error, len(cells))
		durs := make([]time.Duration, len(cells))
		for g := 0; g < len(cells); g += group {
			base := op
			pool(o.Workers, group, func(i int) {
				t0 := time.Now()
				outs[g+i], errs[g+i] = runCell(cells[g+i], o, ref.comp, cfg.sp, base+int64(i))
				durs[g+i] = time.Since(t0)
			})
			op += int64(group)
			sl.mark(op)
		}
		for i, err := range errs {
			if err != nil {
				return nil, err
			}
			lat.record(int64(durs[i]))
		}
		if first == nil {
			first = outs
		} else if !reflect.DeepEqual(first, outs) {
			return res, checkFail("pass %d results differ from pass 1", pass+1)
		}
	}
	m.stop()
	res.e2e["live_heap_mb"] = liveHeapMB()
	m.fill(res, op)
	sl.apply(res)
	res.attempted = op
	if err := latencyTails(res, lat, nil, "cell wall time"); err != nil {
		return nil, err
	}

	tables := renderTables(o, cells, first, ref)
	sum := sha(tables)
	res.note("%d passes of %d cells on %d workers; tables sha256 %s", passes, len(cells), o.Workers, sum)
	if cfg.seed == reproDefaultSeed && sum != reproTablesSHA256 {
		return res, checkFail("tables at the default seed hash to %s, recorded %s", sum, reproTablesSHA256)
	}
	// The same cells on one worker must give identical results: spot-check
	// one cell per benchmark and scenario of a seed-chosen trial.
	trial := int(uint64(cfg.seed) % uint64(o.Trials))
	for i, c := range cells {
		if c.trial != trial || c.sc.Name == "Chatterbox" {
			continue
		}
		got, err := runCell(c, o, ref.comp, nil, -1)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(got, first[i]) {
			return res, checkFail("cell %s/%v trial %d differs between the %d-worker pass and a serial run",
				c.sc.Name, c.bench, c.trial, o.Workers)
		}
	}

	if cfg.sp != nil {
		for _, x := range []struct{ span, metric string }{
			{"expt.collect", "expt.collect_ms"}, {"distill.batch", "distill.batch_ms"},
			{"expt.live", "expt.live_ms"}, {"expt.modulated", "expt.modulated_ms"},
		} {
			_, mean := cfg.sp.stats(x.span)
			res.layer[x.metric] = mean / 1e6
		}
		if self := cfg.sp.selfTimes("repro.cell"); len(self) > 0 {
			xs := make([]float64, len(self))
			for i, v := range self {
				xs[i] = float64(v) / 1e3
			}
			res.layer["bench.self_us_per_op"] = median(xs)
		}
	}
	return res, nil
}
