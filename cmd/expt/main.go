// Command expt regenerates the paper's tables and figures. Each experiment
// runs entirely in virtual time and prints the same rows/series the paper
// reports.
//
// Usage:
//
//	expt [-run all|fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|abl-tick|abl-comp|abl-window]
//	     [-trials N] [-seed S] [-ftp-mb N] [-workers N]
//	     [-cpuprofile FILE] [-memprofile FILE]
//	     [-trace-out FILE]
//
// With -trace-out the harness additionally runs one fully-span-traced
// modulated Web benchmark trial over a synthetic WaveLAN-like trace and
// writes every sampled span as JSON lines (one span object per line,
// virtual-time timestamps; see internal/obs/span/encode.go for the
// format). Render the file with `tracedump -i FILE -render spans`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tracemod/internal/expt"
	"tracemod/internal/obs/span"
	"tracemod/internal/replay"
	"tracemod/internal/scenario"
)

func main() {
	run := flag.String("run", "all", "experiment id (all, fig1..fig8, abl-tick, abl-comp, abl-window, abl-clock, abl-buffer)")
	trials := flag.Int("trials", 4, "trials per cell (the paper runs 4)")
	seed := flag.Int64("seed", 1997, "base seed")
	ftpMB := flag.Int("ftp-mb", 10, "FTP benchmark file size in MB")
	workers := flag.Int("workers", runtime.NumCPU(), "experiment cells run concurrently (output is identical at any count)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceOut := flag.String("trace-out", "", "write span JSONL from a fully-traced modulated run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expt: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "expt: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expt: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // report live objects, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "expt: -memprofile: %v\n", err)
			os.Exit(1)
		}
	}()

	o := expt.Default()
	o.Trials = *trials
	o.BaseSeed = *seed
	o.FTPSize = *ftpMB << 20
	o.Workers = *workers

	if *traceOut != "" {
		if err := writeTracedRun(*traceOut, o); err != nil {
			fmt.Fprintf(os.Stderr, "expt: -trace-out: %v\n", err)
			os.Exit(1)
		}
		if *run == "" {
			return
		}
	}

	ids := []string{*run}
	if *run == "all" {
		ids = allIDs
	}
	for _, id := range ids {
		start := time.Now()
		out, err := dispatch(id, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expt %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s (generated in %v) ====\n%s\n", id, time.Since(start).Round(time.Millisecond), out)
	}
}

// writeTracedRun runs one span-traced modulated Web trial over a
// synthetic WaveLAN-like trace and writes the sampled spans as JSONL.
func writeTracedRun(path string, o expt.Options) error {
	start := time.Now()
	comp, err := expt.MeasureCompensation(o)
	if err != nil {
		return err
	}
	_, spans, err := expt.RunModulatedTraced(
		replay.WaveLANLike(time.Hour), expt.BenchWeb, 0, comp, o, 0)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := span.WriteJSONL(f, spans); err != nil {
		return err
	}
	fmt.Printf("expt: wrote %d spans to %s (in %v)\n",
		len(spans), path, time.Since(start).Round(time.Millisecond))
	return nil
}

// allIDs is what -run all regenerates, in output order.
var allIDs = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "abl-tick", "abl-comp", "abl-window", "abl-clock", "abl-buffer"}

func dispatch(id string, o expt.Options) (string, error) {
	switch strings.ToLower(id) {
	case "fig1":
		r, err := expt.Fig1(o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	case "fig2", "fig3", "fig4", "fig5":
		sc := map[string]string{"fig2": "Porter", "fig3": "Flagstaff", "fig4": "Wean", "fig5": "Chatterbox"}[strings.ToLower(id)]
		s, _ := scenario.ByName(sc)
		r, err := expt.FigScenario(s, o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	case "fig6":
		r, err := expt.Fig6Web(o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	case "fig7":
		r, err := expt.Fig7FTP(o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	case "fig8":
		r, err := expt.Fig8Andrew(o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	case "abl-tick":
		r, err := expt.AblateTick(o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	case "abl-comp":
		r, err := expt.AblateCompensation(o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	case "abl-window":
		r, err := expt.AblateWindow(o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	case "abl-clock":
		r, err := expt.AblateClock(o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	case "abl-buffer":
		r, err := expt.AblateBuffer(o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	default:
		return "", fmt.Errorf("unknown experiment %q", id)
	}
}
