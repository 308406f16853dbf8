// Command benchguard parses `go test -bench` output and guards against
// performance regressions. It has two modes:
//
//	benchguard -emit [-out BENCH_4.json] < bench.out
//	    Parse the benchmark output and write a JSON baseline.
//
//	benchguard -baseline BENCH_4.json [-threshold 0.20] < bench.out
//	    Compare the run against the committed baseline and exit non-zero
//	    if any guarded, lower-is-better figure (ns/op, allocs/op, or the
//	    goroutines/session metric) regressed by more than the threshold.
//	    A zero baseline admits no increase at all.
//
// Benchmarks present in the baseline but missing from the run fail the
// guard, so a benchmark cannot dodge it by being deleted or renamed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's figures. Metrics holds units beyond the three
// standard ones (MB/s, goroutines/session, ...).
type Bench struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the serialized baseline.
type File struct {
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	emit := flag.Bool("emit", false, "write a JSON baseline from stdin")
	out := flag.String("out", "", "baseline file to write with -emit (default stdout)")
	baseline := flag.String("baseline", "", "baseline file to compare stdin against")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional regression")
	flag.Parse()

	cur, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(cur.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}

	switch {
	case *emit:
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if *out == "" {
			os.Stdout.Write(data)
			return
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	case *baseline != "":
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var base File
		if err := json.Unmarshal(data, &base); err != nil {
			fatal(fmt.Errorf("%s: %w", *baseline, err))
		}
		if failures := compare(base, cur, *threshold); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "benchguard: FAIL %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Println("benchguard: OK")
	default:
		fatal(fmt.Errorf("need -emit or -baseline (see -h)"))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
	os.Exit(2)
}

// parse reads `go test -bench` output: each benchmark line is the name
// (with an optional -GOMAXPROCS suffix), an iteration count, then
// value/unit pairs. A benchmark that appears several times (-count N)
// keeps its best figures (see merge) — best-of-N damps scheduler noise on
// shared runners, while allocs/op and goroutine counts are deterministic
// anyway.
func parse(r io.Reader) (File, error) {
	f := File{Benchmarks: map[string]Bench{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcSuffix(fields[0])
		b := Bench{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return f, fmt.Errorf("%s: bad value %q", name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		if prev, ok := f.Benchmarks[name]; ok {
			b = merge(prev, b)
		}
		f.Benchmarks[name] = b
	}
	return f, sc.Err()
}

// merge combines repeated runs of one benchmark. ns/op, B/op and
// allocs/op keep their minima (all are lower-is-better); the custom
// metrics come from the run with the lowest ns/op, so a throughput figure
// such as MB/s agrees with the ns/op stored beside it.
func merge(a, b Bench) Bench {
	fastest := a
	if b.NsPerOp < a.NsPerOp {
		fastest = b
	}
	return Bench{
		NsPerOp:     min(a.NsPerOp, b.NsPerOp),
		BytesPerOp:  min(a.BytesPerOp, b.BytesPerOp),
		AllocsPerOp: min(a.AllocsPerOp, b.AllocsPerOp),
		Metrics:     fastest.Metrics,
	}
}

// stripProcSuffix removes the trailing -N GOMAXPROCS marker, if any.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// guarded lists the lower-is-better figures the guard enforces.
func guarded(b Bench) map[string]float64 {
	g := map[string]float64{
		"ns/op":     b.NsPerOp,
		"allocs/op": b.AllocsPerOp,
	}
	if v, ok := b.Metrics["goroutines/session"]; ok {
		g["goroutines/session"] = v
	}
	return g
}

func compare(base, cur File, threshold float64) []string {
	var failures []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bb := base.Benchmarks[name]
		cb, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from this run", name))
			continue
		}
		baseG, curG := guarded(bb), guarded(cb)
		units := make([]string, 0, len(baseG))
		for unit := range baseG {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			bv := baseG[unit]
			cv, present := curG[unit]
			if !present {
				// ns/op and allocs/op are always reported, so an absent unit
				// is a custom metric (e.g. goroutines/session) the benchmark
				// stopped emitting — failing keeps it from dodging the guard.
				failures = append(failures, fmt.Sprintf("%s %s: metric missing from this run", name, unit))
				continue
			}
			limit := bv * (1 + threshold)
			if bv == 0 && cv > 0 {
				failures = append(failures, fmt.Sprintf("%s %s: baseline 0, now %g", name, unit, cv))
				continue
			}
			if cv > limit {
				failures = append(failures, fmt.Sprintf("%s %s: %g exceeds baseline %g by more than %.0f%%",
					name, unit, cv, bv, threshold*100))
			}
		}
	}
	return failures
}
