package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tracemod/internal/expt"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_seed1997.txt from the current output")

const goldenPath = "testdata/golden_seed1997.txt"

// goldenOptions is `expt -run all -seed 1997 -trials 1 -ftp-mb 1`.
func goldenOptions() expt.Options {
	o := expt.Default()
	o.Trials = 1
	o.BaseSeed = 1997
	o.FTPSize = 1 << 20
	o.Workers = runtime.NumCPU()
	return o
}

// TestGoldenFigures pins every figure and ablation of the reproduction:
// each section `expt -run all` prints (less its "generated in" timing
// header) must hash to the committed SHA-256. A change that moves any
// number in EXPERIMENTS.md fails here; regenerate deliberately with
//
//	go test ./cmd/expt -run TestGoldenFigures -update
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure (several seconds)")
	}
	o := goldenOptions()
	got := map[string]string{}
	outs := map[string]string{}
	for _, id := range allIDs {
		out, err := dispatch(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256([]byte(out))
		got[id] = hex.EncodeToString(sum[:])
		outs[id] = out
	}

	if *update {
		var b strings.Builder
		b.WriteString("# SHA-256 of each `expt -run all -seed 1997 -trials 1 -ftp-mb 1` section.\n")
		b.WriteString("# Regenerate: go test ./cmd/expt -run TestGoldenFigures -update\n")
		for _, id := range allIDs {
			fmt.Fprintf(&b, "%s  %s\n", got[id], id)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readGolden(t)
	for _, id := range allIDs {
		w, ok := want[id]
		if !ok {
			t.Errorf("%s: no committed hash (run with -update)", id)
			continue
		}
		if got[id] != w {
			t.Errorf("%s: output hashes to %s, golden %s; output:\n%s", id, got[id], w, outs[id])
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("golden lists %q, which -run all no longer produces", id)
		}
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
