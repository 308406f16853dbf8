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

var update = flag.Bool("update", false, "rewrite testdata/golden_seed1997.txt and testdata/golden_seed1997/ from the current output")

const (
	goldenPath = "testdata/golden_seed1997.txt"
	// goldenTextDir holds each section's rendered text beside its hash,
	// so a mismatch can name the lines that moved.
	goldenTextDir = "testdata/golden_seed1997"
)

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
// number in EXPERIMENTS.md fails here, printing a line diff against the
// section's committed text in testdata/golden_seed1997/<id>.txt (the hash
// stays the authority). Regenerate both deliberately with
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
		if err := os.MkdirAll(goldenTextDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, id := range allIDs {
			if err := os.WriteFile(filepath.Join(goldenTextDir, id+".txt"), []byte(outs[id]), 0o644); err != nil {
				t.Fatal(err)
			}
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
			t.Errorf("%s: output hashes to %s, golden %s; %s", id, got[id], w, goldenDiff(id, outs[id]))
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

// goldenDiff describes how out departs from the committed text of section
// id: a line diff, or the whole output when there is no text to diff
// against.
func goldenDiff(id, out string) string {
	want, err := os.ReadFile(filepath.Join(goldenTextDir, id+".txt"))
	if err != nil {
		return fmt.Sprintf("no committed text (%v); output:\n%s", err, out)
	}
	if string(want) == out {
		return "the committed text matches the output, so the hash file is stale (run with -update)"
	}
	return "diff against the committed text (-want +got):\n" + lineDiff(string(want), out)
}

// lineDiff is a longest-common-subsequence line diff of a and b that
// prints only the changed lines, each with its line number in a (-) or
// b (+).
func lineDiff(a, b string) string {
	x := strings.Split(a, "\n")
	y := strings.Split(b, "\n")
	// lcs[i][j] is the LCS length of x[i:] and y[j:].
	lcs := make([][]int, len(x)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(y)+1)
	}
	for i := len(x) - 1; i >= 0; i-- {
		for j := len(y) - 1; j >= 0; j-- {
			if x[i] == y[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var d strings.Builder
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case i < len(x) && j < len(y) && x[i] == y[j]:
			i++
			j++
		case i < len(x) && (j == len(y) || lcs[i+1][j] >= lcs[i][j+1]):
			fmt.Fprintf(&d, "-%4d %s\n", i+1, x[i])
			i++
		default:
			fmt.Fprintf(&d, "+%4d %s\n", j+1, y[j])
			j++
		}
	}
	return d.String()
}
