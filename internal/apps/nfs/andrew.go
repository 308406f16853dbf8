// The Andrew benchmark (Howard et al.) over the NFS substrate: MakeDir,
// Copy, ScanDir, ReadAll, and Make phases over a tree of about 70 source
// files occupying about 200 KB, with client CPU time modelled per phase so
// the Ethernet baseline lands near the paper's Figure 8 reference row.

package nfs

import (
	"fmt"
	"math/rand"
	"time"

	"tracemod/internal/sim"
)

// Tree describes the benchmark's source tree.
type Tree struct {
	Dirs  []string   // relative paths, parents before children
	Files []TreeFile // files within those dirs
}

// TreeFile is one source file.
type TreeFile struct {
	Dir  int // index into Tree.Dirs
	Name string
	Size int
}

// TotalBytes sums the file sizes.
func (t Tree) TotalBytes() int {
	n := 0
	for _, f := range t.Files {
		n += f.Size
	}
	return n
}

// GenTree synthesizes the Andrew input: five subsystem directories holding
// about 70 files totalling about 200 KB.
func GenTree(rng *rand.Rand) Tree {
	var t Tree
	subsystems := []string{"afsd", "butc", "kauth", "venus", "vol"}
	t.Dirs = append(t.Dirs, subsystems...)
	const files = 70
	const totalBytes = 200 * 1024
	remaining := totalBytes
	for i := 0; i < files; i++ {
		size := totalBytes/files/2 + rng.Intn(totalBytes/files)
		if i == files-1 || size > remaining {
			size = remaining
		}
		remaining -= size
		t.Files = append(t.Files, TreeFile{
			Dir:  i % len(t.Dirs),
			Name: fmt.Sprintf("src%02d.c", i),
			Size: size,
		})
	}
	return t
}

// PhaseTimes are the benchmark's reported elapsed times.
type PhaseTimes struct {
	MakeDir, Copy, ScanDir, ReadAll, Make time.Duration
	Total                                 time.Duration
}

// AndrewConfig tunes the benchmark's client CPU model. The defaults are
// calibrated so the Ethernet reference run lands near the paper's
// (2.25, 12.5, 7.75, 17.5, 84.0) seconds.
type AndrewConfig struct {
	// CPUScale multiplies every modelled CPU sleep (1.0 = the 75 MHz 486).
	CPUScale float64
	// RNG jitters CPU times ±10%; required.
	RNG *rand.Rand
}

// cpu sleeps for the modelled computation time with ±10% jitter.
func (cfg AndrewConfig) cpu(p *sim.Proc, d time.Duration) {
	scaled := float64(d) * cfg.CPUScale * (0.9 + 0.2*cfg.RNG.Float64())
	p.Sleep(time.Duration(scaled))
}

// Per-item CPU costs for the 1997 laptop.
const (
	cpuMkdir    = 150 * time.Millisecond  // per directory: mkdir + bookkeeping
	cpuCopyFile = 150 * time.Millisecond  // per file: local read + buffer copy
	cpuScanItem = 85 * time.Millisecond   // per entry: stat + pathname work
	cpuReadFile = 220 * time.Millisecond  // per file: read + checksum-style pass
	cpuCompile  = 1100 * time.Millisecond // per file: the compiler itself
	objFraction = 0.6                     // object bytes per source byte
)

// RunAndrew executes the five phases against a (fresh or flushed) client
// and returns per-phase elapsed times. The tree is created under the
// server root; run each trial against a fresh server for reproducibility.
func RunAndrew(p *sim.Proc, c *Client, tree Tree, cfg AndrewConfig) (PhaseTimes, error) {
	if cfg.CPUScale == 0 {
		cfg.CPUScale = 1.0
	}
	if cfg.RNG == nil {
		panic("nfs: AndrewConfig.RNG is required")
	}
	var pt PhaseTimes
	begin := p.Now()

	// Phase 1: MakeDir — recreate the directory skeleton.
	dirFH := make([]uint32, len(tree.Dirs))
	for i, name := range tree.Dirs {
		a, err := c.Mkdir(p, RootFH, name)
		if err != nil {
			return pt, fmt.Errorf("andrew mkdir %s: %w", name, err)
		}
		dirFH[i] = a.FH
		cfg.cpu(p, cpuMkdir)
	}
	// A second level, as the Andrew tree is not flat.
	subFH := make([]uint32, len(tree.Dirs))
	for i, name := range tree.Dirs {
		a, err := c.Mkdir(p, dirFH[i], name+".d")
		if err != nil {
			return pt, err
		}
		subFH[i] = a.FH
		cfg.cpu(p, cpuMkdir)
	}
	_ = subFH
	pt.MakeDir = p.Now().Sub(begin)

	// Phase 2: Copy — copy every source file into the tree.
	mark := p.Now()
	fileFH := make([]uint32, len(tree.Files))
	for i, f := range tree.Files {
		a, err := c.Create(p, dirFH[f.Dir], f.Name)
		if err != nil {
			return pt, fmt.Errorf("andrew create %s: %w", f.Name, err)
		}
		fileFH[i] = a.FH
		data := make([]byte, f.Size)
		for j := range data {
			data[j] = byte('a' + (i+j)%26)
		}
		if err := c.WriteFile(p, a.FH, data); err != nil {
			return pt, fmt.Errorf("andrew write %s: %w", f.Name, err)
		}
		cfg.cpu(p, cpuCopyFile)
	}
	pt.Copy = p.Now().Sub(mark)

	// Phase 3: ScanDir — stat every entry in the tree.
	mark = p.Now()
	for _, fh := range dirFH {
		if _, err := c.Readdir(p, fh); err != nil {
			return pt, err
		}
	}
	for i := range tree.Files {
		if _, err := c.Getattr(p, fileFH[i]); err != nil {
			return pt, err
		}
		cfg.cpu(p, cpuScanItem)
	}
	pt.ScanDir = p.Now().Sub(mark)

	// Phase 4: ReadAll — read every byte; the client cache is warm from
	// Copy, so this emits status checks only.
	mark = p.Now()
	for i := range tree.Files {
		data, err := c.ReadFile(p, fileFH[i])
		if err != nil {
			return pt, err
		}
		if len(data) != tree.Files[i].Size {
			return pt, fmt.Errorf("andrew readall %s: got %d bytes, want %d",
				tree.Files[i].Name, len(data), tree.Files[i].Size)
		}
		cfg.cpu(p, cpuReadFile)
	}
	pt.ReadAll = p.Now().Sub(mark)

	// Phase 5: Make — compile every source (CPU-dominated), re-reading
	// sources through the cache and writing object files back via NFS.
	mark = p.Now()
	for i, f := range tree.Files {
		if _, err := c.ReadFile(p, fileFH[i]); err != nil {
			return pt, err
		}
		cfg.cpu(p, cpuCompile)
		obj, err := c.Create(p, dirFH[f.Dir], f.Name+".o")
		if err != nil {
			return pt, err
		}
		objData := make([]byte, int(float64(f.Size)*objFraction))
		if err := c.WriteFile(p, obj.FH, objData); err != nil {
			return pt, err
		}
	}
	pt.Make = p.Now().Sub(mark)

	pt.Total = p.Now().Sub(begin)
	return pt, nil
}

// Seconds renders the phase times the way Figure 8 reports them.
func (pt PhaseTimes) Seconds() [6]float64 {
	return [6]float64{
		pt.MakeDir.Seconds(), pt.Copy.Seconds(), pt.ScanDir.Seconds(),
		pt.ReadAll.Seconds(), pt.Make.Seconds(), pt.Total.Seconds(),
	}
}
