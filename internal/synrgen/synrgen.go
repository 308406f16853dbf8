// Package synrgen is a miniature SynRGen (Ebling & Satyanarayanan, "an
// extensible file reference generator"): it models a user in an edit-debug
// cycle over files stored on a remote NFS server, which is exactly the
// workload the paper runs on the five interfering laptops of the
// Chatterbox scenario.
//
// A user alternates think time with actions drawn from the cycle:
//
//   - edit: read a source file, dwell, write it back slightly changed;
//   - compile: read a handful of sources, write an object file;
//   - debug: read an object/binary straight through.
//
// Every action issues real RPCs through a real nfs.Client, so the traffic
// on the shared medium is genuine NFS: small status checks interleaved
// with 1 KB data blocks, in bursts, with think-time gaps — the bursty
// contention the paper observes in Figure 5.
package synrgen

import (
	"fmt"
	"math/rand"
	"time"

	"tracemod/internal/apps/nfs"
	"tracemod/internal/sim"
)

// Params shapes the user's behaviour.
type Params struct {
	// Files is the size of the user's working set.
	Files int
	// FileSize is the mean source-file size in bytes.
	FileSize int
	// ThinkMean is the mean think time between actions.
	ThinkMean time.Duration
	// RNG drives the user's choices; required.
	RNG *rand.Rand
}

// DefaultParams returns an edit-debug user matching the paper's era: a
// working set of a dozen small sources, a couple of seconds of think time.
func DefaultParams(rng *rand.Rand) Params {
	return Params{Files: 12, FileSize: 3 * 1024, ThinkMean: 2 * time.Second, RNG: rng}
}

// Stats counts a user's activity.
type Stats struct {
	Edits, Compiles, Debugs int
	BytesRead, BytesWritten int
}

// User is one synthetic SynRGen user.
type User struct {
	client *nfs.Client
	params Params

	dir   uint32
	files []uint32
	objs  []uint32

	pattern []byte // file content, see fill

	stats Stats
}

// New prepares a user working in its own directory under the server root;
// Setup must run (from a process) before Run.
func New(client *nfs.Client, params Params) *User {
	if params.RNG == nil {
		panic("synrgen: Params.RNG is required")
	}
	if params.Files <= 0 {
		params.Files = 12
	}
	if params.FileSize <= 0 {
		params.FileSize = 3 * 1024
	}
	if params.ThinkMean <= 0 {
		params.ThinkMean = 2 * time.Second
	}
	return &User{client: client, params: params}
}

// Stats returns the user's activity counters.
func (u *User) Stats() Stats { return u.stats }

// Setup populates the user's working set on the server.
func (u *User) Setup(p *sim.Proc, name string) error {
	dir, err := u.client.Mkdir(p, nfs.RootFH, name)
	if err != nil {
		return fmt.Errorf("synrgen: mkdir: %w", err)
	}
	u.dir = dir.FH
	for i := 0; i < u.params.Files; i++ {
		f, err := u.client.Create(p, u.dir, fmt.Sprintf("src%02d.c", i))
		if err != nil {
			return fmt.Errorf("synrgen: create: %w", err)
		}
		size := u.params.FileSize/2 + u.params.RNG.Intn(u.params.FileSize)
		if err := u.client.WriteFile(p, f.FH, u.fill(size, byte(i))); err != nil {
			return fmt.Errorf("synrgen: populate: %w", err)
		}
		u.stats.BytesWritten += size
		u.files = append(u.files, f.FH)
	}
	return nil
}

// fill returns size bytes of file content: byte i is
// 'a' + (seed+byte(i))%26. The content repeats every 256 bytes, so it is
// a window of u.pattern, which holds that sequence from seed 0 and
// doubles when a larger file is asked for. The slice is read-only and
// shared by every file this user writes; the NFS client caches it as
// written.
func (u *User) fill(size int, seed byte) []byte {
	if need := 256 + size; len(u.pattern) < need {
		u.pattern = make([]byte, max(need, 2*len(u.pattern)))
		for i := range u.pattern {
			u.pattern[i] = 'a' + byte(i)%26
		}
	}
	return u.pattern[seed : int(seed)+size : int(seed)+size]
}

// Run drives the edit-debug cycle until end (virtual time).
func (u *User) Run(p *sim.Proc, end sim.Time) error {
	for p.Now() < end {
		think := time.Duration(u.params.RNG.ExpFloat64() * float64(u.params.ThinkMean))
		if think > 4*u.params.ThinkMean {
			think = 4 * u.params.ThinkMean
		}
		p.Sleep(think)
		if p.Now() >= end {
			return nil
		}
		var err error
		switch r := u.params.RNG.Float64(); {
		case r < 0.55:
			err = u.edit(p)
		case r < 0.85:
			err = u.compile(p)
		default:
			err = u.debug(p)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// edit reads one source, dwells briefly, and writes it back.
func (u *User) edit(p *sim.Proc) error {
	fh := u.files[u.params.RNG.Intn(len(u.files))]
	u.client.FlushFile(fh) // the editor re-reads from the server
	data, err := u.client.ReadFile(p, fh)
	if err != nil {
		return err
	}
	u.stats.BytesRead += len(data)
	p.Sleep(time.Duration(100+u.params.RNG.Intn(300)) * time.Millisecond)
	// The edit grows or shrinks the file a little.
	delta := u.params.RNG.Intn(256) - 96
	size := len(data) + delta
	if size < 64 {
		size = 64
	}
	if err := u.client.WriteFile(p, fh, u.fill(size, byte(u.stats.Edits))); err != nil {
		return err
	}
	u.stats.BytesWritten += size
	u.stats.Edits++
	return nil
}

// compile reads several sources and writes an object file.
func (u *User) compile(p *sim.Proc) error {
	n := 3 + u.params.RNG.Intn(4)
	total := 0
	for i := 0; i < n; i++ {
		fh := u.files[u.params.RNG.Intn(len(u.files))]
		u.client.FlushFile(fh)
		data, err := u.client.ReadFile(p, fh)
		if err != nil {
			return err
		}
		total += len(data)
		u.stats.BytesRead += len(data)
	}
	p.Sleep(time.Duration(150+u.params.RNG.Intn(450)) * time.Millisecond)
	obj, err := u.client.Create(p, u.dir, fmt.Sprintf("out%02d.o", u.stats.Compiles%8))
	if err != nil {
		return err
	}
	size := total / 2
	if size < 256 {
		size = 256
	}
	if err := u.client.WriteFile(p, obj.FH, u.fill(size, 0x55)); err != nil {
		return err
	}
	u.stats.BytesWritten += size
	if len(u.objs) < 8 {
		u.objs = append(u.objs, obj.FH)
	}
	u.stats.Compiles++
	return nil
}

// debug reads an object straight through (or a source if none exist yet).
func (u *User) debug(p *sim.Proc) error {
	pool := u.objs
	if len(pool) == 0 {
		pool = u.files
	}
	fh := pool[u.params.RNG.Intn(len(pool))]
	u.client.FlushFile(fh)
	data, err := u.client.ReadFile(p, fh)
	if err != nil {
		return err
	}
	u.stats.BytesRead += len(data)
	u.stats.Debugs++
	return nil
}
