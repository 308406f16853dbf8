package emud

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tracemod/internal/simnet"
)

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "farm.json")
	m := newTestManager(t, Options{SnapshotPath: path, SnapshotInterval: -1})

	run := startSession(t, m, testTrace())
	idle, err := m.Create(SessionConfig{Name: "idle", Trace: testTrace(), Loop: true, Tick: -1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	stopped := startSession(t, m, testTrace())
	stopped.Stop()

	// Advance the running session's cursor a little.
	for i := 0; i < 5; i++ {
		run.Submit(simnet.Outbound, 100, func() {})
	}
	deadline := time.Now().Add(5 * time.Second)
	for run.Stats().InFlight > 0 {
		if time.Now().After(deadline) {
			t.Fatal("packets never drained")
		}
		time.Sleep(time.Millisecond)
	}
	wantCursor := run.Cursor()

	if err := m.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("tmp file left behind after atomic publish")
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Sessions) != 2 {
		t.Fatalf("snapshot holds %d sessions, want 2 (stopped one omitted)", len(snap.Sessions))
	}

	// "Kill -9": a fresh manager restores the snapshot.
	m2 := newTestManager(t, Options{})
	n, err := m2.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d sessions, want 2", n)
	}
	r2, ok := m2.Get(run.ID)
	if !ok {
		t.Fatalf("running session %s not restored under its ID", run.ID)
	}
	if r2.State() != StateRunning {
		t.Fatalf("restored session state = %v, want running", r2.State())
	}
	if got := r2.Cursor(); got != wantCursor {
		t.Fatalf("restored cursor = %d, want %d", got, wantCursor)
	}
	i2, ok := m2.Get(idle.ID)
	if !ok || i2.State() != StateCreated {
		t.Fatalf("created-but-not-started session restored as %v", i2.State())
	}
	if i2.Config().Name != "idle" || i2.Config().Seed != 9 {
		t.Fatalf("restored config lost fields: %+v", i2.Config())
	}
	if _, ok := m2.Get(stopped.ID); ok {
		t.Fatal("stopped session must not be restored")
	}

	// Post-recovery creates must not collide with restored IDs.
	fresh, err := m2.Create(SessionConfig{Trace: testTrace()})
	if err != nil {
		t.Fatal(err)
	}
	if _, clash := map[string]bool{run.ID: true, idle.ID: true}[fresh.ID]; clash {
		t.Fatalf("fresh session reused restored ID %s", fresh.ID)
	}

	// A restored session keeps working.
	done := make(chan struct{})
	if !r2.Submit(simnet.Outbound, 100, func() { close(done) }) {
		t.Fatal("restored session refused a packet")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("restored session never delivered")
	}
}

func TestCloseWritesFinalSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "final.json")
	m := NewManager(Options{Granularity: time.Millisecond, SnapshotPath: path, SnapshotInterval: -1})
	s, err := m.Create(SessionConfig{Trace: testTrace(), Loop: true, Tick: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("no snapshot after Close: %v", err)
	}
	if len(snap.Sessions) != 1 || snap.Sessions[0].ID != s.ID {
		t.Fatalf("final snapshot sessions = %+v", snap.Sessions)
	}
}

func TestRecoverMissingFileIsFirstBoot(t *testing.T) {
	m := newTestManager(t, Options{})
	n, err := m.Recover(filepath.Join(t.TempDir(), "absent.json"))
	if n != 0 || err != nil {
		t.Fatalf("Recover(absent) = (%d, %v), want (0, nil)", n, err)
	}
}

// TestConcurrentSnapshotWritersPublishWholeSnapshots races explicit
// WriteSnapshot calls against the periodic loop at a 1 ms interval (and
// Close's final write at the end). Every write must succeed, and every
// read of the published path must parse as a complete snapshot.
func TestConcurrentSnapshotWritersPublishWholeSnapshots(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "farm.json")
	m := NewManager(Options{Granularity: time.Millisecond, SnapshotPath: path, SnapshotInterval: time.Millisecond})
	for i := 0; i < 3; i++ {
		startSession(t, m, testTrace())
	}

	const writers, writes = 4, 25
	stop := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		defer close(readErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := LoadSnapshot(path)
			if os.IsNotExist(err) {
				continue // nothing published yet
			}
			if err == nil && len(snap.Sessions) != 3 {
				err = fmt.Errorf("a published snapshot holds %d sessions, want 3", len(snap.Sessions))
			}
			if err != nil {
				readErr <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, writers*writes)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				if err := m.WriteSnapshot(); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	close(stop)
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}

	// Close stops the loop before its own final write, so no later tick
	// publishes the emptied farm over it.
	m.Close()
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Sessions) != 3 {
		t.Fatalf("the snapshot left by Close holds %d sessions, want 3", len(snap.Sessions))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}
