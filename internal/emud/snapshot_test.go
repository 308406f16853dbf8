package emud

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/faults"
	"tracemod/internal/obs/span"
	"tracemod/internal/replay"
	"tracemod/internal/simnet"
)

// The paths a session's state travels from a source farm to a
// destination farm.
const (
	viaFile    = "file"    // WriteSnapshot, then Recover
	viaHTTP    = "http"    // GET /v1/snapshot, then POST /v1/restore
	viaHandoff = "handoff" // Handoff, then Restore
)

// roundTripSession is one session a round-trip row creates on the source
// farm through POST /v1/sessions.
type roundTripSession struct {
	req SessionRequest
	// stop stops the session before the move; it is omitted from the
	// snapshot and must not come back.
	stop bool
	// moves means the trace's tuples are short enough that the replay
	// cursor must have left zero by the time the state moves.
	moves bool
	// lossless means the trace never drops, so the restored session must
	// deliver its packet rather than merely decide it.
	lossless bool
}

// roundTripRow is one cell of the restore matrix: sessions × path, into a
// destination farm that is plain, draining, browned out or full.
type roundTripRow struct {
	name     string
	path     string
	sessions []roundTripSession
	dest     string // "", "draining", "brownout" or "full"
}

// TestSnapshotRoundTrip is the restore matrix: every trace source (a
// trace_path file, inline, synthetic, stream-fed) crosses every path, and
// the restored session must be the same session — ID, trace, replay
// cursor, lottery draws, running flag, relay and flight recorder. The
// farms are traced, and share one stream WAL directory so a stream-fed
// session finds its stream again on the destination.
func TestSnapshotRoundTrip(t *testing.T) {
	// Tuples of 20 ms make the cursor move within a few of them.
	short := replay.Constant(core.DelayParams{F: time.Millisecond, Vb: 10}, 0.3, time.Hour, 20*time.Millisecond)
	replayPath := filepath.Join(t.TempDir(), "short.replay")
	f, err := os.Create(replayPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Write(f, short[:100]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	inline := []TupleJSON{{DurationSec: 0.02, LatencyMS: 1, Loss: 0.3}, {DurationSec: 0.02, LatencyMS: 2, Loss: 0.1}}
	lossless := []TupleJSON{{DurationSec: 0.02, LatencyMS: 1}, {DurationSec: 0.02, LatencyMS: 2}}

	target, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	relay := &RelaySpec{Listen: "127.0.0.1:0", Target: target.LocalAddr().String()}
	idle := false

	sources := []struct {
		name string
		rs   roundTripSession
	}{
		{"trace_path", roundTripSession{req: SessionRequest{TracePath: replayPath, TickUS: -1, Seed: 3, Relay: relay}, moves: true}},
		{"inline", roundTripSession{req: SessionRequest{Inline: inline, TickUS: -1, Seed: 4}, moves: true}},
		{"synthetic", roundTripSession{req: SessionRequest{Synthetic: "wavelan", Seed: 5, Relay: relay}}},
		{"stream", roundTripSession{req: SessionRequest{Stream: "feed", TickUS: -1, Seed: 6}}},
	}
	rows := []roundTripRow{{
		// A running, an idle and a stopped session recovered from file,
		// on a trace that never drops.
		name: "running+idle+stopped/" + viaFile, path: viaFile,
		sessions: []roundTripSession{
			{req: SessionRequest{Inline: lossless, TickUS: -1, Seed: 1}, moves: true, lossless: true},
			{req: SessionRequest{Name: "idle", Inline: lossless, TickUS: -1, Seed: 9, Start: &idle}, lossless: true},
			{req: SessionRequest{Inline: lossless, TickUS: -1, Seed: 2}, stop: true, lossless: true},
		},
	}}
	for _, src := range sources {
		for _, path := range []string{viaFile, viaHTTP, viaHandoff} {
			rows = append(rows, roundTripRow{name: src.name + "/" + path, path: path,
				sessions: []roundTripSession{src.rs}})
		}
	}
	one := []roundTripSession{sources[1].rs}
	rows = append(rows,
		roundTripRow{name: "into-draining/" + viaHandoff, path: viaHandoff, sessions: one, dest: "draining"},
		roundTripRow{name: "into-brownout/" + viaHTTP, path: viaHTTP, sessions: one, dest: "brownout"},
		roundTripRow{name: "into-full/" + viaHandoff, path: viaHandoff, sessions: one, dest: "full"},
	)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { runRoundTrip(t, row) })
	}
}

func runRoundTrip(t *testing.T, row roundTripRow) {
	walDir := filepath.Join(t.TempDir(), "wal")
	snapPath := filepath.Join(t.TempDir(), "farm.json")
	srv1, m1 := newTestAPI(t, Options{
		Spans:        span.New(span.Config{Sample: 1, Seed: 1}),
		StreamWALDir: walDir, SnapshotPath: snapPath, SnapshotInterval: -1,
	})
	resp, err := http.Post(srv1.URL+"/v1/streams?name=feed", "application/octet-stream",
		bytes.NewReader(collectedTraceBytes(t, 10)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("stream upload = %d", resp.StatusCode)
	}

	// Create, drive and (maybe) stop the sessions on the source.
	src := map[string]*Session{}
	lossless := map[string]bool{}
	var moved, stopped []string
	for _, rs := range row.sessions {
		var si SessionInfo
		doJSON(t, "POST", srv1.URL+"/v1/sessions", rs.req, http.StatusCreated, &si)
		s, _ := m1.Get(si.ID)
		src[si.ID] = s
		lossless[si.ID] = rs.lossless
		if s.State() == StateRunning {
			var outcomes sync.WaitGroup
			for i := 0; i < 20; i++ {
				outcomes.Add(1)
				s.SubmitWithDrop(simnet.Outbound, 100, outcomes.Done, outcomes.Done)
			}
			outcomes.Wait()
		}
		if rs.moves {
			waitFor(t, "cursor to move", func() bool { return s.Cursor() > 0 })
		}
		if rs.stop {
			s.Stop()
			stopped = append(stopped, si.ID)
		} else {
			moved = append(moved, si.ID)
		}
	}
	// What the sessions looked like just before the move: the drop
	// lottery is quiet without traffic; the cursor only moves forward.
	type state struct {
		cursor, draws int64
		running       bool
		relay         string
	}
	before := map[string]state{}
	for id, s := range src {
		before[id] = state{s.Cursor(), s.LotteryDraws(), s.State() == StateRunning, s.RelayAddr()}
	}

	o := roundTripDest(walDir, row.dest)
	srv2, m2 := newTestAPI(t, o)
	if _, err := m2.Streams().Recover(); err != nil {
		t.Fatal(err)
	}
	switch row.dest {
	case "full":
		if _, err := m2.Create(SessionConfig{Trace: testTrace()}); err != nil {
			t.Fatal(err)
		}
	case "draining":
		m2.BeginDrain()
	case "brownout":
		o.Faults.Set("pressure.force", faults.Config{Rate: 1, Delay: time.Millisecond})
		m2.Pressure().Evaluate()
	}

	// Move the state, and keep what travelled.
	var snaps []*FarmSnapshot
	var restored int
	var restoreErr error
	switch row.path {
	case viaFile:
		if err := m1.WriteSnapshot(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(snapPath + ".tmp"); !os.IsNotExist(err) {
			t.Fatal("tmp file left behind after atomic publish")
		}
		snap, err := LoadSnapshot(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
		deleteAll(m1, src) // the crash frees the relay ports
		restored, restoreErr = m2.Recover(snapPath)
	case viaHTTP:
		var snap FarmSnapshot
		doJSON(t, "GET", srv1.URL+"/v1/snapshot", nil, http.StatusOK, &snap)
		snaps = append(snaps, &snap)
		deleteAll(m1, src)
		var rr RestoreResult
		doJSON(t, "POST", srv2.URL+"/v1/restore", &snap, http.StatusOK, &rr)
		restored = rr.Restored
		if rr.Error != "" {
			restoreErr = errors.New(rr.Error)
		}
	case viaHandoff:
		for _, id := range moved {
			snap, err := m1.Handoff(id, time.Second)
			if src[id].cfg.Live != nil {
				// A stream-fed session cannot hand off: its stream is the
				// source's. It stays where it is, untouched.
				if !errors.Is(err, ErrStreamGone) {
					t.Fatalf("stream-fed handoff err = %v, want ErrStreamGone", err)
				}
				if s, ok := m1.Get(id); !ok || s.State() != StateRunning {
					t.Fatal("a refused handoff disturbed the session")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap)
			if row.dest == "full" {
				// Restore bypasses the admission gates, never the limit:
				// the refusal is typed like Create's, and HTTP says 409.
				n, err := m2.Restore(snap)
				if n != 0 || !errors.Is(err, ErrOverload) {
					t.Fatalf("restore into a full farm = (%d, %v), want (0, ErrOverload)", n, err)
				}
				doJSON(t, "POST", srv2.URL+"/v1/restore", snap, http.StatusConflict, nil)
				return
			}
			n, err := m2.Restore(snap)
			restored += n
			if err != nil && restoreErr == nil {
				restoreErr = err
			}
		}
	}
	if restored != len(moved) || restoreErr != nil {
		t.Fatalf("restore = (%d, %v), want (%d, nil)", restored, restoreErr, len(moved))
	}

	// Every moved session is the same session on the destination.
	var travelled []SessionSnapshot
	for _, snap := range snaps {
		travelled = append(travelled, snap.Sessions...)
	}
	if len(travelled) != len(moved) {
		t.Fatalf("snapshots carry %d sessions, want %d (stopped ones omitted)", len(travelled), len(moved))
	}
	// A browned-out farm suspends span sampling, so only the others
	// record the restored session's packet.
	sampling := row.dest != "brownout"
	for _, ss := range travelled {
		if !slices.Contains(moved, ss.ID) {
			t.Fatalf("snapshot carries session %s, which should not move", ss.ID)
		}
		want, b := src[ss.ID].Config(), before[ss.ID]
		if ss.TraceRef != want.TraceRef || ss.Running != b.running {
			t.Fatalf("snapshot trace %q running %v, want %q %v", ss.TraceRef, ss.Running, want.TraceRef, b.running)
		}
		if ss.Cursor < b.cursor || ss.Draws != b.draws {
			t.Fatalf("snapshot positions %d/%d, want cursor ≥ %d and draws %d", ss.Cursor, ss.Draws, b.cursor, b.draws)
		}
		s2, ok := m2.Get(ss.ID)
		if !ok {
			t.Fatalf("session %s not restored under its ID", ss.ID)
		}
		got := s2.Config()
		if got.TraceRef != want.TraceRef || got.Name != want.Name || got.Seed != want.Seed ||
			got.Loop != want.Loop || got.Tick != want.Tick {
			t.Fatalf("restored config %+v, want %+v", got, want)
		}
		if got.SkipTuples != ss.Cursor || got.SkipDraws != ss.Draws {
			t.Fatalf("restored positions %d/%d, want %d/%d", got.SkipTuples, got.SkipDraws, ss.Cursor, ss.Draws)
		}
		if s2.RestoreError() != nil {
			t.Fatalf("restored session carries %v", s2.RestoreError())
		}
		if s2.Flight() == nil {
			t.Fatal("restored session on a traced farm has no flight recorder")
		}
		if ss.RelayListen != b.relay || s2.RelayAddr() != b.relay {
			t.Fatalf("relay %q → snapshot %q → restored %q", b.relay, ss.RelayListen, s2.RelayAddr())
		}
		if (s2.State() == StateRunning) != ss.Running {
			t.Fatalf("restored state %v, snapshot running %v", s2.State(), ss.Running)
		}
		if ss.Running {
			// A restored running session keeps working: on a lossless
			// trace it delivers; on a lossy one it may drop instead.
			delivered, dropped := make(chan struct{}), make(chan struct{})
			s2.SubmitWithDrop(simnet.Outbound, 100, func() { close(delivered) }, func() { close(dropped) })
			select {
			case <-delivered:
			case <-dropped:
				if lossless[ss.ID] {
					t.Fatalf("restored session %s dropped a packet on a lossless trace", ss.ID)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("restored session %s never decided a packet", ss.ID)
			}
			if st := s2.Stats(); st.Rejected != 0 || st.Shed != 0 {
				t.Fatalf("restored session %s refused a packet: %+v", ss.ID, st)
			}
			if sampling {
				waitFor(t, "flight span", func() bool { return s2.Flight().Total() >= 1 })
			}
		}
		// Its flight route answers on the destination, as for a session
		// created there.
		var dump FlightDump
		doJSON(t, "GET", srv2.URL+"/v1/sessions/"+ss.ID+"/flight", nil, http.StatusOK, &dump)
		if dump.Session != ss.ID || ss.Running && sampling && len(dump.Spans) == 0 {
			t.Fatalf("flight dump of %s = %+v", ss.ID, dump)
		}
	}
	for _, id := range stopped {
		if _, ok := m2.Get(id); ok {
			t.Fatalf("stopped session %s was restored", id)
		}
	}

	// Admission on the destination: gated farms refuse Create while
	// Restore landed; a plain farm mints no restored ID again.
	fresh, err := m2.Create(SessionConfig{Trace: testTrace()})
	var brownout *BrownoutError
	switch row.dest {
	case "draining":
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("create on a draining farm = %v, want ErrDraining", err)
		}
	case "brownout":
		if !errors.As(err, &brownout) {
			t.Fatalf("create on a browned-out farm = %v, want BrownoutError", err)
		}
	default:
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(moved, fresh.ID) {
			t.Fatalf("fresh session reused restored ID %s", fresh.ID)
		}
	}
}

// roundTripDest configures the destination farm of a round trip: traced,
// on the source's stream WAL directory, and set up to refuse Create.
func roundTripDest(walDir, dest string) Options {
	o := Options{Spans: span.New(span.Config{Sample: 1, Seed: 2}), StreamWALDir: walDir}
	switch dest {
	case "full":
		// Its own session must not share an ID with the one arriving.
		o.MaxSessions, o.SessionIDPrefix = 1, "dst-"
	case "brownout":
		o.Faults = faults.New(faults.Options{})
		o.PressurePeriod = -1
	}
	return o
}

// deleteAll deletes sessions from a farm, freeing their relay ports.
func deleteAll(m *Manager, sessions map[string]*Session) {
	for id := range sessions {
		m.Delete(id)
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
