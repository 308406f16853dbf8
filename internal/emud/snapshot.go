// Crash-safe session snapshots. The farm periodically serializes every
// live session's spec and replay cursor to one JSON file (atomically:
// tmp + rename), and writes a final snapshot at Close before draining.
// After a crash — kill -9, OOM, power loss — `emud -recover` loads the
// file and Restore rebuilds each non-stopped session under its original
// ID, fast-forwarding its trace cursor to where the lost daemon left it
// and best-effort re-attaching relays.
//
// Snapshots are self-contained: traces are embedded (deduplicated by
// ref), so recovery does not depend on the original trace files still
// existing or parsing.
package emud

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tracemod/internal/core"
)

// ErrTraceUnrecoverable marks a restored session whose embedded trace
// could not be brought back — missing from the snapshot's trace table, or
// present but failing validation (a corrupt snapshot, or a snapshot
// damaged between write and recover). The session is parked (created
// stopped, error surfaced in its status) rather than silently skipped, so
// -recover never fails wholesale and the operator sees exactly which
// tenants lost their trace.
var ErrTraceUnrecoverable = errors.New("emud: trace unrecoverable")

// SessionSnapshot is one session's durable state.
type SessionSnapshot struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	TraceRef string `json:"trace_ref"`
	// Stream names the live-ingest stream a live session was attached
	// to. The trace is not embedded — the stream's WAL is the durable
	// source; restore rebinds through the store's live registry (the
	// stream recovery must run first).
	Stream string `json:"stream,omitempty"`
	Loop   bool   `json:"loop"`
	// TickUS mirrors SessionConfig.Tick in microseconds (negative = exact).
	TickUS         int64   `json:"tick_us"`
	Seed           int64   `json:"seed"`
	InboundExtraNS float64 `json:"inbound_extra_ns_per_byte,omitempty"`
	CompensationNS float64 `json:"compensation_ns_per_byte,omitempty"`
	// Running records whether the session should be started on restore.
	Running bool `json:"running"`
	// Cursor is the replay position in tuples consumed since the trace's
	// beginning; restore passes it as SkipTuples.
	Cursor int64 `json:"cursor"`
	// Draws is the session's position in its drop-lottery RNG stream;
	// restore passes it as SkipDraws so a migrated session's drop sequence
	// continues exactly where the source stopped drawing.
	Draws int64 `json:"rng_draws,omitempty"`
	// RelayListen/RelayTarget re-attach the livewire relay on restore
	// (best-effort: the port may be taken by another process).
	RelayListen string `json:"relay_listen,omitempty"`
	RelayTarget string `json:"relay_target,omitempty"`
}

// FarmSnapshot is the whole farm's durable state.
type FarmSnapshot struct {
	TakenUnixNano int64 `json:"taken_unix_nano"`
	// Seq preserves the ID counter so post-recovery creates don't collide
	// with restored IDs.
	Seq int64 `json:"seq"`
	// Traces embeds every referenced trace, deduplicated by ref.
	Traces   map[string][]TupleJSON `json:"traces"`
	Sessions []SessionSnapshot      `json:"sessions"`
}

func tupleToJSON(t core.Tuple) TupleJSON {
	return TupleJSON{
		DurationSec: t.D.Seconds(),
		LatencyMS:   float64(t.F) / float64(time.Millisecond),
		VbNSPerByte: float64(t.Vb),
		VrNSPerByte: float64(t.Vr),
		Loss:        t.L,
	}
}

func tupleFromJSON(t TupleJSON) core.Tuple {
	return core.Tuple{
		D: time.Duration(t.DurationSec * float64(time.Second)),
		DelayParams: core.DelayParams{
			F:  time.Duration(t.LatencyMS * float64(time.Millisecond)),
			Vb: core.PerByte(t.VbNSPerByte),
			Vr: core.PerByte(t.VrNSPerByte),
		},
		L: t.Loss,
	}
}

// snapshot is the session's durable state: everything Restore needs to
// rebuild it under the same ID at the same replay and lottery position.
// It is the one place a SessionSnapshot is assembled.
func (s *Session) snapshot() SessionSnapshot {
	cfg := s.cfg
	listen, target := s.RelaySpecArgs()
	ss := SessionSnapshot{
		ID:             s.ID,
		Name:           cfg.Name,
		TraceRef:       cfg.TraceRef,
		Loop:           cfg.Loop,
		TickUS:         cfg.Tick.Microseconds(),
		Seed:           cfg.Seed,
		InboundExtraNS: float64(cfg.InboundExtra),
		CompensationNS: float64(cfg.Compensation),
		Running:        s.State() == StateRunning,
		Cursor:         s.Cursor(),
		Draws:          s.LotteryDraws(),
		RelayListen:    listen,
		RelayTarget:    target,
	}
	if name, ok := strings.CutPrefix(cfg.TraceRef, "stream:"); ok && cfg.Live != nil {
		// A live session's trace is not embedded: the stream's WAL is the
		// durable copy, and restore rebinds through the recovered stream.
		// A parked trace session is live too, on an empty sealed trace,
		// but keeps its own ref so it parks with the same error again.
		ss.Stream = name
	}
	return ss
}

func newFarmSnapshot(seq int64) *FarmSnapshot {
	return &FarmSnapshot{
		TakenUnixNano: time.Now().UnixNano(),
		Seq:           seq,
		Traces:        map[string][]TupleJSON{},
	}
}

// add appends one session's state, embedding the session's trace the
// first time its ref appears (a live session's trace is never embedded).
func (f *FarmSnapshot) add(s *Session, ss SessionSnapshot) {
	f.Sessions = append(f.Sessions, ss)
	if _, ok := f.Traces[ss.TraceRef]; ok || s.cfg.Live != nil {
		return
	}
	tuples := make([]TupleJSON, len(s.cfg.Trace))
	for i, t := range s.cfg.Trace {
		tuples[i] = tupleToJSON(t)
	}
	f.Traces[ss.TraceRef] = tuples
}

// sessionList returns every session in the farm, in no order.
func (m *Manager) sessionList() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	return out
}

// Snapshot captures the farm's current durable state. Stopped sessions
// are omitted — they have nothing to recover.
func (m *Manager) Snapshot() *FarmSnapshot { return m.snapshotOf(m.sessionList()) }

// snapshotOf reads the ID counter after the caller listed the sessions,
// so it covers every listed ID.
func (m *Manager) snapshotOf(sessions []*Session) *FarmSnapshot {
	m.mu.Lock()
	snap := newFarmSnapshot(m.seq)
	m.mu.Unlock()
	for _, s := range sessions {
		if st := s.State(); st != StateStopped && st != StateDraining {
			snap.add(s, s.snapshot())
		}
	}
	return snap
}

// WriteSnapshot writes the farm's snapshot to Options.SnapshotPath
// atomically (tmp file + rename), so a crash mid-write leaves the
// previous snapshot intact. Concurrent writers are serialised: each
// publishes a whole snapshot.
func (m *Manager) WriteSnapshot() error { return m.writeSnapshotOf(m.sessionList()) }

// writeSnapshotOf serializes the given sessions (Close passes the list
// it already pulled out of the map before clearing it). It holds snapMu
// from the temp file's creation to the directory sync: a second writer
// would otherwise truncate the temp file under the first one's rename,
// publishing a partial snapshot, or find it already renamed away.
func (m *Manager) writeSnapshotOf(sessions []*Session) error {
	if m.opts.SnapshotPath == "" {
		return fmt.Errorf("emud: no snapshot path configured")
	}
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	snap := m.snapshotOf(sessions)
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("emud: marshaling snapshot: %w", err)
	}
	tmp := m.opts.SnapshotPath + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return fmt.Errorf("emud: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, m.opts.SnapshotPath); err != nil {
		return fmt.Errorf("emud: publishing snapshot: %w", err)
	}
	// The rename published the snapshot in memory, but the directory entry
	// itself is not durable until the directory is synced — a crash right
	// here could resurrect the previous snapshot (or the tmp name) on some
	// filesystems.
	if err := fsyncDir(filepath.Dir(m.opts.SnapshotPath)); err != nil {
		return fmt.Errorf("emud: syncing snapshot directory: %w", err)
	}
	m.ins.incSnapshots()
	return nil
}

// writeFileSync writes data and fsyncs the file before closing, so the
// rename that follows never publishes a name whose bytes are still only
// in the page cache.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fsyncDir flushes a directory's entry table, making a just-renamed or
// just-created name durable.
func fsyncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshotLoop writes a snapshot every SnapshotInterval until Close
// stops it, ahead of Close's own final write.
func (m *Manager) snapshotLoop() {
	defer close(m.snapDone)
	tick := time.NewTicker(m.opts.SnapshotInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_ = m.WriteSnapshot()
		case <-m.snapStop:
			return
		}
	}
}

// LoadSnapshot reads a snapshot file written by WriteSnapshot.
func LoadSnapshot(path string) (*FarmSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap FarmSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("emud: parsing snapshot %s: %w", path, err)
	}
	return &snap, nil
}

// Restore rebuilds every snapshotted session in this (fresh) farm under
// its original ID: running sessions are restarted with their replay
// cursor fast-forwarded to the snapshot position, and relays re-attach
// best-effort. Sessions register through the same step as Create, minus
// its draining and brownout gates. It returns the number of sessions
// restored: a session whose stream or trace did not survive is parked
// and counted, one the farm refuses (a duplicate ID, the session limit)
// is skipped, and neither aborts the rest.
func (m *Manager) Restore(snap *FarmSnapshot) (int, error) {
	if snap == nil {
		return 0, fmt.Errorf("emud: nil snapshot")
	}
	traces := make(map[string]core.Trace, len(snap.Traces))
	for ref, tuples := range snap.Traces {
		tr := make(core.Trace, len(tuples))
		for i, t := range tuples {
			tr[i] = tupleFromJSON(t)
		}
		traces[ref] = tr
	}
	restored := 0
	var firstErr error
	for _, ss := range snap.Sessions {
		cfg := SessionConfig{
			Name:         ss.Name,
			TraceRef:     ss.TraceRef,
			Loop:         ss.Loop,
			Tick:         time.Duration(ss.TickUS) * time.Microsecond,
			Seed:         ss.Seed,
			InboundExtra: core.PerByte(ss.InboundExtraNS),
			Compensation: core.PerByte(ss.CompensationNS),
			SkipTuples:   ss.Cursor,
			SkipDraws:    ss.Draws,
		}
		// lost is what the move could not bring back: a stream that did
		// not survive (WAL off, deleted, unreadable), or an embedded trace
		// that is missing or fails validation.
		var lost error
		if ss.Stream != "" {
			if lt, ok := m.store.LookupLive(ss.Stream); ok {
				cfg.Live = lt
			} else {
				lost = fmt.Errorf("%w: %q", ErrStreamGone, ss.Stream)
			}
		} else if trace, ok := traces[ss.TraceRef]; !ok {
			lost = fmt.Errorf("%w: trace %q missing from snapshot", ErrTraceUnrecoverable, ss.TraceRef)
		} else if err := trace.Validate(); err != nil {
			lost = fmt.Errorf("%w: trace %q: %v", ErrTraceUnrecoverable, ss.TraceRef, err)
		} else {
			if !ss.Loop && cfg.SkipTuples > int64(len(trace)) {
				cfg.SkipTuples = int64(len(trace))
			}
			cfg.Trace = trace
		}
		if lost != nil {
			// Park the session: it is still restored — stopped, bound to an
			// empty sealed trace, with the typed loss in its status — so
			// the operator sees exactly which tenants lost their trace, and
			// recovery never fails wholesale over one damaged tenant.
			gone := NewLiveTrace()
			gone.Complete(lost)
			cfg.Live = gone
			if firstErr == nil {
				firstErr = fmt.Errorf("emud: session %s: %w", ss.ID, lost)
			}
		}
		s, err := m.register(ss.ID, cfg, lost)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ss.Running && lost == nil {
			if err := s.Start(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if ss.RelayListen != "" {
				// Best-effort: the listen port may now belong to someone else.
				_, _ = s.AttachRelay(ss.RelayListen, ss.RelayTarget)
			}
		}
		restored++
		m.ins.incRecovered()
	}
	m.mu.Lock()
	if snap.Seq > m.seq {
		m.seq = snap.Seq
	}
	m.mu.Unlock()
	return restored, firstErr
}

// Handoff quiesces one session and extracts it as a single-session
// snapshot for live migration: the session drains (new packets refused,
// in-flight deliveries complete, engine stopped), its replay cursor and
// drop-lottery draw count are captured frozen, and it is deleted from
// this farm. Restoring the returned snapshot elsewhere resumes the
// session under the same ID with byte-identical modulation decisions:
// the cursor pins the tuple in force and the draw count pins the lottery
// stream's position, so the packets the destination delivers and drops
// are exactly the packets an unmigrated run would have.
//
// Live (stream-fed) sessions refuse to hand off — their trace source is
// an in-flight upload that cannot move with them; the caller leaves them
// or lets failover park them with ErrStreamGone.
func (m *Manager) Handoff(id string, drainTimeout time.Duration) (*FarmSnapshot, error) {
	s, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSession, id)
	}
	if s.cfg.Live != nil {
		return nil, fmt.Errorf("emud: session %s: %w: live sessions cannot hand off", id, ErrStreamGone)
	}
	if drainTimeout <= 0 {
		drainTimeout = m.opts.DrainTimeout
	}
	// Read the state before the drain, which detaches the relay and ends
	// the running state; the positions are read after it, frozen.
	ss := s.snapshot()
	s.Drain(drainTimeout)
	ss.Cursor, ss.Draws = s.Cursor(), s.LotteryDraws()
	snap := newFarmSnapshot(0)
	snap.add(s, ss)
	m.Delete(id)
	m.log.Info("session handed off", "session", id, "cursor", ss.Cursor, "draws", ss.Draws)
	return snap, nil
}

// Recover loads the snapshot at path and restores it into this farm.
// A missing file is not an error (first boot): it returns (0, nil).
func (m *Manager) Recover(path string) (int, error) {
	snap, err := LoadSnapshot(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	return m.Restore(snap)
}
