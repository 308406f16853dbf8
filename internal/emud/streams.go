// Live ingest: the collect→emulate pipeline with the file removed. A
// Stream glues the salvaging tracefmt.StreamReader to the streaming
// distiller (internal/distill/stream) and pours the emitted tuples into
// a LiveTrace registered with the farm's store — so a session can start
// modulating against a collection the moment its first window freezes,
// while the upload is still in flight. Distillation lag stays bounded
// (Window/2 + Settle + Step behind the packet watermark) and observable:
// the distiller's lag histogram backs the "stream-distill-lag-p99"
// objective on /v1/slo.
//
// With a WAL directory configured the pipeline is also durable: every
// accepted chunk is appended to a per-stream write-ahead log before it
// reaches the reader, so a crashed daemon replays the durable prefix on
// -recover and the uploader resumes from the committed offset instead
// of starting over. Uploads carry a stream token and an offset, making
// retries idempotent: a duplicated chunk is discarded, a gap is refused
// with the committed offset so the client can rewind.
package emud

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tracemod/internal/distill"
	"tracemod/internal/distill/stream"
	"tracemod/internal/emud/pressure"
	"tracemod/internal/emud/wal"
	"tracemod/internal/faults"
	"tracemod/internal/obs"
	"tracemod/internal/tracefmt"
)

// StreamState is a stream's lifecycle position.
type StreamState string

// Stream states.
const (
	StreamReceiving StreamState = "receiving" // upload in flight, tuples growing
	StreamComplete  StreamState = "complete"  // upload finished, trace sealed
	StreamFailed    StreamState = "failed"    // ingest error; trace sealed early
)

// Per-stream metadata files inside the WAL directory.
const (
	streamConfigFile = "config.json"
	streamSealedFile = "sealed.json"
)

// ErrStreamGone marks a recovered session whose live stream did not
// survive the crash: the WAL was disabled, deleted, or unreadable. The
// session is restored stopped with this error in its status so the
// operator sees exactly what was lost.
var ErrStreamGone = errors.New("emud: stream gone")

// ErrStreamExists marks a stream create whose name is already taken.
// Mapped to HTTP 409.
var ErrStreamExists = errors.New("emud: stream already exists")

// BrownoutError is the typed refusal the brownout controller issues for
// new work while the farm sheds load. The control plane maps it to
// HTTP 429 with a Retry-After header.
type BrownoutError struct {
	Level      pressure.Level
	RetryAfter time.Duration
}

func (e *BrownoutError) Error() string {
	return fmt.Sprintf("emud: shedding load (%s): retry after %s", e.Level, e.RetryAfter)
}

// OffsetError is the typed refusal for a resumed upload whose offset
// does not meet the committed prefix: the client must re-query the
// offset and rewind. Mapped to HTTP 409.
type OffsetError struct {
	Name      string
	Committed int64 // bytes durably accepted so far
	Attempted int64 // offset the client tried to write at
}

func (e *OffsetError) Error() string {
	return fmt.Sprintf("emud: stream %q offset mismatch: committed %d, upload resumed at %d",
		e.Name, e.Committed, e.Attempted)
}

// QuotaError is the typed refusal for a chunk that would push a stream
// past its byte quota. The stream fails — it can never complete within
// budget. Mapped to HTTP 413.
type QuotaError struct {
	Name      string
	Quota     int64
	Attempted int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("emud: stream %q quota exceeded: %d bytes over the %d-byte budget",
		e.Name, e.Attempted-e.Quota, e.Quota)
}

// StreamConfig parameterizes one live-ingest stream.
type StreamConfig struct {
	// Name identifies the stream; sessions attach via trace ref
	// "stream:" + Name. Names must be path-safe: letters, digits,
	// dots, underscores, dashes; no leading dot; at most 128 bytes.
	Name string
	// Window, Step, Settle tune the streaming distiller (package
	// defaults when zero: 5s window, 1s step, settle = window).
	Window, Step, Settle time.Duration
	// Strict refuses damaged input outright: no salvage resync in the
	// reader, and any record the sanitizer would touch fails the stream.
	Strict bool
	// Resumable keeps the stream receiving when an upload connection
	// ends without an explicit completion, so the client can resume
	// from the committed offset.
	Resumable bool
}

// streamConfigJSON is the durable stream spec written next to the WAL,
// so recovery rebuilds the exact pipeline (same distiller geometry,
// same salvage stance) before replaying bytes into it.
type streamConfigJSON struct {
	Name      string `json:"name"`
	WindowNS  int64  `json:"window_ns,omitempty"`
	StepNS    int64  `json:"step_ns,omitempty"`
	SettleNS  int64  `json:"settle_ns,omitempty"`
	Strict    bool   `json:"strict,omitempty"`
	Resumable bool   `json:"resumable,omitempty"`
	Token     string `json:"token"`
}

// streamSealJSON marks a sealed stream on disk: recovery re-seals the
// rebuilt stream instead of reopening the upload.
type streamSealJSON struct {
	State StreamState `json:"state"`
	Error string      `json:"error,omitempty"`
}

// Stream is one live collect→emulate pipeline instance. Writes are
// serialized by the mutex; the HTTP handler owning the upload is the
// only producer.
type Stream struct {
	Name    string
	cfg     StreamConfig
	live    *LiveTrace
	created time.Duration        // wheel time at creation
	token   string               // upload fencing token
	dir     string               // per-stream WAL dir ("" = durability off)
	now     func() time.Duration // wheel clock (nil in bare tests)

	mu        sync.Mutex
	r         *tracefmt.StreamReader
	d         *stream.Distiller
	wal       *wal.Log // nil when durability is off
	state     StreamState
	err       error
	bytes     int64 // committed upload offset
	records   int64
	quota     int64         // max upload bytes (0 = unlimited)
	lastWrite time.Duration // wheel time of the last accepted chunk
	uploading bool          // one upload connection at a time
	summary   *stream.Summary
	report    *tracefmt.ReadReport
}

// StreamInfo is the wire representation of a stream.
type StreamInfo struct {
	Name    string `json:"name"`
	State   string `json:"state"`
	Bytes   int64  `json:"bytes"`
	Records int64  `json:"records"`
	// Token fences resumed uploads: PATCH must present it.
	Token string `json:"token,omitempty"`
	// Durable is the upload prefix guaranteed to survive a crash (equals
	// Bytes when no WAL is configured — nothing survives, but the
	// committed offset is still the resume point within this process).
	Durable   int64 `json:"durable"`
	Resumable bool  `json:"resumable,omitempty"`
	// Tuples and DurationSec describe the growing replay trace.
	Tuples      int     `json:"tuples"`
	DurationSec float64 `json:"duration_sec"`
	// LagSec is the distillation lag: how far tuple emission trails the
	// packet watermark.
	LagSec float64 `json:"lag_sec"`
	// Damaged counts corrupt regions the salvaging reader resynced past.
	Damaged int64  `json:"damaged,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Live returns the stream's growing replay trace.
func (st *Stream) Live() *LiveTrace { return st.live }

// Token returns the stream's upload fencing token.
func (st *Stream) Token() string { return st.token }

// Resumable reports whether the stream survives upload disconnects.
func (st *Stream) Resumable() bool { return st.cfg.Resumable }

// State returns the stream's current lifecycle state.
func (st *Stream) State() StreamState {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.state
}

// Err returns the ingest error of a failed stream.
func (st *Stream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Offset returns the committed upload offset: the next byte a resumed
// upload must supply.
func (st *Stream) Offset() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes
}

// Durable returns the upload prefix guaranteed to survive a crash.
func (st *Stream) Durable() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.durableLocked()
}

func (st *Stream) durableLocked() int64 {
	if st.wal != nil {
		return st.wal.Durable()
	}
	return st.bytes
}

// Summary returns the completed stream's distillation diagnostics (nil
// until StreamComplete).
func (st *Stream) Summary() *stream.Summary {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.summary
}

// Info snapshots the stream for the control plane.
func (st *Stream) Info() StreamInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	info := StreamInfo{
		Name:        st.Name,
		State:       string(st.state),
		Bytes:       st.bytes,
		Records:     st.records,
		Token:       st.token,
		Durable:     st.durableLocked(),
		Resumable:   st.cfg.Resumable,
		Tuples:      st.live.Len(),
		DurationSec: st.live.Duration().Seconds(),
		LagSec:      st.d.Lag().Seconds(),
	}
	if st.report != nil {
		info.Damaged = int64(st.report.Damaged)
	} else {
		info.Damaged = int64(st.r.Report().Damaged)
	}
	if st.err != nil {
		info.Error = st.err.Error()
	}
	return info
}

// pinned approximates the memory this stream pins outside the GC's
// discretion: the reader's undecoded tail plus the resident tuples.
func (st *Stream) pinned() int64 {
	st.mu.Lock()
	buffered := int64(st.r.Buffered())
	st.mu.Unlock()
	return buffered + st.live.MemBytes()
}

// Write feeds one chunk of the collected-trace upload at the committed
// offset. Any error fails the stream permanently and seals the live
// trace so attached sessions stop waiting.
func (st *Stream) Write(p []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.writeLocked(p)
}

// WriteAt feeds one chunk at an explicit upload offset — the resume
// path. An offset inside the committed prefix is a retransmit: the
// overlap is discarded and only the novel suffix ingested (idempotent
// retries). An offset past the committed prefix is a gap the server
// never saw: refused with a typed OffsetError carrying the committed
// offset so the client rewinds.
func (st *Stream) WriteAt(off int64, p []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if off > st.bytes {
		return &OffsetError{Name: st.Name, Committed: st.bytes, Attempted: off}
	}
	if skip := st.bytes - off; skip > 0 {
		if skip >= int64(len(p)) {
			return nil // wholly duplicate chunk: already committed
		}
		p = p[skip:]
	}
	return st.writeLocked(p)
}

func (st *Stream) writeLocked(p []byte) error {
	if st.state != StreamReceiving {
		return fmt.Errorf("emud: stream %q is %s", st.Name, st.state)
	}
	if len(p) == 0 {
		return nil
	}
	if st.quota > 0 && st.bytes+int64(len(p)) > st.quota {
		return st.failLocked(&QuotaError{Name: st.Name, Quota: st.quota, Attempted: st.bytes + int64(len(p))})
	}
	// Durability before interpretation: once Append returns, a crash
	// replays this chunk. An ingest error after that is deterministic —
	// the replay fails the stream the same way this call does.
	if err := st.wal.Append(p); err != nil {
		return st.failLocked(fmt.Errorf("emud: stream %q wal append: %w", st.Name, err))
	}
	if st.now != nil {
		st.lastWrite = st.now()
	}
	return st.ingestLocked(p)
}

// ingestLocked advances the committed offset and runs the chunk through
// the reader and distiller. Shared by live writes and WAL replay (which
// must not re-append).
func (st *Stream) ingestLocked(p []byte) error {
	st.bytes += int64(len(p))
	if err := st.r.Feed(p); err != nil {
		return st.failLocked(err)
	}
	recs, rerr := st.r.ReadAvailable()
	// Records decoded before a sticky strict error still count — same
	// stance as the batch reader, which hands records out up to the
	// point of damage.
	for _, rec := range recs {
		if err := st.d.Ingest(rec); err != nil {
			return st.failLocked(err)
		}
	}
	st.records += int64(len(recs))
	if rerr != nil {
		return st.failLocked(rerr)
	}
	return nil
}

// Finish marks the upload complete: the reader's held-back tail is
// flushed, every remaining window freezes, and the live trace is
// sealed. The summary mirrors what the batch distiller would have
// produced from the same bytes.
func (st *Stream) Finish() (*stream.Summary, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.finishLocked()
}

func (st *Stream) finishLocked() (*stream.Summary, error) {
	if st.state != StreamReceiving {
		return nil, fmt.Errorf("emud: stream %q is %s", st.Name, st.state)
	}
	recs, rep, err := st.r.Finish()
	st.report = rep
	for _, rec := range recs {
		if ierr := st.d.Ingest(rec); ierr != nil {
			return nil, st.failLocked(ierr)
		}
	}
	st.records += int64(len(recs))
	if err != nil {
		return nil, st.failLocked(err)
	}
	sum, cerr := st.d.Close()
	if cerr != nil {
		return nil, st.failLocked(cerr)
	}
	st.summary = sum
	st.state = StreamComplete
	st.live.Complete(nil)
	st.sealLocked()
	return sum, nil
}

// failLocked seals a broken stream. Returns the error for convenience.
func (st *Stream) failLocked(err error) error {
	st.state = StreamFailed
	st.err = err
	st.live.Complete(err)
	st.sealLocked()
	return err
}

// sealLocked makes the terminal state durable: the WAL is synced and
// closed (no more appends can come), and the sealed marker written so
// recovery re-seals the stream instead of reopening the upload.
func (st *Stream) sealLocked() {
	_ = st.wal.Close()
	if st.dir == "" {
		return
	}
	seal := streamSealJSON{State: st.state}
	if st.err != nil {
		seal.Error = st.err.Error()
	}
	data, err := json.Marshal(seal)
	if err != nil {
		return
	}
	tmp := filepath.Join(st.dir, streamSealedFile+".tmp")
	if os.WriteFile(tmp, data, 0o644) == nil {
		_ = os.Rename(tmp, filepath.Join(st.dir, streamSealedFile))
	}
}

// abort fails a receiving stream from outside the upload path (DELETE
// while in flight). No-op on sealed streams.
func (st *Stream) abort(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.state == StreamReceiving {
		_ = st.failLocked(err)
	}
}

// acquireUpload claims the stream's single upload slot. Two concurrent
// uploads to one stream would interleave arbitrarily; the second is
// refused instead (HTTP 409).
func (st *Stream) acquireUpload() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.uploading {
		return fmt.Errorf("emud: stream %q already has an upload in flight", st.Name)
	}
	st.uploading = true
	return nil
}

func (st *Stream) releaseUpload() {
	st.mu.Lock()
	st.uploading = false
	st.mu.Unlock()
}

// reapIfIdle seals the stream when no chunk has been accepted within
// timeout: the windows freeze on what arrived, attached sessions see a
// complete trace, and the pinned reader tail stops growing. Returns
// true when this call sealed the stream.
func (st *Stream) reapIfIdle(now, timeout time.Duration) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.state != StreamReceiving || now-st.lastWrite <= timeout {
		return false
	}
	// Finish salvages what arrived; a strict-mode torn tail fails the
	// stream instead. Sealed either way.
	_, _ = st.finishLocked()
	return true
}

// validStreamName enforces path-safe stream names: the name becomes a
// WAL directory and a spill filename.
func validStreamName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// newStreamToken mints an upload fencing token.
func newStreamToken() string {
	var b [16]byte
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// Streams is the farm's live-ingest registry.
type Streams struct {
	m *Manager

	walDir      string
	walSync     wal.SyncPolicy
	walSegBytes int64
	idleTimeout time.Duration
	quota       int64
	spillDir    string

	reapPoint     *faults.Point
	reaps, spills *obs.Counter

	mu      sync.Mutex
	streams map[string]*Stream

	quit chan struct{}
	wg   sync.WaitGroup
}

// newStreams wires the registry, its gauge, and the distillation-lag
// objective into the farm.
func newStreams(m *Manager) *Streams {
	o := m.opts
	ss := &Streams{
		m:           m,
		walDir:      o.StreamWALDir,
		walSync:     o.StreamWALSync,
		walSegBytes: o.StreamWALSegmentBytes,
		idleTimeout: o.StreamIdleTimeout,
		quota:       o.StreamQuotaBytes,
		spillDir:    o.SpillDir,
		streams:     map[string]*Stream{},
		quit:        make(chan struct{}),
	}
	if ss.spillDir != "" {
		_ = os.MkdirAll(ss.spillDir, 0o755)
	}
	ss.reapPoint = o.Faults.Point("stream.reap")
	if reg := o.Metrics; reg != nil {
		reg.GaugeFunc("tracemod_stream_live_streams",
			"Live-ingest streams currently receiving.",
			func() float64 {
				ss.mu.Lock()
				defer ss.mu.Unlock()
				n := 0
				for _, st := range ss.streams {
					if st.State() == StreamReceiving {
						n++
					}
				}
				return float64(n)
			})
		ss.reaps = reg.Counter("tracemod_stream_reaped_total",
			"Idle live-ingest streams sealed by the reaper.")
		ss.spills = reg.Counter("tracemod_stream_spills_total",
			"Sealed live traces spilled to disk under memory pressure.")
		// The lag histogram is shared with every Distiller this farm
		// creates (the registry dedups by name). The threshold is the
		// analytical bound for the default geometry — Window/2 + Settle +
		// Step = 8.5s — plus one step of slack for watermark jitter at
		// the moment of observation.
		dc := distill.DefaultConfig()
		lag := reg.Histogram("tracemod_stream_distill_lag",
			"Distillation lag: packet watermark minus emitted window center, at emission.",
			stream.LagBounds())
		m.slos.Add(&obs.SLO{
			Name:      "stream-distill-lag-p99",
			Help:      "99th-percentile distillation lag of live-ingest streams must stay within the freeze bound.",
			Kind:      obs.SLOQuantile,
			Hist:      lag,
			Quantile:  0.99,
			Threshold: dc.Window/2 + dc.Window + 2*dc.Step,
		})
	}
	if ss.idleTimeout > 0 {
		ss.wg.Add(1)
		go ss.reapLoop()
	}
	return ss
}

// Close stops the reaper and flushes every stream's WAL. Receiving
// streams stay receiving on disk: a restart with -recover resumes them.
func (ss *Streams) Close() {
	select {
	case <-ss.quit:
	default:
		close(ss.quit)
	}
	ss.wg.Wait()
	for _, st := range ss.List() {
		st.mu.Lock()
		_ = st.wal.Close()
		st.mu.Unlock()
	}
}

// PinnedBytes sums the memory pinned by live ingest across every
// stream — the brownout controller's second watermark.
func (ss *Streams) PinnedBytes() int64 {
	var sum int64
	for _, st := range ss.List() {
		sum += st.pinned()
	}
	return sum
}

// SpillSealed writes every sealed, resident live trace to the spill
// directory and drops the in-memory tuples — the brownout ladder's
// third rung. No-op without a spill directory.
func (ss *Streams) SpillSealed() {
	if ss.spillDir == "" {
		return
	}
	for _, st := range ss.List() {
		if st.State() == StreamReceiving || st.live.Spilled() || st.live.MemBytes() == 0 {
			continue
		}
		path := filepath.Join(ss.spillDir, st.Name+".tuples")
		if err := st.live.Spill(path); err != nil {
			ss.m.log.Warn("live trace spill failed", "stream", st.Name, "err", err)
			continue
		}
		ss.spills.Inc()
		ss.m.log.Info("live trace spilled", "stream", st.Name, "path", path)
	}
}

func (ss *Streams) reapLoop() {
	defer ss.wg.Done()
	period := ss.idleTimeout / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			ss.reapIdle()
		case <-ss.quit:
			return
		}
	}
}

func (ss *Streams) reapIdle() {
	now := ss.m.wheel.Now()
	for _, st := range ss.List() {
		if st.reapIfIdle(now, ss.idleTimeout) {
			ss.reaps.Inc()
			ss.reapPoint.Mark()
			ss.m.log.Warn("idle stream sealed by reaper", "stream", st.Name,
				"bytes", st.Offset(), "state", string(st.State()))
		}
	}
}

// Create registers a new receiving stream and exposes its growing trace
// through the store, so sessions can attach before the upload finishes.
// While the brownout ladder is at reject-streams or deeper, creation is
// refused with a typed BrownoutError (HTTP 429 + Retry-After).
func (ss *Streams) Create(cfg StreamConfig) (*Stream, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("emud: stream name is required")
	}
	if !validStreamName(cfg.Name) {
		return nil, fmt.Errorf("emud: invalid stream name %q (want [A-Za-z0-9._-], no leading dot, ≤128 bytes)", cfg.Name)
	}
	if lvl := ss.m.pressure.Level(); lvl >= pressure.RejectStreams {
		return nil, &BrownoutError{Level: lvl, RetryAfter: ss.m.pressure.RetryAfter()}
	}
	if ss.walDir != "" {
		// A fresh create supersedes any WAL a previous, unrecovered life
		// of this name left behind.
		_ = os.RemoveAll(filepath.Join(ss.walDir, cfg.Name))
	}
	st, err := ss.newStream(cfg, newStreamToken())
	if err != nil {
		return nil, err
	}
	if st.dir != "" {
		l, werr := wal.Open(wal.Options{
			Dir:          st.dir,
			SegmentBytes: ss.walSegBytes,
			Sync:         ss.walSync,
		}, func([]byte) error { return nil })
		if werr != nil {
			return nil, fmt.Errorf("emud: opening stream wal: %w", werr)
		}
		st.wal = l
	}
	if err := ss.register(st); err != nil {
		st.mu.Lock()
		_ = st.wal.Close()
		st.mu.Unlock()
		if st.dir != "" {
			_ = os.RemoveAll(st.dir)
		}
		return nil, err
	}
	ss.m.log.Debug("stream created", "stream", cfg.Name, "durable", st.dir != "")
	return st, nil
}

// newStream builds the pipeline instance (and, with a WAL root, its
// directory and durable config) without registering it.
func (ss *Streams) newStream(cfg StreamConfig, token string) (*Stream, error) {
	st := &Stream{
		Name:      cfg.Name,
		cfg:       cfg,
		live:      NewLiveTrace(),
		created:   ss.m.wheel.Now(),
		token:     token,
		now:       ss.m.wheel.Now,
		lastWrite: ss.m.wheel.Now(),
		quota:     ss.quota,
		state:     StreamReceiving,
		r:         tracefmt.NewStreamReader(tracefmt.StreamOptions{Salvage: !cfg.Strict}),
	}
	st.d = stream.New(stream.Config{
		Window:  cfg.Window,
		Step:    cfg.Step,
		Settle:  cfg.Settle,
		Strict:  cfg.Strict,
		OnTuple: st.live.Append,
		Metrics: ss.m.opts.Metrics,
	})
	if ss.walDir != "" {
		st.dir = filepath.Join(ss.walDir, cfg.Name)
		if err := os.MkdirAll(st.dir, 0o755); err != nil {
			return nil, fmt.Errorf("emud: creating stream wal dir: %w", err)
		}
		cj := streamConfigJSON{
			Name:      cfg.Name,
			WindowNS:  int64(cfg.Window),
			StepNS:    int64(cfg.Step),
			SettleNS:  int64(cfg.Settle),
			Strict:    cfg.Strict,
			Resumable: cfg.Resumable,
			Token:     token,
		}
		data, err := json.Marshal(cj)
		if err != nil {
			return nil, err
		}
		tmp := filepath.Join(st.dir, streamConfigFile+".tmp")
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return nil, fmt.Errorf("emud: writing stream config: %w", err)
		}
		if err := os.Rename(tmp, filepath.Join(st.dir, streamConfigFile)); err != nil {
			return nil, fmt.Errorf("emud: publishing stream config: %w", err)
		}
	}
	return st, nil
}

// register inserts the stream into the registry and the store.
func (ss *Streams) register(st *Stream) error {
	ss.mu.Lock()
	if _, dup := ss.streams[st.Name]; dup {
		ss.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrStreamExists, st.Name)
	}
	ss.streams[st.Name] = st
	ss.mu.Unlock()
	if err := ss.m.store.RegisterLive(st.Name, st.live); err != nil {
		ss.mu.Lock()
		delete(ss.streams, st.Name)
		ss.mu.Unlock()
		return err
	}
	return nil
}

// Recover scans the WAL root and rebuilds every stream found there:
// the durable chunk prefix replays through a fresh reader+distiller
// pipeline (bit-identical tuples up to the durable offset), sealed
// streams re-seal, receiving streams reopen at the committed offset for
// the uploader to resume. Call before session Restore so "stream:"
// trace refs resolve. Per-stream failures skip that stream; the first
// is returned alongside the count recovered.
func (ss *Streams) Recover() (int, error) {
	if ss.walDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(ss.walDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	recovered := 0
	var firstErr error
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if err := ss.recoverOne(e.Name()); err != nil {
			ss.m.log.Warn("stream recovery failed", "stream", e.Name(), "err", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("emud: recovering stream %q: %w", e.Name(), err)
			}
			continue
		}
		recovered++
	}
	return recovered, firstErr
}

func (ss *Streams) recoverOne(name string) error {
	dir := filepath.Join(ss.walDir, name)
	data, err := os.ReadFile(filepath.Join(dir, streamConfigFile))
	if err != nil {
		return err
	}
	var cj streamConfigJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return fmt.Errorf("parsing %s: %w", streamConfigFile, err)
	}
	if cj.Name != name {
		return fmt.Errorf("config names %q, directory is %q", cj.Name, name)
	}
	st, err := ss.newStream(StreamConfig{
		Name:      cj.Name,
		Window:    time.Duration(cj.WindowNS),
		Step:      time.Duration(cj.StepNS),
		Settle:    time.Duration(cj.SettleNS),
		Strict:    cj.Strict,
		Resumable: cj.Resumable,
	}, cj.Token)
	if err != nil {
		return err
	}
	// Replay the durable prefix through the same ingest path live
	// writes take, minus the WAL append. An ingest failure mid-replay
	// reproduces the original run's failure and seals the stream; the
	// remaining frames (there are none — writes stop at failure) are
	// skipped rather than aborting the WAL open.
	l, err := wal.Open(wal.Options{
		Dir:          dir,
		SegmentBytes: ss.walSegBytes,
		Sync:         ss.walSync,
	}, func(p []byte) error {
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.state != StreamReceiving {
			return nil
		}
		_ = st.ingestLocked(p)
		return nil
	})
	if err != nil {
		return err
	}
	st.mu.Lock()
	st.wal = l
	st.mu.Unlock()
	// A sealed marker means the original stream ended before the crash:
	// re-render the same terminal state.
	if sdata, serr := os.ReadFile(filepath.Join(dir, streamSealedFile)); serr == nil {
		var sj streamSealJSON
		if json.Unmarshal(sdata, &sj) == nil {
			st.mu.Lock()
			if st.state == StreamReceiving {
				switch sj.State {
				case StreamComplete:
					_, _ = st.finishLocked()
				case StreamFailed:
					msg := sj.Error
					if msg == "" {
						msg = "stream failed before crash"
					}
					_ = st.failLocked(errors.New(msg))
				}
			}
			st.mu.Unlock()
		}
	}
	if err := ss.register(st); err != nil {
		st.mu.Lock()
		_ = st.wal.Close()
		st.mu.Unlock()
		return err
	}
	ss.m.log.Info("stream recovered", "stream", name,
		"bytes", st.Offset(), "state", string(st.State()), "tuples", st.live.Len())
	return nil
}

// Get returns a stream by name.
func (ss *Streams) Get(name string) (*Stream, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st, ok := ss.streams[name]
	return st, ok
}

// List returns every stream, ordered by name.
func (ss *Streams) List() []*Stream {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]*Stream, 0, len(ss.streams))
	for _, st := range ss.streams {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delete removes a stream from the registry, the store, and the disk
// (WAL directory and spill file). A stream still receiving is aborted:
// the in-flight upload fails on its next chunk. Sessions already
// attached keep the tuples that arrived.
func (ss *Streams) Delete(name string) bool {
	ss.mu.Lock()
	st, ok := ss.streams[name]
	if ok {
		delete(ss.streams, name)
	}
	ss.mu.Unlock()
	if !ok {
		return false
	}
	st.abort(fmt.Errorf("emud: stream %q deleted", name))
	ss.m.store.DropLive(name)
	if st.dir != "" {
		_ = os.RemoveAll(st.dir)
	}
	if ss.spillDir != "" {
		_ = os.Remove(filepath.Join(ss.spillDir, name+".tuples"))
	}
	ss.m.log.Debug("stream deleted", "stream", name)
	return true
}

// Count returns the number of registered streams (any state).
func (ss *Streams) Count() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.streams)
}
