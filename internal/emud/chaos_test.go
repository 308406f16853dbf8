//go:build chaos

// The chaos suite: every fault point armed at 10% against a live farm of
// 200+ sessions, under the race detector. The daemon must stay up — shed
// under overload, retry transient faults, quarantine panicking sessions
// — and a simulated kill -9 (snapshot taken mid-run, farm abandoned)
// followed by recovery must restore every non-drained session with its
// replay cursor.
//
// Run with: go test -race -tags=chaos ./internal/emud/...
package emud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"tracemod/internal/distill"
	"tracemod/internal/faults"
	"tracemod/internal/obs"
	"tracemod/internal/replay"
	"tracemod/internal/simnet"
	"tracemod/internal/tracefmt"
)

const (
	chaosSessions = 200
	chaosRate     = 0.10
	// chaosHeldOut sessions get no phase-2 traffic: session.panic fires
	// per delivery, so at ~90 packets per session almost every session
	// in the traffic set is quarantined (0.9^90 ≈ 10⁻⁴ survive each).
	// The held-out set is what the survivors probe draws from, which
	// makes "quarantine engages" and "survivors still deliver" both hold
	// by construction rather than by how many timers fired before the
	// probe.
	chaosHeldOut = 20
)

func TestChaosFarmSurvivesAllFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not short")
	}
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "chaos-snapshot.json")
	tracePath := writeReplayFile(t, dir, "chaos.replay")

	reg := obs.NewRegistry()
	inj := faults.New(faults.Options{Seed: 42, Metrics: reg})
	m := NewManager(Options{
		Granularity:        time.Millisecond,
		MaxSessions:        chaosSessions + 64,
		MaxSessionInFlight: 32,
		MaxInFlightBytes:   4 << 20,
		DrainTimeout:       time.Second,
		Faults:             inj,
		Retry:              faults.Backoff{Attempts: 4, Base: time.Millisecond, Max: 5 * time.Millisecond},
		Store: NewStore(StoreOptions{
			Capacity:    8, // small: eviction storms have something to shred
			NegativeTTL: 20 * time.Millisecond,
			Faults:      inj,
			Retry:       faults.Backoff{Attempts: 4, Base: time.Millisecond, Max: 5 * time.Millisecond},
			Metrics:     reg,
		}),
		SnapshotPath:     snapPath,
		SnapshotInterval: 50 * time.Millisecond,
		Metrics:          reg,
	})
	// The farm is deliberately abandoned un-Closed at the end (that is the
	// kill -9); only the wheel is torn down so the test binary's goroutine
	// check doesn't drown, and the snapshot writer, since a killed process
	// writes nothing more (left running, it keeps creating its temp file
	// in the test's directory while that is being removed).
	defer func() {
		m.wheel.Close()
		close(m.snapStop)
		<-m.snapDone
	}()

	srv := httptest.NewServer(NewAPI(m, reg).Handler())
	defer srv.Close()

	// Arm the full menu at 10%. Stall-type points get a small delay so the
	// suite injects real skew without taking minutes.
	for _, name := range faultPointNames {
		doJSON(t, "POST", srv.URL+"/v1/faults",
			FaultRequest{Name: name, Rate: chaosRate, DelayMS: 1}, http.StatusOK, nil)
	}

	// Phase 1: create 200+ sessions through the faulted control plane.
	// control.error 500s, injected store.parse failures, and shed creates
	// are all expected — the client retries, the daemon must not die.
	created := make([]string, 0, chaosSessions)
	for attempt := 0; len(created) < chaosSessions; attempt++ {
		if attempt > chaosSessions*50 {
			t.Fatalf("could not create %d sessions in %d attempts (have %d)",
				chaosSessions, attempt, len(created))
		}
		req := SessionRequest{Name: fmt.Sprintf("chaos-%d", attempt), Synthetic: "wavelan", DurationSec: 60}
		if attempt%5 == 0 {
			req = SessionRequest{Name: req.Name, TracePath: tracePath}
		}
		var info SessionInfo
		body, code := tryJSON(t, "POST", srv.URL+"/v1/sessions", req, &info)
		switch code {
		case http.StatusCreated:
			created = append(created, info.ID)
		case http.StatusInternalServerError, http.StatusBadRequest, http.StatusTooManyRequests:
			// Injected failure or negative-cached parse error; retry.
		default:
			t.Fatalf("create returned %d: %s", code, body)
		}
	}

	// Phase 2: hammer traffic through every session outside the held-out
	// set from many goroutines, with session.panic armed — most of them
	// will be quarantined; the held-out sessions must keep delivering.
	heldOut, traffic := created[:chaosHeldOut], created[chaosHeldOut:]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				id := traffic[rng.Intn(len(traffic))]
				s, ok := m.Get(id)
				if !ok {
					continue
				}
				s.Submit(simnet.Outbound, 64+rng.Intn(1400), func() {})
			}
		}(w)
	}
	// Concurrently exercise relay attach (retried through relay.attach)
	// and the control plane's read paths.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			if s, ok := m.Get(traffic[i]); ok {
				_, _ = s.AttachRelay("127.0.0.1:0", "127.0.0.1:9")
			}
			var farm FarmInfo
			if _, code := tryJSON(t, "GET", srv.URL+"/v1/farm", nil, &farm); code != http.StatusOK &&
				code != http.StatusInternalServerError {
				t.Errorf("farm info = %d mid-chaos", code)
			}
		}
	}()
	wg.Wait()

	// The daemon is up: the farm answers, sessions exist, and the
	// defenses have engaged.
	if m.Count() == 0 {
		t.Fatal("farm lost every session")
	}
	quarantined := m.Quarantined()
	t.Logf("chaos: %d sessions, %d quarantined, %d shed, %d wheel panics, %d in-flight bytes",
		m.Count(), quarantined, m.Shed(), m.wheel.Panics(), m.InFlightBytes())
	if quarantined == 0 {
		t.Fatal("session.panic at 10% quarantined nothing")
	}
	// Quarantined sessions must not strand their admission-budget charge:
	// once the live queues retire, the farm counter returns to (nearly)
	// zero. A submit racing a quarantine Stop can strand one packet's
	// charge, so allow a few packets of residue — the bug this guards
	// against stranded the whole in-flight queue of every quarantined
	// session (megabytes, not kilobytes).
	budgetDeadline := time.Now().Add(10 * time.Second)
	for m.InFlightBytes() > 16*1500 {
		if time.Now().After(budgetDeadline) {
			t.Fatalf("in-flight byte budget stuck at %d after chaos", m.InFlightBytes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range created {
		if s, ok := m.Get(id); ok && s.Quarantined() && s.State() != StateStopped {
			// Quarantine drains asynchronously; give it a moment.
			deadline := time.Now().Add(5 * time.Second)
			for s.State() != StateStopped && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if s.State() != StateStopped {
				t.Fatalf("quarantined session %s never stopped", id)
			}
		}
	}

	// Healthy sessions still deliver with all faults armed. Any single
	// probe can be eaten by the armed session.panic point (that is the
	// point of the exercise), so retry across the held-out survivors.
	probed := false
	for attempt := 0; attempt < chaosHeldOut && !probed; attempt++ {
		var survivor *Session
		for _, id := range heldOut {
			if s, ok := m.Get(id); ok && !s.Quarantined() && s.State() == StateRunning {
				survivor = s
				break
			}
		}
		if survivor == nil {
			t.Fatal("no healthy session survived 10% chaos")
		}
		delivered := make(chan struct{})
		var once sync.Once
		if !survivor.Submit(simnet.Outbound, 100, func() { once.Do(func() { close(delivered) }) }) {
			time.Sleep(5 * time.Millisecond) // shed or just quarantined; retry
			continue
		}
		select {
		case <-delivered:
			probed = true
		case <-time.After(2 * time.Second):
			// Injected panic ate the probe; pick another survivor.
		}
	}
	if !probed {
		t.Fatal("healthy sessions stopped delivering under chaos")
	}

	// Phase 3: kill -9 and recover. End the scenario (Reset disarms every
	// point), take the final snapshot the periodic writer would have on
	// disk, and abandon the farm without Close — no drain, no goodbye.
	doJSON(t, "DELETE", srv.URL+"/v1/faults", nil, http.StatusNoContent, nil)
	if err := m.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		cursor  int64
		running bool
	}
	wants := map[string]want{}
	for _, ss := range snap.Sessions {
		wants[ss.ID] = want{cursor: ss.Cursor, running: ss.Running}
	}
	if len(wants) == 0 {
		t.Fatal("snapshot recorded no sessions")
	}

	m2 := NewManager(Options{Granularity: time.Millisecond, MaxSessions: chaosSessions + 64})
	defer m2.Close()
	n, err := m2.Restore(snap)
	if err != nil {
		t.Fatalf("restore: %v (restored %d)", err, n)
	}
	if n != len(wants) {
		t.Fatalf("restored %d of %d snapshotted sessions", n, len(wants))
	}
	for id, w := range wants {
		s, ok := m2.Get(id)
		if !ok {
			t.Fatalf("session %s missing after recovery", id)
		}
		if got := s.Cursor(); got != w.cursor {
			t.Fatalf("session %s cursor = %d after recovery, want %d", id, got, w.cursor)
		}
		if w.running && s.State() != StateRunning {
			t.Fatalf("session %s state = %v after recovery, want running", id, s.State())
		}
	}
	// Recovered sessions carry live traffic again.
	for _, ss := range snap.Sessions {
		if !ss.Running {
			continue
		}
		s, _ := m2.Get(ss.ID)
		ok := make(chan struct{})
		var o sync.Once
		if !s.Submit(simnet.Outbound, 100, func() { o.Do(func() { close(ok) }) }) {
			t.Fatalf("recovered session %s refused traffic", ss.ID)
		}
		select {
		case <-ok:
		case <-time.After(10 * time.Second):
			t.Fatalf("recovered session %s never delivered", ss.ID)
		}
		break // one is proof enough
	}
	t.Logf("chaos: recovered %d sessions after simulated kill -9", n)
}

// chaosClient bounds every chaos control-plane request, so a hung
// request fails with a goroutine dump instead of running into the
// package timeout with no clue.
var chaosClient = &http.Client{Timeout: 30 * time.Second}

// tryJSON is doJSON without a status assertion: chaos clients must
// tolerate injected control-plane failures.
func tryJSON(t *testing.T, method, url string, body any, out any) (string, int) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := chaosClient.Do(req)
	if err != nil {
		fatalOnTimeout(t, err)
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalOnTimeout(t, err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return string(raw), resp.StatusCode
}

// fatalOnTimeout fails the test with a full goroutine dump when err is a
// client timeout: a hung request is a fault to diagnose, not to tolerate.
func fatalOnTimeout(t *testing.T, err error) {
	t.Helper()
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		var dump bytes.Buffer
		_ = pprof.Lookup("goroutine").WriteTo(&dump, 2)
		t.Fatalf("%v\ngoroutines at the timeout:\n%s", err, dump.String())
	}
}

// A kill -9 between upload chunks, repeated at random cut points: each
// crash leaves a WAL whose replay must reproduce the pre-crash replay
// tuples byte-for-byte up to the durable offset, and resuming from the
// committed offset must converge on the batch-distilled output exactly.
func TestChaosKillMidUploadRecoversDurablePrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not short")
	}
	data := collectedTraceBytes(t, 60)
	collected, err := tracefmt.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := distill.Distill(collected, distill.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := replay.Write(&want, batch.Replay); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 5; round++ {
		walDir := filepath.Join(t.TempDir(), fmt.Sprintf("wal-%d", round))
		quiet := func(o *Options) { o.PressurePeriod = -1 }
		m1 := newDurableManager(t, walDir, quiet)
		st1, err := m1.Streams().Create(StreamConfig{Name: "victim", Resumable: true})
		if err != nil {
			t.Fatal(err)
		}
		// Feed randomly sized chunks and crash at a random point past the
		// header but before the end.
		cut := len(data)/4 + rng.Intn(len(data)/2)
		off := 0
		for off < cut {
			n := 256 + rng.Intn(2048)
			if off+n > cut {
				n = cut - off
			}
			if err := st1.Write(data[off : off+n]); err != nil {
				t.Fatalf("round %d write: %v", round, err)
			}
			off += n
		}
		preCrash := replayBytes(t, st1.Live())
		durable := st1.Durable()
		if durable != int64(cut) {
			t.Fatalf("round %d: durable=%d, fsynced %d", round, durable, cut)
		}
		m1.wheel.Close() // the kill -9: nothing else is shut down

		m2 := newDurableManager(t, walDir, quiet)
		if n, err := m2.Streams().Recover(); n != 1 || err != nil {
			t.Fatalf("round %d Recover = (%d, %v)", round, n, err)
		}
		st2, _ := m2.Streams().Get("victim")
		if st2.Offset() != durable {
			t.Fatalf("round %d: recovered offset %d, want %d", round, st2.Offset(), durable)
		}
		if got := replayBytes(t, st2.Live()); !bytes.Equal(got, preCrash) {
			t.Fatalf("round %d: replayed tuples diverge from pre-crash ingest", round)
		}
		if err := st2.WriteAt(durable, data[durable:]); err != nil {
			t.Fatalf("round %d resume: %v", round, err)
		}
		sum, err := st2.Finish()
		if err != nil {
			t.Fatalf("round %d finish: %v", round, err)
		}
		var got bytes.Buffer
		if err := replay.Write(&got, sum.Replay); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: crash+resume diverges from batch distill", round)
		}
		m2.Close()
	}
}
