// Worker-side cluster substrate: recovery parking for unrecoverable
// traces, the draining/overloaded health split, session-admission
// brownout, idempotent creates, and the handoff endpoint's contract.
package emud

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tracemod/internal/faults"
	"tracemod/internal/obs"
	"tracemod/internal/simnet"
)

// rawJSON posts body as JSON with optional headers and returns the
// response status, body, and headers without asserting on the code.
func rawJSON(t *testing.T, method, url string, body any, hdr map[string]string) (int, string, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(raw), res.Header
}

// TestRestoreParksUnrecoverableTrace is the recovery-ordering guarantee:
// a snapshot where one session's trace is missing and another's is
// corrupt must still restore the healthy session AND materialize the
// broken ones — parked, stopped, with a typed error — instead of failing
// the whole -recover or silently dropping them.
func TestRestoreParksUnrecoverableTrace(t *testing.T) {
	good := testTrace()
	tuples := make([]TupleJSON, len(good))
	for i, tu := range good {
		tuples[i] = tupleToJSON(tu)
	}
	snap := &FarmSnapshot{
		Seq: 10,
		Traces: map[string][]TupleJSON{
			"good": tuples,
			"corrupt": {
				// Loss outside [0,1]: fails Trace.Validate on restore —
				// the file was damaged between snapshot and recovery.
				{DurationSec: 1, Loss: 42},
			},
		},
		Sessions: []SessionSnapshot{
			{ID: "s-ok", TraceRef: "good", Loop: true, TickUS: -1, Seed: 1, Running: true, Cursor: 1},
			{ID: "s-missing", TraceRef: "vanished", Loop: true, TickUS: -1, Seed: 2, Running: true},
			{ID: "s-corrupt", TraceRef: "corrupt", Loop: true, TickUS: -1, Seed: 3, Running: true},
		},
	}

	m := newTestManager(t, Options{})
	n, err := m.Restore(snap)
	if n != 3 {
		t.Fatalf("restored %d sessions, want all 3 (parked ones included)", n)
	}
	if !errors.Is(err, ErrTraceUnrecoverable) {
		t.Fatalf("Restore error = %v, want ErrTraceUnrecoverable", err)
	}

	ok, _ := m.Get("s-ok")
	if ok == nil || ok.State() != StateRunning {
		t.Fatalf("healthy session did not restore running: %+v", ok)
	}
	if got := ok.Cursor(); got != 1 {
		t.Fatalf("healthy session cursor = %d, want 1", got)
	}
	if ok.RestoreError() != nil {
		t.Fatalf("healthy session carries restore error %v", ok.RestoreError())
	}

	for _, id := range []string{"s-missing", "s-corrupt"} {
		s, found := m.Get(id)
		if !found {
			t.Fatalf("session %s vanished instead of parking", id)
		}
		if s.State() == StateRunning {
			t.Fatalf("session %s runs with an unrecoverable trace", id)
		}
		if !errors.Is(s.RestoreError(), ErrTraceUnrecoverable) {
			t.Fatalf("session %s restore error = %v, want ErrTraceUnrecoverable",
				id, s.RestoreError())
		}
		// Parked sessions refuse traffic instead of emulating garbage.
		if s.Submit(simnet.Outbound, 100, func() {}) {
			t.Fatalf("parked session %s accepted a packet", id)
		}
	}
}

// TestParkedSessionStaysParkedAcrossMoves: a session parked for an
// unrecoverable trace moves on as what it is — the next restore parks it
// with ErrTraceUnrecoverable again, not as a stream-fed session whose
// stream is gone.
func TestParkedSessionStaysParkedAcrossMoves(t *testing.T) {
	snap := &FarmSnapshot{Sessions: []SessionSnapshot{
		{ID: "s-missing", TraceRef: "vanished", Loop: true, TickUS: -1, Running: true},
	}}
	m1 := newTestManager(t, Options{})
	if _, err := m1.Restore(snap); !errors.Is(err, ErrTraceUnrecoverable) {
		t.Fatalf("first restore err = %v", err)
	}
	again := m1.Snapshot()
	if len(again.Sessions) != 1 || again.Sessions[0].Stream != "" {
		t.Fatalf("parked session snapshotted as %+v", again.Sessions)
	}
	m2 := newTestManager(t, Options{})
	n, err := m2.Restore(again)
	if n != 1 || !errors.Is(err, ErrTraceUnrecoverable) {
		t.Fatalf("second restore = (%d, %v), want (1, ErrTraceUnrecoverable)", n, err)
	}
	if s, _ := m2.Get("s-missing"); !errors.Is(s.RestoreError(), ErrTraceUnrecoverable) {
		t.Fatalf("second restore parked with %v", s.RestoreError())
	}
}

// TestHealthDrainingVersusOverloaded pins the /v1/health contract the
// coordinator's probe depends on: draining fails readiness with status
// "draining" while liveness stays up, and brownout past reject-streams
// reports "overloaded" — two different reactions (migrate vs back off).
func TestHealthDrainingVersusOverloaded(t *testing.T) {
	t.Run("draining", func(t *testing.T) {
		srv, m := newTestAPI(t, Options{})
		var hi HealthInfo
		doJSON(t, "GET", srv.URL+"/v1/health", nil, http.StatusOK, &hi)
		if !hi.Ready || hi.Status != "ok" || hi.Draining {
			t.Fatalf("baseline health = %+v", hi)
		}

		m.BeginDrain()
		req, _ := http.NewRequest("GET", srv.URL+"/v1/health", nil)
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining health = %d, want 503", res.StatusCode)
		}
		doJSON(t, "GET", srv.URL+"/v1/health", nil, http.StatusServiceUnavailable, &hi)
		if hi.Ready || hi.Status != "draining" || !hi.Draining {
			t.Fatalf("draining health body = %+v", hi)
		}
		// Liveness is NOT readiness: the draining process must stay "up"
		// so its supervisor does not kill it mid-migration.
		lres, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		lres.Body.Close()
		if lres.StatusCode >= 300 {
			t.Fatalf("liveness while draining = %d", lres.StatusCode)
		}
		// And new sessions are refused with a typed 503.
		code, body, _ := rawJSON(t, "POST", srv.URL+"/v1/sessions",
			SessionRequest{Synthetic: "wavelan"}, nil)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
			t.Fatalf("create while draining = %d: %s", code, body)
		}
	})

	t.Run("overloaded", func(t *testing.T) {
		reg := obs.NewRegistry()
		inj := faults.New(faults.Options{Metrics: reg})
		srv, m := newTestAPI(t, Options{Metrics: reg, Faults: inj, PressurePeriod: -1})
		inj.Set("pressure.force", faults.Config{Rate: 1, Delay: 2 * time.Millisecond})
		m.Pressure().Evaluate()

		var hi HealthInfo
		doJSON(t, "GET", srv.URL+"/v1/health", nil, http.StatusServiceUnavailable, &hi)
		if hi.Ready || hi.Status != "overloaded" || hi.Draining {
			t.Fatalf("overloaded health body = %+v", hi)
		}
	})
}

// TestSessionAdmissionBrownout: at shed-sampling or worse, new sessions
// get a typed 429 with Retry-After — one rung EARLIER than streams
// refuse, because a whole new tenant is the most expensive admission.
func TestSessionAdmissionBrownout(t *testing.T) {
	reg := obs.NewRegistry()
	inj := faults.New(faults.Options{Metrics: reg})
	srv, m := newTestAPI(t, Options{Metrics: reg, Faults: inj, PressurePeriod: -1})

	inj.Set("pressure.force", faults.Config{Rate: 1, Delay: 1 * time.Millisecond})
	m.Pressure().Evaluate()

	code, body, hdr := rawJSON(t, "POST", srv.URL+"/v1/sessions",
		SessionRequest{Synthetic: "wavelan"}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("create at shed-sampling = %d: %s, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("brownout 429 carries no Retry-After")
	}
	// Streams still admit at this rung (they refuse one rung later) —
	// the ladder sheds the most expensive unit first.
	if _, err := m.Streams().Create(StreamConfig{Name: "still-admitted"}); err != nil {
		t.Fatalf("stream create at shed-sampling: %v", err)
	}

	// Pressure clears: admission resumes.
	inj.Reset()
	m.Pressure().Evaluate()
	doJSON(t, "POST", srv.URL+"/v1/sessions",
		SessionRequest{Synthetic: "wavelan"}, http.StatusCreated, nil)
}

// TestCreateIdempotencyKey: retried creates with the same key return the
// same session exactly once; a different key creates a second session.
func TestCreateIdempotencyKey(t *testing.T) {
	srv, m := newTestAPI(t, Options{})
	post := func(key string) SessionInfo {
		t.Helper()
		code, body, _ := rawJSON(t, "POST", srv.URL+"/v1/sessions",
			SessionRequest{Synthetic: "wavelan"},
			map[string]string{"Idempotency-Key": key})
		if code != http.StatusCreated {
			t.Fatalf("create(%s) = %d: %s", key, code, body)
		}
		var si SessionInfo
		if err := json.Unmarshal([]byte(body), &si); err != nil {
			t.Fatal(err)
		}
		return si
	}
	a, b := post("k1"), post("k1")
	if a.ID != b.ID {
		t.Fatalf("same key minted two sessions: %s vs %s", a.ID, b.ID)
	}
	if c := post("k2"); c.ID == a.ID {
		t.Fatal("distinct key replayed the old session")
	}
	if m.Count() != 2 {
		t.Fatalf("farm holds %d sessions, want 2", m.Count())
	}
}

// TestHandoffCarriesExactPositions: a handoff quiesces the session,
// deletes it, and returns a single-session snapshot whose cursor and
// draw count let a restore continue the drop lottery without a gap.
func TestHandoffCarriesExactPositions(t *testing.T) {
	m := newTestManager(t, Options{})
	s, err := m.Create(SessionConfig{Trace: testTrace(), Loop: true, Tick: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Submit(simnet.Outbound, 100, func() {})
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight > 0 {
		if time.Now().After(deadline) {
			t.Fatal("packets never drained")
		}
		time.Sleep(time.Millisecond)
	}
	wantCursor, wantDraws := s.Cursor(), s.LotteryDraws()
	if wantDraws == 0 {
		t.Fatal("no lottery draws recorded; the workload never engaged the trace")
	}

	snap, err := m.Handoff(s.ID, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, still := m.Get(s.ID); still {
		t.Fatal("session survived its own handoff")
	}
	if len(snap.Sessions) != 1 {
		t.Fatalf("handoff snapshot holds %d sessions", len(snap.Sessions))
	}
	ss := snap.Sessions[0]
	if ss.Cursor != wantCursor || ss.Draws != wantDraws || !ss.Running {
		t.Fatalf("handoff snapshot = cursor %d draws %d running %v, want %d/%d/true",
			ss.Cursor, ss.Draws, ss.Running, wantCursor, wantDraws)
	}
	if _, ok := snap.Traces[ss.TraceRef]; !ok {
		t.Fatalf("handoff snapshot does not embed trace %q", ss.TraceRef)
	}

	// The snapshot restores — on any farm — with both positions intact.
	m2 := newTestManager(t, Options{})
	if n, err := m2.Restore(snap); n != 1 || err != nil {
		t.Fatalf("restore = (%d, %v)", n, err)
	}
	s2, _ := m2.Get(ss.ID)
	cfg := s2.Config()
	if cfg.SkipTuples != wantCursor || cfg.SkipDraws != wantDraws {
		t.Fatalf("restored positions = %d/%d, want %d/%d",
			cfg.SkipTuples, cfg.SkipDraws, wantCursor, wantDraws)
	}
	if s2.State() != StateRunning {
		t.Fatalf("restored session state = %v", s2.State())
	}
}
