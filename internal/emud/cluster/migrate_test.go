package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"tracemod/internal/emud"
	"tracemod/internal/simnet"
)

// outcomes drives a fixed packet workload through a session and records
// each packet's fate as one byte: 'D' delivered, 'x' dropped. The trace
// is a single hour-long tuple with zero latency and 30% loss under exact
// scheduling, so every outcome resolves synchronously inside Submit and
// the string is a pure function of the session's (seed, draw position) —
// exactly the state a live migration must carry.
func outcomes(t *testing.T, s *emud.Session, n int) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		got := ""
		s.SubmitWithDrop(simnet.Outbound, 100+i%7,
			func() { got = "D" },
			func() { got = "x" })
		if got == "" {
			t.Fatalf("packet %d had no synchronous outcome", i)
		}
		sb.WriteString(got)
	}
	return sb.String()
}

// TestMigrationWithoutSurvivorForgetsPlacement: draining the only
// worker leaves no ring member to land on, so the handed-off session is
// lost — and its placement must go with it, or placed_sessions keeps
// counting a session that exists on no worker.
func TestMigrationWithoutSurvivorForgetsPlacement(t *testing.T) {
	w1 := newTestWorker(t, "w1")
	c, srv := newTestCluster(t, w1)
	if res, raw := postJSON(t, srv.URL+"/v1/sessions", inlineSession("alone", 1), nil); res.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %s", res.StatusCode, raw)
	}
	moved, skipped, err := c.DrainWorker("w1")
	if err != nil || moved != 0 || skipped != 0 {
		t.Fatalf("DrainWorker = (%d, %d, %v), want (0, 0, nil)", moved, skipped, err)
	}
	if got := c.lost.Load(); got != 1 {
		t.Fatalf("lost = %d, want 1", got)
	}
	for _, wi := range c.Workers() {
		if wi.Placed != 0 {
			t.Fatalf("worker %s still has %d placed sessions", wi.Name, wi.Placed)
		}
	}
}

// TestDrainMigrationByteIdentity is the differential test the migration
// design hangs on: a session that lives through a coordinator-driven
// drain migration must produce byte-for-byte the same delivery/drop
// sequence as the same session never migrated. The handoff snapshot
// carries the replay cursor (SkipTuples) and the drop-lottery position
// (SkipDraws); if either is off by one, the two runs diverge within a
// few packets at 30% loss.
func TestDrainMigrationByteIdentity(t *testing.T) {
	const (
		seed  = 42
		half  = 200
		total = 2 * half
	)

	// Reference: one worker, no cluster, the full workload in one life.
	ref := newTestWorker(t, "ref")
	res, raw := postJSON(t, ref.srv.URL+"/v1/sessions", inlineSession("ident", seed), nil)
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("reference create = %d: %s", res.StatusCode, raw)
	}
	var refInfo emud.SessionInfo
	if err := json.Unmarshal(raw, &refInfo); err != nil {
		t.Fatal(err)
	}
	refSess, ok := ref.m.Get(refInfo.ID)
	if !ok {
		t.Fatal("reference session missing from manager")
	}
	want := outcomes(t, refSess, total)
	if !strings.Contains(want, "x") || !strings.Contains(want, "D") {
		t.Fatalf("degenerate reference outcome %q; loss lottery is not engaged", want)
	}

	// Cluster: two workers; the same session lives half its life on the
	// first, is drain-migrated, and finishes on the second.
	w1 := newTestWorker(t, "w1")
	w2 := newTestWorker(t, "w2")
	c, srv := newTestCluster(t, w1, w2)
	keys := placementKeys(t, c, map[string]int{"w1": 1})
	res, raw = postJSON(t, srv.URL+"/v1/sessions", inlineSession("ident", seed),
		map[string]string{"Idempotency-Key": keys[0]})
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("cluster create = %d: %s", res.StatusCode, raw)
	}
	var si emud.SessionInfo
	if err := json.Unmarshal(raw, &si); err != nil {
		t.Fatal(err)
	}
	src, ok := w1.m.Get(si.ID)
	if !ok {
		t.Fatalf("session %s not on w1", si.ID)
	}
	firstHalf := outcomes(t, src, half)
	cursorBefore, drawsBefore := src.Cursor(), src.LotteryDraws()

	moved, skipped, err := c.DrainWorker("w1")
	if err != nil {
		t.Fatalf("DrainWorker: %v", err)
	}
	if moved != 1 || skipped != 0 {
		t.Fatalf("DrainWorker moved %d skipped %d, want 1/0", moved, skipped)
	}
	if _, still := w1.m.Get(si.ID); still {
		t.Fatal("session still on the drained worker")
	}
	dst, ok := w2.m.Get(si.ID)
	if !ok {
		t.Fatal("migrated session missing from survivor")
	}
	if st := dst.State(); st != emud.StateRunning {
		t.Fatalf("migrated session state = %v, want running", st)
	}
	// Exact continuity of both positions, not just "close".
	if got := dst.Cursor(); got != cursorBefore {
		t.Fatalf("cursor after migration = %d, want %d", got, cursorBefore)
	}
	if got := dst.LotteryDraws(); got != drawsBefore {
		t.Fatalf("lottery draws after migration = %d, want %d", got, drawsBefore)
	}

	secondHalf := outcomes(t, dst, half)
	got := firstHalf + secondHalf
	if got != want {
		t.Fatalf("migrated outcome diverged from single-node run:\n ref: %s\n got: %s\n(first divergence at byte %d)",
			want, got, firstDiff(want, got))
	}

	// The drained worker refuses new sessions while the survivor admits.
	res2, raw2 := postJSON(t, w1.srv.URL+"/v1/sessions", inlineSession("late", 1), nil)
	if res2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create on drained worker = %d: %s", res2.StatusCode, raw2)
	}
}

func firstDiff(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestDrainMigrationUnderRepeatedMoves walks one session across workers
// twice (w1 -> w2 -> back onto w1 after it re-registers) and checks the
// draw position accumulates across moves rather than resetting to the
// last snapshot's base.
func TestDrainMigrationUnderRepeatedMoves(t *testing.T) {
	const seed, chunk = 7, 75
	ref := newTestWorker(t, "ref")
	res, raw := postJSON(t, ref.srv.URL+"/v1/sessions", inlineSession("hop", seed), nil)
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("reference create = %d: %s", res.StatusCode, raw)
	}
	var refInfo emud.SessionInfo
	if err := json.Unmarshal(raw, &refInfo); err != nil {
		t.Fatal(err)
	}
	refSess, _ := ref.m.Get(refInfo.ID)
	want := outcomes(t, refSess, 3*chunk)

	w1 := newTestWorker(t, "w1")
	w2 := newTestWorker(t, "w2")
	c, srv := newTestCluster(t, w1, w2)
	keys := placementKeys(t, c, map[string]int{"w1": 1})
	res, raw = postJSON(t, srv.URL+"/v1/sessions", inlineSession("hop", seed),
		map[string]string{"Idempotency-Key": keys[0]})
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("cluster create = %d: %s", res.StatusCode, raw)
	}
	var si emud.SessionInfo
	if err := json.Unmarshal(raw, &si); err != nil {
		t.Fatal(err)
	}

	s1, ok := w1.m.Get(si.ID)
	if !ok {
		t.Fatalf("session %s not on w1", si.ID)
	}
	got := outcomes(t, s1, chunk)

	if _, _, err := c.DrainWorker("w1"); err != nil {
		t.Fatalf("drain w1: %v", err)
	}
	s2, ok := w2.m.Get(si.ID)
	if !ok {
		t.Fatal("session missing from w2 after first migration")
	}
	got += outcomes(t, s2, chunk)

	// w1 comes back fresh (new manager process in real life; here a new
	// manager under the same name) and the session moves again.
	w1b := newTestWorker(t, "w1")
	if err := c.Register("w1", w1b.srv.URL); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.DrainWorker("w2"); err != nil {
		t.Fatalf("drain w2: %v", err)
	}
	s3, ok := w1b.m.Get(si.ID)
	if !ok {
		t.Fatal("session missing from revived w1 after second migration")
	}
	got += outcomes(t, s3, chunk)

	if got != want {
		t.Fatalf("twice-migrated outcome diverged at byte %d:\n ref: %s\n got: %s",
			firstDiff(want, got), want, got)
	}

	// Sanity on the aggregate view after all the churn.
	fres, err := http.Get(srv.URL + "/v1/farm")
	if err != nil {
		t.Fatal(err)
	}
	fraw, _ := io.ReadAll(fres.Body)
	fres.Body.Close()
	var cf ClusterFarmInfo
	if err := json.Unmarshal(fraw, &cf); err != nil {
		t.Fatal(err)
	}
	if cf.Sessions != 1 || cf.Placed != 1 {
		t.Fatalf("aggregate farm after churn = %s", fraw)
	}
}
