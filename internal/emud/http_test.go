package emud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"tracemod/internal/obs"
)

func newTestAPI(t *testing.T, o Options) (*httptest.Server, *Manager) {
	t.Helper()
	reg := o.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		o.Metrics = reg
	}
	if o.Granularity == 0 {
		o.Granularity = time.Millisecond
	}
	m := NewManager(o)
	t.Cleanup(m.Close)
	srv := httptest.NewServer(NewAPI(m, reg).Handler())
	t.Cleanup(srv.Close)
	return srv, m
}

func doJSON(t *testing.T, method, url string, body any, wantCode int, out any) {
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
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
}

func TestAPISessionCRUD(t *testing.T) {
	srv, m := newTestAPI(t, Options{})

	var created SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", SessionRequest{
		Name:      "crud",
		Synthetic: "wavelan",
	}, http.StatusCreated, &created)
	if created.State != "running" || created.Tuples == 0 {
		t.Fatalf("created = %+v", created)
	}

	var got SessionInfo
	doJSON(t, "GET", srv.URL+"/v1/sessions/"+created.ID, nil, http.StatusOK, &got)
	if got.ID != created.ID || got.Name != "crud" {
		t.Fatalf("get = %+v", got)
	}

	var list []SessionInfo
	doJSON(t, "GET", srv.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != created.ID {
		t.Fatalf("list = %+v", list)
	}

	doJSON(t, "POST", srv.URL+"/v1/sessions/"+created.ID+"/stop", nil, http.StatusOK, &got)
	if got.State != "stopped" {
		t.Fatalf("state after stop = %s", got.State)
	}

	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/sessions/"+created.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	if m.Count() != 0 {
		t.Fatalf("%d sessions after delete", m.Count())
	}
	doJSON(t, "GET", srv.URL+"/v1/sessions/"+created.ID, nil, http.StatusNotFound, nil)
}

func TestAPIInlineTraceAndDeferredStart(t *testing.T) {
	srv, _ := newTestAPI(t, Options{})
	start := false
	var created SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", SessionRequest{
		Inline: []TupleJSON{
			{DurationSec: 1, LatencyMS: 5, VbNSPerByte: 100, Loss: 0.1},
			{DurationSec: 2, LatencyMS: 50, VbNSPerByte: 900, Loss: 0.5},
		},
		Start: &start,
		Seed:  7,
	}, http.StatusCreated, &created)
	if created.State != "created" || created.Tuples != 2 || created.TraceSec != 3 {
		t.Fatalf("created = %+v", created)
	}
	var started SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions/"+created.ID+"/start", nil, http.StatusOK, &started)
	if started.State != "running" {
		t.Fatalf("state after start = %s", started.State)
	}
}

func TestAPITraceFromFile(t *testing.T) {
	srv, _ := newTestAPI(t, Options{})
	path := writeReplayFile(t, t.TempDir(), "api.replay")
	var created SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", SessionRequest{TracePath: path},
		http.StatusCreated, &created)
	if created.Tuples != 10 || created.TraceRef != path {
		t.Fatalf("created = %+v", created)
	}
}

func TestAPIRelayAttachAndTraffic(t *testing.T) {
	// A tiny UDP echo server as the relay target.
	target, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			n, addr, err := target.ReadFromUDP(buf)
			if err != nil {
				return
			}
			_, _ = target.WriteToUDP(buf[:n], addr)
		}
	}()
	relay := &RelaySpec{Listen: "127.0.0.1:0", Target: target.LocalAddr().String()}

	for _, tc := range []struct {
		name string
		req  SessionRequest
	}{
		{"synthetic", SessionRequest{Synthetic: "wavelan", DurationSec: 60, Relay: relay}},
		// The README's live-shaping recipe: a replay file, a tick, a
		// drop seed and the per-byte corrections.
		{"readme-recipe", SessionRequest{
			TracePath: writeReplayFile(t, t.TempDir(), "recipe.replay"),
			TickUS:    1000, Seed: 7, CompensationNS: 80, InboundExtraNS: 80, Relay: relay,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestAPI(t, Options{})
			var created SessionInfo
			doJSON(t, "POST", srv.URL+"/v1/sessions", tc.req, http.StatusCreated, &created)
			if created.RelayAddr == "" {
				t.Fatal("no relay address reported")
			}

			conn, err := net.Dial("udp", created.RelayAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("ping-through-emud")); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 2048)
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			if string(buf[:n]) != "ping-through-emud" {
				t.Fatalf("echo = %q", buf[:n])
			}

			// The round trip is visible in the session stats.
			var got SessionInfo
			doJSON(t, "GET", srv.URL+"/v1/sessions/"+created.ID, nil, http.StatusOK, &got)
			if got.Submitted < 2 || got.Delivered < 2 {
				t.Fatalf("stats after echo = %+v", got)
			}
		})
	}
}

func TestAPIFarmAndMetrics(t *testing.T) {
	srv, m := newTestAPI(t, Options{Shards: 2})
	var created SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", SessionRequest{Synthetic: "slow"},
		http.StatusCreated, &created)

	var farm FarmInfo
	doJSON(t, "GET", srv.URL+"/v1/farm", nil, http.StatusOK, &farm)
	if farm.Sessions != 1 || farm.WheelShards != 2 {
		t.Fatalf("farm = %+v", farm)
	}
	if farm.MaxSessions != m.opts.MaxSessions {
		t.Fatalf("farm max = %d", farm.MaxSessions)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"tracemod_emud_sessions_active 1",
		fmt.Sprintf("tracemod_emud_session_state{session=%q} 1", created.ID),
		"tracemod_wheel_shards 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestAPIBadRequests(t *testing.T) {
	srv, _ := newTestAPI(t, Options{})
	for name, req := range map[string]SessionRequest{
		"no source":      {},
		"two sources":    {Synthetic: "wavelan", Inline: []TupleJSON{{DurationSec: 1}}},
		"bad synthetic":  {Synthetic: "carrier-pigeon"},
		"invalid inline": {Inline: []TupleJSON{{DurationSec: -1}}},
		"missing file":   {TracePath: "/does/not/exist.replay"},
	} {
		doJSON(t, "POST", srv.URL+"/v1/sessions", req, http.StatusBadRequest, nil)
		_ = name
	}
	doJSON(t, "POST", srv.URL+"/v1/sessions/s-999999/start", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", srv.URL+"/v1/sessions/s-999999", nil, http.StatusNotFound, nil)
}

func TestAPIStopWithDrain(t *testing.T) {
	srv, _ := newTestAPI(t, Options{})
	var created SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", SessionRequest{Synthetic: "wavelan"},
		http.StatusCreated, &created)
	var got SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions/"+created.ID+"/stop?drain=2s", nil,
		http.StatusOK, &got)
	if got.State != "stopped" {
		t.Fatalf("state after drained stop = %s", got.State)
	}
	doJSON(t, "POST", srv.URL+"/v1/sessions/"+created.ID+"/stop?drain=banana", nil,
		http.StatusBadRequest, nil)
}

// TestHandlerRequestAllocs caps the allocations of one GET /v1/health
// through the hardened handler (metrics on, so the obs routes are
// mounted). The route table is built once per Handler; rebuilding it per
// request costs hundreds of allocations and would trip this ceiling.
//
// AllocsPerRun counts every goroutine's allocations, and earlier tests
// in this process may leave goroutines winding down (a repeated run
// with the chaos suite read 82–95), so the measurement runs in a child
// process of this test binary that runs this test alone.
func TestHandlerRequestAllocs(t *testing.T) {
	const childEnv = "EMUD_HANDLER_ALLOCS_CHILD"
	if os.Getenv(childEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestHandlerRequestAllocs$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		out, err := cmd.CombinedOutput()
		t.Logf("measured alone:\n%s", out)
		if err != nil {
			t.Fatalf("the measuring child failed: %v", err)
		}
		return
	}
	reg := obs.NewRegistry()
	m := NewManager(Options{Metrics: reg, Granularity: time.Millisecond})
	defer m.Close()
	h := NewAPI(m, reg).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/health", nil)
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/health = %d: %s", rec.Code, rec.Body)
		}
	})
	t.Logf("GET /v1/health: %.0f allocs/request", allocs)
	const ceiling = 32
	if allocs > ceiling {
		t.Fatalf("GET /v1/health allocates %.0f times per request, ceiling %d", allocs, ceiling)
	}
}
