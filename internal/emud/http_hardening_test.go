package emud

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tracemod/internal/faults"
)

func TestAPIErrorEnvelopeEverywhere(t *testing.T) {
	srv, _ := newTestAPI(t, Options{})
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/v1/sessions/nope", http.StatusNotFound},          // our handler
		{"GET", "/no/such/route", http.StatusNotFound},             // ServeMux 404
		{"DELETE", "/v1/farm", http.StatusMethodNotAllowed},        // ServeMux 405
		{"GET", "/v1/faults", http.StatusNotFound},                 // no injector
		{"POST", "/v1/sessions", http.StatusBadRequest},            // empty body
		{"POST", "/v1/sessions/nope/handoff", http.StatusNotFound}, // ErrNoSession
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s %s content-type = %q, want JSON envelope", tc.method, tc.path, ct)
		}
		var env errorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s %s body %q is not an error envelope: %v", tc.method, tc.path, raw, err)
		}
		if env.Error == "" || env.Status != tc.want {
			t.Fatalf("%s %s envelope = %+v, want error text and status %d", tc.method, tc.path, env, tc.want)
		}
	}
}

func TestAPIBodyLimit(t *testing.T) {
	srv, _ := newTestAPI(t, Options{})
	// Well-formed JSON bigger than the cap: the decoder must hit the
	// MaxBytesReader limit (not a syntax error) to prove the 413 path.
	huge := append([]byte(`{"name":"`), bytes.Repeat([]byte("x"), DefaultMaxBodyBytes+1)...)
	huge = append(huge, []byte(`"}`)...)
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("413 body not an envelope: %v", err)
	}
}

func TestAPISessionLimitIs429(t *testing.T) {
	srv, _ := newTestAPI(t, Options{MaxSessions: 1})
	req := SessionRequest{Synthetic: "wavelan", DurationSec: 10}
	var info SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", req, http.StatusCreated, &info)
	doJSON(t, "POST", srv.URL+"/v1/sessions", req, http.StatusTooManyRequests, nil)
}

func TestAPIFaultsEndpoint(t *testing.T) {
	inj := faults.New(faults.Options{Seed: 1})
	srv, _ := newTestAPI(t, Options{Faults: inj})

	// The registered menu is visible before anything is armed.
	var states []faults.State
	doJSON(t, "GET", srv.URL+"/v1/faults", nil, http.StatusOK, &states)
	names := map[string]bool{}
	for _, st := range states {
		names[st.Name] = true
		if st.Rate != 0 {
			t.Fatalf("point %s armed at boot", st.Name)
		}
	}
	for _, want := range faultPointNames {
		if !names[want] {
			t.Fatalf("fault menu missing %q (have %v)", want, states)
		}
	}

	// Arm a point; the response reflects it.
	doJSON(t, "POST", srv.URL+"/v1/faults",
		FaultRequest{Name: "store.parse", Rate: 0.25, DelayMS: 5}, http.StatusOK, &states)
	found := false
	for _, st := range states {
		if st.Name == "store.parse" {
			found = true
			if st.Rate != 0.25 || st.Delay != 5*time.Millisecond {
				t.Fatalf("armed state = %+v", st)
			}
		}
	}
	if !found {
		t.Fatal("armed point missing from snapshot")
	}

	// Missing name is a 400; reset disarms everything.
	doJSON(t, "POST", srv.URL+"/v1/faults", FaultRequest{Rate: 1}, http.StatusBadRequest, nil)
	doJSON(t, "DELETE", srv.URL+"/v1/faults", nil, http.StatusNoContent, nil)
	doJSON(t, "GET", srv.URL+"/v1/faults", nil, http.StatusOK, &states)
	for _, st := range states {
		if st.Rate != 0 {
			t.Fatalf("point %s still armed after reset", st.Name)
		}
	}
}

func TestAPIControlPlaneFaults(t *testing.T) {
	inj := faults.New(faults.Options{Seed: 2})
	srv, _ := newTestAPI(t, Options{Faults: inj})
	inj.Set("control.error", faults.Config{Rate: 1})
	resp, err := http.Get(srv.URL + "/v1/farm")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("control.error at rate 1 gave %d, want 500", resp.StatusCode)
	}
	// The fault endpoint itself must stay reachable — it is the only way
	// to disarm a rate-1 control.error without restarting the daemon.
	var states []faults.State
	doJSON(t, "GET", srv.URL+"/v1/faults", nil, http.StatusOK, &states)
	doJSON(t, "DELETE", srv.URL+"/v1/faults", nil, http.StatusNoContent, nil)
	var farm FarmInfo
	doJSON(t, "GET", srv.URL+"/v1/farm", nil, http.StatusOK, &farm)
}

func TestAPIInlineRefContentHashed(t *testing.T) {
	srv, _ := newTestAPI(t, Options{})
	mk := func(latency float64) SessionInfo {
		var info SessionInfo
		doJSON(t, "POST", srv.URL+"/v1/sessions", SessionRequest{
			Inline: []TupleJSON{{DurationSec: 60, LatencyMS: latency}},
		}, http.StatusCreated, &info)
		return info
	}
	a, b := mk(5), mk(9)
	if a.TraceRef == b.TraceRef {
		t.Fatalf("different inline traces share ref %q", a.TraceRef)
	}
	c := mk(5)
	if a.TraceRef != c.TraceRef {
		t.Fatalf("identical inline traces got different refs %q / %q", a.TraceRef, c.TraceRef)
	}
}

func TestServeHasTimeouts(t *testing.T) {
	m := newTestManager(t, Options{Granularity: time.Millisecond})
	srv, err := NewAPI(m, nil).Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := srv.srv
	if hs.WriteTimeout == 0 || hs.IdleTimeout == 0 || hs.ReadTimeout == 0 || hs.ReadHeaderTimeout == 0 {
		t.Fatalf("server missing timeouts: read=%v write=%v idle=%v header=%v",
			hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout, hs.ReadHeaderTimeout)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}
