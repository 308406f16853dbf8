package livewire

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tracemod/internal/obs"
)

func TestRelayLiveIntrospection(t *testing.T) {
	// The introspection surface of a live relay: its engine's registry
	// served by the obs debug routes, scraped over HTTP while traffic
	// flows — the acceptance path for `curl /metrics`.
	target := echoServer(t)
	reg := obs.NewRegistry()
	eng := shapingEngine(t, constTrace(time.Millisecond, 0), 1, reg)
	r, err := NewRelayWithSubmitterOpts("127.0.0.1:0", target.String(), eng, RelayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := httptest.NewServer(obs.Mux(reg))
	defer srv.Close()

	c := dialRelay(t, r)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	for i := 0; i < 5; i++ {
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
	}

	settledStats(t, r, 5)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"tracemod_modulation_packets_submitted_total 10",
		"tracemod_modulation_packets_dropped_total 0",
		"tracemod_modulation_bottleneck_queue_depth",
		"tracemod_modulation_active_tuple_index",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}
