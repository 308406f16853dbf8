package livewire

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tracemod/internal/obs"
)

func TestRelayLiveIntrospection(t *testing.T) {
	// The full daemon surface: a relay with telemetry enabled, its
	// registry served by the debug listener, scraped over HTTP while
	// traffic flows — the acceptance path for `curl /metrics`.
	target := echoServer(t)
	reg := obs.NewRegistry()
	tracer := obs.NewRingTracer(256)
	r, err := NewRelay("127.0.0.1:0", target.String(), Config{
		Trace: constTrace(time.Millisecond, 0), Tick: -1, Seed: 1,
		Obs: reg, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv, err := obs.StartDebugServer("127.0.0.1:0", reg, tracer)
	if err != nil {
		t.Fatal(err)
	}
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
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
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
		"tracemod_livewire_client_to_target_total 5",
		"tracemod_livewire_target_to_client_total 5",
		"tracemod_modulation_packets_submitted_total 10",
		"tracemod_modulation_packets_dropped_total 0",
		"tracemod_modulation_bottleneck_queue_depth",
		"tracemod_modulation_active_tuple_index",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
	if tracer.Total() == 0 {
		t.Fatal("tracer saw no lifecycle events")
	}

	resp2, err := http.Get("http://" + srv.Addr() + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	events, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), "submit") {
		t.Fatalf("/debug/events missing submit events:\n%s", events)
	}
}
