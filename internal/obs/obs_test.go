package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters never go down
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var v *CounterVec
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	v.With("x").Inc()
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	// A nil registry hands out nil metrics without panicking.
	r.Counter("x", "").Inc()
	r.Gauge("y", "").Set(1)
	r.Histogram("z", "", nil).Observe(time.Second)
	r.CounterVec("w", "", "l").With("a").Inc()
	r.GaugeFunc("f", "", func() float64 { return 1 })
}

func TestRegistryIdempotentAndKindCollision(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same", "")
	b := r.Counter("same", "")
	if a != b {
		t.Fatal("re-registration must return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind collision must panic")
		}
	}()
	r.Gauge("same", "")
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_ns", "", []time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (le is inclusive)
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // +Inf
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 5*time.Millisecond + time.Second
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	out := r.PrometheusString()
	for _, want := range []string{
		`h_ns_bucket{le="0.001"} 2`,
		`h_ns_bucket{le="0.01"} 3`,
		`h_ns_bucket{le="+Inf"} 4`,
		"h_ns_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestTickBucketsCoverNegativeDeltas(t *testing.T) {
	h := newHistogram(TickBuckets(10 * time.Millisecond))
	h.Observe(-4 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	// Mean of symmetric deltas is zero: rounding is unbiased.
	if h.Mean() != 0 {
		t.Fatalf("mean = %v, want 0", h.Mean())
	}
}

func TestCounterVecAndOverflow(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("drops_total", "", "tuple")
	v.With("1").Inc()
	v.With("1").Inc()
	v.With("2").Inc()
	out := r.PrometheusString()
	if !strings.Contains(out, `drops_total{tuple="1"} 2`) || !strings.Contains(out, `drops_total{tuple="2"} 1`) {
		t.Fatalf("vec output wrong:\n%s", out)
	}
	// Cardinality is bounded: past the cap, values collapse to overflow.
	for i := 0; i < VecMaxChildren+10; i++ {
		v.With(fmt.Sprint(i)).Inc()
	}
	if v.With("another-new-one") != v.With(OverflowLabel) {
		t.Fatal("expected overflow child once the vec is full")
	}
}

func TestPrometheusScalarFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("pkts_total", "packets").Add(3)
	r.Gauge("depth", "queue depth").Set(2)
	r.GaugeFunc("busy_seconds", "", func() float64 { return 0.25 })
	out := r.PrometheusString()
	for _, want := range []string{
		"# HELP pkts_total packets",
		"# TYPE pkts_total counter",
		"pkts_total 3",
		"# TYPE depth gauge",
		"depth 2",
		"busy_seconds 0.25",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestDumpHumanReadable(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(7)
	r.Histogram("h", "", []time.Duration{time.Millisecond}).Observe(time.Microsecond)
	out := r.DumpString()
	if !strings.Contains(out, "a_total") || !strings.Contains(out, "7") {
		t.Fatalf("dump missing counter:\n%s", out)
	}
	if !strings.Contains(out, "count") {
		t.Fatalf("dump missing histogram stats:\n%s", out)
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tracemod_test_total", "a metric").Add(42)
	srv := httptest.NewServer(Mux(reg))
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "tracemod_test_total 42") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/metrics?format=text"); !strings.Contains(out, "tracemod_test_total") {
		t.Fatalf("/metrics?format=text missing counter:\n%s", out)
	}
	if out := get("/healthz"); !strings.Contains(out, "ok") {
		t.Fatalf("/healthz = %q", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestUptimeGauge(t *testing.T) {
	r := NewRegistry()
	Uptime(r, time.Now().Add(-2*time.Second))
	out := r.PrometheusString()
	if !strings.Contains(out, "tracemod_uptime_seconds") {
		t.Fatalf("missing uptime gauge:\n%s", out)
	}
}

func TestGaugeVecAndRemove(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("farm_sessions_state", "", "session")
	gv.With("s-1").Set(2)
	gv.With("s-2").Set(5)
	if got := gv.With("s-1").Load(); got != 2 {
		t.Fatalf("s-1 = %d, want 2", got)
	}
	out := r.PrometheusString()
	if !strings.Contains(out, `farm_sessions_state{session="s-1"} 2`) ||
		!strings.Contains(out, `farm_sessions_state{session="s-2"} 5`) {
		t.Fatalf("gauge vec missing from export:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE farm_sessions_state gauge") {
		t.Fatalf("gauge vec exported with wrong type:\n%s", out)
	}

	// Removal drops the child from both export formats; re-creating the
	// label starts from zero.
	gv.Remove("s-1")
	gv.Remove("never-existed")
	out = r.PrometheusString()
	if strings.Contains(out, `session="s-1"`) {
		t.Fatalf("removed child still exported:\n%s", out)
	}
	if got := gv.With("s-1").Load(); got != 0 {
		t.Fatalf("recreated child = %d, want 0", got)
	}

	cv := r.CounterVec("farm_drops", "", "session")
	cv.With("s-1").Inc()
	cv.Remove("s-1")
	if strings.Contains(r.PrometheusString(), `farm_drops{session="s-1"}`) {
		t.Fatal("removed counter child still exported")
	}

	// Nil receivers stay no-ops.
	var nilGV *GaugeVec
	nilGV.With("x").Set(1)
	nilGV.Remove("x")
}
