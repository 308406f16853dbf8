// Package obs is the repository's telemetry subsystem: lock-free metric
// primitives (counters, gauges, fixed-bucket duration histograms), a named
// registry with Prometheus-text and human-readable export, and the HTTP
// debug routes that serve it. Per-packet tracing lives in obs/span.
//
// The package is dependency-free (stdlib only) and built so that a
// component instrumented with it pays ~nothing when observation is off:
// every metric method is safe on a nil receiver (a single predictable
// branch, no allocation), so instrumented code holds plain possibly-nil
// pointers instead of checking an "enabled" flag at every site.
//
// Updates are single atomic operations; snapshots (export) are
// monotonic-read consistent but not a point-in-time cut across metrics —
// the usual contract for scrape-based telemetry.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are nil-safe no-ops (Load returns 0).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Load returns the current count.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready; all
// methods are nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket duration histogram: bucket i counts
// observations ≤ bounds[i], with an implicit +Inf bucket at the end.
// Observe is lock-free (one atomic add per counter touched) and
// allocation-free. All methods are nil-safe.
type Histogram struct {
	bounds []time.Duration // sorted upper bounds
	counts []atomic.Int64  // len(bounds)+1, last is +Inf
	sum    atomic.Int64    // nanoseconds
	n      atomic.Int64
}

// DefBuckets is a general-purpose exponential scale from 10µs to 10s,
// suitable for packet delays and serialization times.
var DefBuckets = []time.Duration{
	10 * time.Microsecond, 100 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 10 * time.Second,
}

// TickBuckets spans ±tick around zero: the natural scale for quantization
// rounding deltas, which live in [-tick/2, +tick/2].
func TickBuckets(tick time.Duration) []time.Duration {
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	return []time.Duration{
		-tick / 2, -tick / 4, -tick / 10, 0,
		tick / 10, tick / 4, tick / 2, tick,
	}
}

func newHistogram(bounds []time.Duration) *Histogram {
	b := append([]time.Duration(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution by linear interpolation inside the bucket holding the
// target rank — the standard Prometheus histogram_quantile estimate, so
// accuracy is bucket-resolution-bounded. Returns 0 when empty; q is
// clamped to [0,1]. Observations in the +Inf bucket pin the estimate to
// the highest finite bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.Count() // nil-safe: 0
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	bounds, counts := h.snapshot()
	rank := q * float64(n)
	var cum float64
	for i, c := range counts {
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: no finite upper bound to interpolate toward.
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		upper := bounds[i]
		lower := bucketLower(bounds, i)
		frac := (rank - (cum - float64(c))) / float64(c)
		return lower + time.Duration(frac*float64(upper-lower))
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// bucketLower picks the interpolation floor for bucket i: the previous
// bound, or for the first bucket min(0, bound) so negative-bound scales
// (TickBuckets) interpolate within their own range instead of up from 0.
func bucketLower(bounds []time.Duration, i int) time.Duration {
	if i > 0 {
		return bounds[i-1]
	}
	if bounds[0] < 0 {
		return bounds[0]
	}
	return 0
}

// Compliance estimates the fraction of observations ≤ threshold — the
// service-level indicator "share of events inside the deadline". The
// bucket straddling the threshold contributes proportionally (same
// interpolation assumption as Quantile). Returns 1 when empty: an SLO
// with no events has not been violated.
func (h *Histogram) Compliance(threshold time.Duration) float64 {
	n := h.Count()
	if n == 0 {
		return 1
	}
	bounds, counts := h.snapshot()
	var good float64
	for i, c := range counts {
		if i >= len(bounds) {
			break // +Inf bucket: all above any finite threshold
		}
		upper := bounds[i]
		if upper <= threshold {
			good += float64(c)
			continue
		}
		lower := bucketLower(bounds, i)
		if threshold > lower {
			good += float64(c) * float64(threshold-lower) / float64(upper-lower)
		}
		break
	}
	return good / float64(n)
}

// snapshot returns bounds plus non-cumulative per-bucket counts (the last
// entry is the +Inf bucket).
func (h *Histogram) snapshot() ([]time.Duration, []int64) {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// VecMaxChildren bounds a CounterVec's label cardinality; further distinct
// label values collapse into the OverflowLabel child so a looping trace
// cannot grow a metric without bound.
const VecMaxChildren = 1024

// OverflowLabel is the label value used once a CounterVec is full.
const OverflowLabel = "overflow"

// DroppedLabelsName is the registry-wide counter of label values that hit
// a Vec's cardinality cap and were collapsed into OverflowLabel. A nonzero
// value is the "a farm is minting unbounded labels" alarm.
const DroppedLabelsName = "tracemod_obs_dropped_labels_total"

// CounterVec is a family of counters keyed by one label. With is nil-safe
// (returns a nil *Counter, whose methods are no-ops).
type CounterVec struct {
	label    string
	mu       sync.RWMutex
	children map[string]*Counter
	order    []string
	dropped  *Counter // registry-wide DroppedLabelsName counter (nil-safe)
}

// With returns the child counter for the given label value, creating it if
// needed (up to VecMaxChildren distinct values).
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[value]; ok {
		return c
	}
	if len(v.children) >= VecMaxChildren {
		v.dropped.Inc()
		value = OverflowLabel
		if c, ok := v.children[value]; ok {
			return c
		}
	}
	c = &Counter{}
	v.children[value] = c
	v.order = append(v.order, value)
	return c
}

// Remove deletes the child for the given label value (session churn:
// emud removes a session's children when the session is deleted, so the
// export does not accumulate dead labels). Removing an absent value is a
// no-op. A counter handle obtained earlier keeps working but is no longer
// exported.
func (v *CounterVec) Remove(value string) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.children[value]; !ok {
		return
	}
	delete(v.children, value)
	for i, val := range v.order {
		if val == value {
			v.order = append(v.order[:i], v.order[i+1:]...)
			break
		}
	}
}

// snapshot returns label values in creation order with their counts.
func (v *CounterVec) snapshot() ([]string, []int64) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	vals := append([]string(nil), v.order...)
	counts := make([]int64, len(vals))
	for i, val := range vals {
		counts[i] = v.children[val].Load()
	}
	return vals, counts
}

// GaugeVec is a family of gauges keyed by one label, the gauge analogue
// of CounterVec (emud uses it for per-session state). With is nil-safe.
type GaugeVec struct {
	label    string
	mu       sync.RWMutex
	children map[string]*Gauge
	order    []string
	dropped  *Counter // registry-wide DroppedLabelsName counter (nil-safe)
}

// With returns the child gauge for the given label value, creating it if
// needed (up to VecMaxChildren distinct values).
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	g, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.children[value]; ok {
		return g
	}
	if len(v.children) >= VecMaxChildren {
		v.dropped.Inc()
		value = OverflowLabel
		if g, ok := v.children[value]; ok {
			return g
		}
	}
	g = &Gauge{}
	v.children[value] = g
	v.order = append(v.order, value)
	return g
}

// Remove deletes the child for the given label value (no-op if absent).
func (v *GaugeVec) Remove(value string) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.children[value]; !ok {
		return
	}
	delete(v.children, value)
	for i, val := range v.order {
		if val == value {
			v.order = append(v.order[:i], v.order[i+1:]...)
			break
		}
	}
}

// snapshot returns label values in creation order with their values.
func (v *GaugeVec) snapshot() ([]string, []int64) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	vals := append([]string(nil), v.order...)
	values := make([]int64, len(vals))
	for i, val := range vals {
		values[i] = v.children[val].Load()
	}
	return vals, values
}

// metricKind discriminates registry entries for export.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterVec
	kindGaugeVec
	kindGaugeFunc
	kindCounterFunc
)

// metric is one registered entry.
type metric struct {
	name, help string
	kind       metricKind
	c          *Counter
	g          *Gauge
	h          *Histogram
	vec        *CounterVec
	gvec       *GaugeVec
	fn         func() float64
}

// Registry holds named metrics for export. Registration is idempotent:
// asking for an existing name of the same kind returns the existing
// instance (so two Distill calls sharing a registry accumulate), and a
// kind collision panics — it is a programming error, like a duplicate
// expvar. All methods are nil-safe: a nil registry hands out nil metrics,
// which in turn no-op, so "observability off" needs no branches at the
// instrumentation sites.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func (r *Registry) lookup(name string, kind metricKind) (*metric, bool) {
	m, ok := r.byName[name]
	if !ok {
		return nil, false
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	return m, true
}

func (r *Registry) add(m *metric) {
	r.metrics = append(r.metrics, m)
	r.byName[m.name] = m
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, kindCounter); ok {
		return m.c
	}
	m := &metric{name: name, help: help, kind: kindCounter, c: &Counter{}}
	r.add(m)
	return m.c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, kindGauge); ok {
		return m.g
	}
	m := &metric{name: name, help: help, kind: kindGauge, g: &Gauge{}}
	r.add(m)
	return m.g
}

// Histogram registers (or returns the existing) duration histogram with
// the given bucket upper bounds (DefBuckets if nil).
func (r *Registry) Histogram(name, help string, bounds []time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, kindHistogram); ok {
		return m.h
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	m := &metric{name: name, help: help, kind: kindHistogram, h: newHistogram(bounds)}
	r.add(m)
	return m.h
}

// CounterVec registers (or returns the existing) counter family keyed by
// label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, kindCounterVec); ok {
		return m.vec
	}
	m := &metric{name: name, help: help, kind: kindCounterVec,
		vec: &CounterVec{label: label, children: map[string]*Counter{},
			dropped: r.droppedLabelsLocked()}}
	r.add(m)
	return m.vec
}

// GaugeVec registers (or returns the existing) gauge family keyed by
// label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, kindGaugeVec); ok {
		return m.gvec
	}
	m := &metric{name: name, help: help, kind: kindGaugeVec,
		gvec: &GaugeVec{label: label, children: map[string]*Gauge{},
			dropped: r.droppedLabelsLocked()}}
	r.add(m)
	return m.gvec
}

// droppedLabelsLocked registers (or returns) the registry-wide
// DroppedLabelsName counter. Caller holds r.mu.
func (r *Registry) droppedLabelsLocked() *Counter {
	if m, ok := r.lookup(DroppedLabelsName, kindCounter); ok {
		return m.c
	}
	m := &metric{name: DroppedLabelsName,
		help: "Label values collapsed into the overflow child by a Vec cardinality cap.",
		kind: kindCounter, c: &Counter{}}
	r.add(m)
	return m.c
}

// GaugeFunc registers a gauge computed at export time by fn (for values a
// component already tracks, like a queue's busy horizon).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.lookup(name, kindGaugeFunc); ok {
		return
	}
	r.add(&metric{name: name, help: help, kind: kindGaugeFunc, fn: fn})
}

// CounterFunc registers a counter read at export time by fn (for existing
// atomic counters that should not be double-tracked).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.lookup(name, kindCounterFunc); ok {
		return
	}
	r.add(&metric{name: name, help: help, kind: kindCounterFunc, fn: fn})
}

// each calls fn for every metric in registration order.
func (r *Registry) each(fn func(*metric)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	snap := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range snap {
		fn(m)
	}
}
