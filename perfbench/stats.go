package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tailBeyond is the number of samples that must lie above a reported
// percentile: a "p99" over fewer than ~1000 samples is really the highest
// percentile that still has tailBeyond samples past it.
const tailBeyond = 10

// tailPercentile returns the highest whole percentile in [50, want] that
// leaves at least tailBeyond of n samples strictly above its nearest-rank
// position, and false when even the median does not.
func tailPercentile(n int64, want int) (int, bool) {
	for p := want; p >= 50; p-- {
		if n-rankOf(n, float64(p)) >= tailBeyond {
			return p, true
		}
	}
	return 0, false
}

// rankOf is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rankOf(n int64, p float64) int64 {
	r := int64(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// hist is a log-linear histogram of non-negative integers (nanoseconds):
// 64 sub-buckets per power of two, so a reported quantile is within 1.6%
// of the sample it stands for, in constant memory however long the run.
// Not safe for concurrent use.
type hist struct {
	counts [64 * 64]int64
	n      int64
	max    int64
}

const histSub = 64

func histIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 7 // v >> e lands in [64, 128)
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histValue returns the midpoint of bucket i.
func histValue(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := i/histSub - 1
	m := int64(i%histSub + histSub)
	lo := m << uint(e)
	return lo + (int64(1)<<uint(e))/2
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// quantile returns the nearest-rank value of percentile p.
func (h *hist) quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := rankOf(h.n, p)
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return histValue(i)
		}
	}
	return h.max
}

// tail is a reported tail percentile: the level actually used and the
// sample count it was drawn from.
type tail struct {
	P     int
	N     int64
	Value float64
}

// tailOf applies the tailBeyond rule to h, scaling values by div.
func tailOf(h *hist, want int, div float64) (tail, error) {
	p, ok := tailPercentile(h.n, want)
	if !ok {
		return tail{}, fmt.Errorf("%d samples cannot support any percentile with %d beyond it", h.n, tailBeyond)
	}
	return tail{P: p, N: h.n, Value: float64(h.quantile(float64(p))) / div}, nil
}

// sliced keeps one histogram per equal time slice of a timed phase, so a
// median can be taken per slice and a burst of outside contention moves
// one slice's figure rather than the run's.
type sliced struct {
	from, width int64
	hs          []*hist
}

func newSliced(from, to int64, n int) *sliced {
	s := &sliced{from: from, width: max((to-from)/int64(n), 1)}
	for i := 0; i < n; i++ {
		s.hs = append(s.hs, &hist{})
	}
	return s
}

// record files v under the slice holding instant at (same clock as from);
// instants outside the phase are ignored.
func (s *sliced) record(at, v int64) {
	i := (at - s.from) / s.width
	if at < s.from || i >= int64(len(s.hs)) {
		return
	}
	s.hs[i].record(v)
}

// medianP50 returns the median over slices of each slice's p50, using
// only slices with enough samples for a p50 under the tailBeyond rule.
func (s *sliced) medianP50() (float64, int) {
	var xs []float64
	for _, h := range s.hs {
		if _, ok := tailPercentile(h.n, 50); ok {
			xs = append(xs, float64(h.quantile(50)))
		}
	}
	return median(xs), len(xs)
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ---- spans ------------------------------------------------------------

// spanRec is one recorded interval around a call into a layer's public
// API. Times are nanoseconds since the recorder's epoch; Parent indexes
// the enclosing span in the recorder (-1 for roots); Op is the workload's
// operation id.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// spanAgg accumulates every span of one name, recorded or not.
type spanAgg struct {
	count, total atomic.Int64
	mu           sync.Mutex
	h            *hist // per-span durations; nil for hot-path names
}

// spans records intervals for the traced run. A nil *spans is the
// untraced run: every method is a no-op costing one pointer test. Hot
// data-plane spans aggregate always but are stored only up to keep.
type spans struct {
	epoch time.Time
	keep  int

	mu   sync.Mutex
	recs []spanRec
	aggs sync.Map // name -> *spanAgg
	// dropped counts spans aggregated but not stored past keep.
	dropped atomic.Int64
}

func newSpans(keep int) *spans {
	return &spans{epoch: time.Now(), keep: keep}
}

func (sp *spans) now() int64 {
	if sp == nil {
		return 0
	}
	return int64(time.Since(sp.epoch))
}

func (sp *spans) agg(name string, withHist bool) *spanAgg {
	if a, ok := sp.aggs.Load(name); ok {
		return a.(*spanAgg)
	}
	a := &spanAgg{}
	if withHist {
		a.h = &hist{}
	}
	got, _ := sp.aggs.LoadOrStore(name, a)
	return got.(*spanAgg)
}

// add records a finished span and returns its index (-1 if only
// aggregated). withHist keeps a duration histogram for the name.
func (sp *spans) add(name string, start, end int64, parent int32, op int64, withHist bool) int32 {
	if sp == nil {
		return -1
	}
	a := sp.agg(name, withHist)
	a.count.Add(1)
	a.total.Add(end - start)
	if a.h != nil {
		a.mu.Lock()
		a.h.record(end - start)
		a.mu.Unlock()
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.recs) >= sp.keep {
		sp.dropped.Add(1)
		return -1
	}
	sp.recs = append(sp.recs, spanRec{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return int32(len(sp.recs) - 1)
}

// begin opens a span that is closed with end; used where children must
// name their parent before it finishes.
func (sp *spans) begin(name string, parent int32, op int64) int32 {
	if sp == nil {
		return -1
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.recs) >= sp.keep {
		return -1
	}
	sp.recs = append(sp.recs, spanRec{Name: name, Start: sp.now(), End: -1, Parent: parent, Op: op})
	return int32(len(sp.recs) - 1)
}

// end closes a span opened by begin, aggregating it under its name.
func (sp *spans) end(id int32, name string, start int64, withHist bool) {
	if sp == nil {
		return
	}
	end := sp.now()
	a := sp.agg(name, withHist)
	a.count.Add(1)
	a.total.Add(end - start)
	if a.h != nil {
		a.mu.Lock()
		a.h.record(end - start)
		a.mu.Unlock()
	}
	if id >= 0 {
		sp.mu.Lock()
		sp.recs[id].End = end
		sp.mu.Unlock()
	}
}

// stats returns the count and mean duration (ns) of a span name.
func (sp *spans) stats(name string) (int64, float64) {
	if sp == nil {
		return 0, 0
	}
	a, ok := sp.aggs.Load(name)
	if !ok {
		return 0, 0
	}
	ag := a.(*spanAgg)
	n := ag.count.Load()
	if n == 0 {
		return 0, 0
	}
	return n, float64(ag.total.Load()) / float64(n)
}

// quantileNS returns a duration percentile of a histogrammed span name.
func (sp *spans) quantileNS(name string, p float64) float64 {
	if sp == nil {
		return 0
	}
	a, ok := sp.aggs.Load(name)
	if !ok {
		return 0
	}
	ag := a.(*spanAgg)
	ag.mu.Lock()
	defer ag.mu.Unlock()
	if ag.h == nil {
		return 0
	}
	return float64(ag.h.quantile(p))
}

// selfTimes returns, for every stored span named name, its duration minus
// the union of its stored children's intervals (clipped to the parent).
func (sp *spans) selfTimes(name string) []int64 {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return selfTimes(sp.recs, name)
}

func selfTimes(recs []spanRec, name string) []int64 {
	kids := map[int32][][2]int64{}
	for _, r := range recs {
		if r.Parent >= 0 && r.End >= 0 {
			kids[r.Parent] = append(kids[r.Parent], [2]int64{r.Start, r.End})
		}
	}
	var out []int64
	for i, r := range recs {
		if r.Name != name || r.End < 0 {
			continue
		}
		out = append(out, r.End-r.Start-covered(r.Start, r.End, kids[int32(i)]))
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curE {
			curE = max(curE, iv[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv[0], iv[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write dumps the stored spans as JSON lines.
func (sp *spans) write(path string) error {
	if sp == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sp.mu.Lock()
	for _, r := range sp.recs {
		if err := enc.Encode(r); err != nil {
			sp.mu.Unlock()
			f.Close()
			return err
		}
	}
	sp.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
