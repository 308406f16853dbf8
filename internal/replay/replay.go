// Package replay handles replay traces as artifacts: a line-oriented text
// serialization for storing and exchanging them, and synthetic trace
// generators (constant, step, impulse, ramp) for the paper's Section 6
// application of modulating with conditions no real network conveniently
// produces — including the WaveLAN-like synthetic trace behind Figure 1.
package replay

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/obs"
)

// Package-level telemetry, enabled by EnableMetrics. The counters are
// nil-safe, so an un-instrumented process pays one branch per trace (not
// per tuple beyond an Add) and no allocation.
var (
	tuplesRead      *obs.Counter
	tuplesWritten   *obs.Counter
	tuplesSynthetic *obs.Counter
	tracesRead      *obs.Counter
	readErrors      *obs.Counter
	tuplesDropped   *obs.Counter
	tuplesClamped   *obs.Counter
)

// EnableMetrics registers the replay package's counters (names under
// tracemod_replay_*) on reg, after which Read, Write, and the synthetic
// generators account the tuples they handle. Passing nil disables them
// again.
func EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		tuplesRead, tuplesWritten, tuplesSynthetic, tracesRead, readErrors = nil, nil, nil, nil, nil
		tuplesDropped, tuplesClamped = nil, nil
		return
	}
	tuplesRead = reg.Counter("tracemod_replay_tuples_read_total", "Tuples parsed from serialized replay traces.")
	tuplesWritten = reg.Counter("tracemod_replay_tuples_written_total", "Tuples serialized to replay trace files.")
	tuplesSynthetic = reg.Counter("tracemod_replay_tuples_synthetic_total", "Tuples emitted by the synthetic generators.")
	tracesRead = reg.Counter("tracemod_replay_traces_read_total", "Replay trace files parsed successfully.")
	readErrors = reg.Counter("tracemod_replay_read_errors_total", "Replay trace parses that failed.")
	tuplesDropped = reg.Counter("tracemod_replay_tuples_dropped_total", "Tuples rejected by sanitization or lenient parsing.")
	tuplesClamped = reg.Counter("tracemod_replay_tuples_clamped_total", "Tuples repaired in place by sanitization.")
}

// FileHeader opens every serialized replay trace.
const FileHeader = "#tracemod-replay v1"

// Write serializes a replay trace: a header line, then one tuple per line
// as "duration_us F_us Vb_ns_per_byte Vr_ns_per_byte loss".
func Write(w io.Writer, tr core.Trace) error {
	sw, err := NewStreamWriter(w)
	if err != nil {
		return err
	}
	for _, t := range tr {
		if err := sw.Append(t); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// StreamWriter serializes a replay trace incrementally, tuple by tuple,
// so a live distillation can be tailed from the file while it grows.
// Because the format is line-oriented with no trailer, a trace written
// through a StreamWriter is byte-identical to one written by Write, and
// every Flush leaves a well-formed (if shorter) trace on disk.
type StreamWriter struct {
	bw      *bufio.Writer
	written int64
}

// NewStreamWriter writes the file header immediately and returns a
// writer ready to Append tuples.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, FileHeader); err != nil {
		return nil, err
	}
	return &StreamWriter{bw: bw}, nil
}

// Append serializes one tuple.
func (sw *StreamWriter) Append(t core.Tuple) error {
	_, err := fmt.Fprintf(sw.bw, "%d %d %.3f %.3f %.6f\n",
		t.D.Microseconds(), t.F.Microseconds(), float64(t.Vb), float64(t.Vr), t.L)
	if err != nil {
		return err
	}
	sw.written++
	return nil
}

// Flush pushes buffered lines to the underlying writer and accounts the
// tuples written since the previous Flush. Call after each batch of
// appends a tailing reader should see, and once before discarding the
// writer.
func (sw *StreamWriter) Flush() error {
	if err := sw.bw.Flush(); err != nil {
		return err
	}
	tuplesWritten.Add(sw.written)
	sw.written = 0
	return nil
}

// ErrBadHeader is returned when the input is not a replay trace.
var ErrBadHeader = errors.New("replay: missing or unknown header")

// Read parses a serialized replay trace. Blank lines and #-comments after
// the header are ignored.
func Read(r io.Reader) (core.Trace, error) {
	tr, err := read(r)
	if err != nil {
		readErrors.Inc()
		return nil, err
	}
	tracesRead.Inc()
	tuplesRead.Add(int64(len(tr)))
	return tr, nil
}

// headerScanner wraps the line-scanning shared by the strict and lenient
// parsers: header check, blank/comment skipping, line numbering.
type headerScanner struct {
	sc   *bufio.Scanner
	line int
}

func newHeaderScanner(r io.Reader) *headerScanner {
	return &headerScanner{sc: bufio.NewScanner(r)}
}

func (h *headerScanner) expectHeader() error {
	if !h.sc.Scan() || strings.TrimSpace(h.sc.Text()) != FileHeader {
		return ErrBadHeader
	}
	h.line = 1
	return nil
}

// next returns the next non-blank, non-comment line.
func (h *headerScanner) next() (string, bool) {
	for h.sc.Scan() {
		h.line++
		text := strings.TrimSpace(h.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		return text, true
	}
	return "", false
}

func (h *headerScanner) err() error { return h.sc.Err() }

// parseTupleLine parses one "duration_us F_us Vb Vr loss" line.
func parseTupleLine(text string) (core.Tuple, error) {
	var dUS, fUS int64
	var vb, vr, loss float64
	if _, err := fmt.Sscanf(text, "%d %d %f %f %f", &dUS, &fUS, &vb, &vr, &loss); err != nil {
		return core.Tuple{}, err
	}
	return core.Tuple{
		D: time.Duration(dUS) * time.Microsecond,
		DelayParams: core.DelayParams{
			F:  time.Duration(fUS) * time.Microsecond,
			Vb: core.PerByte(vb),
			Vr: core.PerByte(vr),
		},
		L: loss,
	}, nil
}

func read(r io.Reader) (core.Trace, error) {
	sc := newHeaderScanner(r)
	if err := sc.expectHeader(); err != nil {
		return nil, err
	}
	var tr core.Trace
	for {
		text, ok := sc.next()
		if !ok {
			break
		}
		t, err := parseTupleLine(text)
		if err != nil {
			return nil, fmt.Errorf("replay: line %d: %w", sc.line, err)
		}
		tr = append(tr, t)
	}
	if err := sc.err(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ReadFile parses the serialized replay trace at path.
func ReadFile(path string) (core.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Constant produces a trace holding params and loss for dur, in step-sized
// tuples.
func Constant(params core.DelayParams, loss float64, dur, step time.Duration) core.Trace {
	if step <= 0 {
		step = time.Second
	}
	var tr core.Trace
	for at := time.Duration(0); at < dur; at += step {
		d := step
		if remaining := dur - at; remaining < d {
			d = remaining
		}
		tr = append(tr, core.Tuple{D: d, DelayParams: params, L: loss})
	}
	tuplesSynthetic.Add(int64(len(tr)))
	return tr
}

// Step switches from a to b at switchAt, running dur total (the step
// variation of the paper's synthetic-trace application).
func Step(a, b core.DelayParams, lossA, lossB float64, switchAt, dur, step time.Duration) core.Trace {
	first := Constant(a, lossA, switchAt, step)
	second := Constant(b, lossB, dur-switchAt, step)
	return append(first, second...)
}

// Impulse runs base conditions with a spike of width starting at, for dur
// total (the impulse variation of the synthetic-trace application).
func Impulse(base, spike core.DelayParams, lossBase, lossSpike float64, at, width, dur, step time.Duration) core.Trace {
	tr := Constant(base, lossBase, at, step)
	tr = append(tr, Constant(spike, lossSpike, width, step)...)
	return append(tr, Constant(base, lossBase, dur-at-width, step)...)
}

// Ramp interpolates linearly from a to b over dur.
func Ramp(a, b core.DelayParams, loss float64, dur, step time.Duration) core.Trace {
	if step <= 0 {
		step = time.Second
	}
	var tr core.Trace
	n := int(dur / step)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		if n == 1 {
			frac = 0
		}
		lerp := func(x, y float64) float64 { return x + (y-x)*frac }
		tr = append(tr, core.Tuple{
			D: step,
			DelayParams: core.DelayParams{
				F:  time.Duration(lerp(float64(a.F), float64(b.F))),
				Vb: core.PerByte(lerp(float64(a.Vb), float64(b.Vb))),
				Vr: core.PerByte(lerp(float64(a.Vr), float64(b.Vr))),
			},
			L: loss,
		})
	}
	tuplesSynthetic.Add(int64(len(tr)))
	return tr
}

// WaveLANLike returns the synthetic trace used for Figure 1: performance
// "close to that of a WaveLAN device" — about 1.5 Mb/s bottleneck
// bandwidth, a couple of milliseconds of latency, light residual cost, and
// a little loss.
func WaveLANLike(dur time.Duration) core.Trace {
	params := core.DelayParams{
		F:  2 * time.Millisecond,
		Vb: core.PerByteFromBandwidth(1.5e6),
		Vr: core.PerByte(300),
	}
	return Constant(params, 0.01, dur, time.Second)
}

// SlowNetLike returns the much slower synthetic network used to validate
// that delay compensation is independent of the traced network's speed
// (Section 3.3): roughly a 100 Kb/s wide-area link.
func SlowNetLike(dur time.Duration) core.Trace {
	params := core.DelayParams{
		F:  40 * time.Millisecond,
		Vb: core.PerByteFromBandwidth(100e3),
		Vr: core.PerByte(2000),
	}
	return Constant(params, 0.02, dur, time.Second)
}

// Synthetic builds a synthetic trace of length dur by name: "wavelan",
// "slow", "step", or "impulse" (Section 6's synthetic-trace application).
func Synthetic(kind string, dur time.Duration) (core.Trace, error) {
	switch kind {
	case "wavelan":
		return WaveLANLike(dur), nil
	case "slow":
		return SlowNetLike(dur), nil
	case "step":
		good := core.DelayParams{F: 2 * time.Millisecond, Vb: core.PerByteFromBandwidth(1.5e6), Vr: 300}
		bad := core.DelayParams{F: 20 * time.Millisecond, Vb: core.PerByteFromBandwidth(200e3), Vr: 2000}
		return Step(good, bad, 0.01, 0.05, dur/2, dur, time.Second), nil
	case "impulse":
		good := core.DelayParams{F: 2 * time.Millisecond, Vb: core.PerByteFromBandwidth(1.5e6), Vr: 300}
		spike := core.DelayParams{F: 100 * time.Millisecond, Vb: core.PerByteFromBandwidth(100e3), Vr: 5000}
		return Impulse(good, spike, 0.01, 0.3, dur/3, dur/6, dur, time.Second), nil
	default:
		return nil, fmt.Errorf("unknown synthetic trace %q (want wavelan, slow, step or impulse)", kind)
	}
}
