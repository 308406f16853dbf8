// Package tracemod reproduces "Trace-Based Mobile Network Emulation"
// (Noble, Satyanarayanan, Nguyen, Katz — SIGCOMM 1997): trace modulation,
// a methodology that records the end-to-end behaviour of a real wireless
// network and re-creates it, faithfully and repeatably, on a wired
// testbed.
//
// The three phases and where they live:
//
//   - Collection (internal/capture, internal/pinger, internal/tracefmt):
//     an in-kernel-style tracer logs every packet plus wireless device
//     characteristics while a modified ping sends one small and two
//     back-to-back large echoes each second.
//   - Distillation (internal/distill, internal/core): the observations are
//     reduced to a replay trace — network-quality tuples ⟨d, F, Vb, Vr, L⟩
//     — by solving the paper's delay equations per triplet, smoothing with
//     a 5-second sliding window, and estimating loss from ECHOREPLY
//     sequence gaps.
//   - Modulation (internal/modulation, internal/livewire): a layer between
//     IP and the device delays and drops all traffic through a single
//     unified bottleneck queue, quantized to the host clock tick, with
//     delay compensation on inbound packets.
//
// Substrates: a deterministic virtual-time kernel (internal/sim), wire
// formats (internal/packet), an emulated network (internal/simnet), a
// WaveLAN-like radio model and the paper's four scenarios
// (internal/radio, internal/scenario), transports (internal/transport),
// and the three validation benchmarks (internal/apps/...). The experiment
// harness (internal/expt) regenerates every table and figure in the
// paper's evaluation; see cmd/expt.
//
// This facade offers the one-call versions of the pipeline for programs
// that just want a shaped network or a distilled trace.
package tracemod

import (
	"fmt"
	"io"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/distill"
	"tracemod/internal/expt"
	"tracemod/internal/replay"
	"tracemod/internal/scenario"
)

// Version identifies the library release.
const Version = "1.0.0"

// CollectAndDistill performs one collection traversal of the named
// scenario (Porter, Flagstaff, Wean, or Chatterbox) in the simulated
// testbed and returns the distilled replay trace.
func CollectAndDistill(scenarioName string, seed int64) (core.Trace, error) {
	sc, ok := scenario.ByName(scenarioName)
	if !ok {
		return nil, fmt.Errorf("tracemod: unknown scenario %q", scenarioName)
	}
	o := expt.Default()
	o.BaseSeed = seed
	res, err := expt.Collect(sc, 0, o)
	if err != nil {
		return nil, err
	}
	return res.Replay, nil
}

// ReadReplay parses a serialized replay trace.
func ReadReplay(r io.Reader) (core.Trace, error) { return replay.Read(r) }

// WriteReplay serializes a replay trace.
func WriteReplay(w io.Writer, tr core.Trace) error { return replay.Write(w, tr) }

// Synthetic builds simple synthetic traces by name: "wavelan", "slow",
// "step", or "impulse" (Section 6's synthetic-trace application).
func Synthetic(kind string, dur time.Duration) (core.Trace, error) {
	return replay.Synthetic(kind, dur)
}

// DefaultDistillConfig returns the paper's distillation parameters.
func DefaultDistillConfig() distill.Config { return distill.DefaultConfig() }

// Scenarios lists the built-in scenario names.
func Scenarios() []string {
	var names []string
	for _, sc := range scenario.All() {
		names = append(names, sc.Name)
	}
	return names
}
