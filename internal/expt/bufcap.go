// Buffer ablation: the paper's collection kernel keeps careful count of
// records lost to circular-buffer overruns (Section 3.1.2). This sweep
// shows why that bookkeeping matters: as the in-kernel buffer shrinks
// below the drain rate, records vanish, triplets break up, and the
// distilled trace degrades — visibly, because the losses are counted
// rather than silent.

package expt

import (
	"fmt"
	"strings"

	"tracemod/internal/capture"
	"tracemod/internal/distill"
	"tracemod/internal/pinger"
	"tracemod/internal/scenario"
	"tracemod/internal/sim"
)

// BufRow is one buffer size's collection outcome.
type BufRow struct {
	BufCap           int
	PacketsKept      int
	RecordsLost      int
	TripletsComplete int
	MeanBWMbps       float64
	DistillError     string // non-empty when distillation failed outright
}

// BufResult is the buffer-capacity ablation.
type BufResult struct {
	Rows []BufRow
}

// AblateBuffer sweeps the in-kernel record buffer capacity on identical
// Porter traversals.
func AblateBuffer(o Options) (*BufResult, error) {
	res := &BufResult{}
	for _, bufCap := range []int{8, 16, 32, 128, 1 << 16} {
		s := sim.New(o.BaseSeed + 13)
		tb := scenario.BuildWireless(s, scenario.Porter)
		dur := scenario.Porter.Profile.Duration()
		pinger.Start(s, tb.Laptop, scenario.ServerIP, dur)
		tr, err := capture.Collect(s, tb.Laptop.NIC(0), bufCap, dur, "buffer ablation")
		s.Close()
		if err != nil {
			return nil, err
		}
		row := BufRow{
			BufCap:      bufCap,
			PacketsKept: len(tr.Packets),
			RecordsLost: tr.TotalLost(),
		}
		d, err := distill.Distill(tr, o.Distill)
		if err != nil {
			row.DistillError = err.Error()
		} else {
			row.TripletsComplete = d.TripletsComplete
			row.MeanBWMbps = d.Replay.MeanVb().BitsPerSec() / 1e6
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the ablation.
func (r *BufResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: in-kernel collection buffer capacity (Porter traversal)\n")
	fmt.Fprintf(&b, "%-8s %-10s %-10s %-10s %-10s\n", "bufcap", "kept", "lost", "triplets", "bw Mb/s")
	for _, row := range r.Rows {
		bw := fmt.Sprintf("%.3f", row.MeanBWMbps)
		if row.DistillError != "" {
			bw = "failed"
		}
		fmt.Fprintf(&b, "%-8d %-10d %-10d %-10d %-10s\n",
			row.BufCap, row.PacketsKept, row.RecordsLost, row.TripletsComplete, bw)
	}
	b.WriteString("overruns are counted, never silent: the lost column is the kernel's own accounting.\n")
	return b.String()
}
