package distill

import (
	"errors"
	"math"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/tracefmt"
)

func TestSanitizeCollectedCleanPassthrough(t *testing.T) {
	truth := core.DelayParams{F: 2 * time.Millisecond, Vb: 5000, Vr: 800}
	tr := synthTrace(5, func(int) core.DelayParams { return truth }, noLoss)
	out, rep := SanitizeCollected(tr, SanitizeOptions{})
	if !rep.Clean() {
		t.Fatalf("clean trace reported dirty: %s", rep)
	}
	if len(out.Packets) != len(tr.Packets) {
		t.Fatalf("packets %d -> %d", len(tr.Packets), len(out.Packets))
	}
	if len(ValidateCollected(tr, SanitizeOptions{})) != 0 {
		t.Fatal("ValidateCollected flagged a clean trace")
	}
}

func TestSanitizeCollectedRules(t *testing.T) {
	tr := &tracefmt.Trace{
		Packets: []tracefmt.PacketRecord{
			{At: 0, Size: 100, RTT: -1},
			{At: 1e6, Size: 0, RTT: -1},                     // zero size: drop
			{At: 2e6, Size: 100, Dir: 9, RTT: -1},           // bad direction: drop
			{At: 3e6, Size: 100, RTT: -7},                   // bad rtt sentinel: clear
			{At: 3e6 - 10e6, Size: 100, RTT: -1},            // 10ms backwards: clamp
			{At: int64(time.Hour) * 30, Size: 100, RTT: -1}, // 30h forward: drop
			{At: 4e6, Size: 100, RTT: int64(time.Hour)},     // absurd rtt: clear
			{At: -1e18, Size: 100, RTT: -1},                 // deep past: drop
		},
		Devices: []tracefmt.DeviceRecord{
			{At: 0, Signal: 10},
			{At: 1e6, Signal: float32(math.NaN())}, // NaN reading: drop
			{At: 2e6, Quality: float32(math.Inf(1))},
			{At: 3e6, Signal: 11},
		},
	}
	out, rep := SanitizeCollected(tr, SanitizeOptions{})
	if rep.PacketsKept != 4 || rep.PacketsDropped != 4 {
		t.Fatalf("packets: %s", rep)
	}
	if rep.PacketsClamped != 1 || rep.RTTsCleared != 2 {
		t.Fatalf("clamped=%d cleared=%d: %s", rep.PacketsClamped, rep.RTTsCleared, rep)
	}
	if rep.DevicesKept != 2 || rep.DevicesDropped != 2 {
		t.Fatalf("devices: %s", rep)
	}
	// The clamped packet pins to its predecessor's timestamp.
	if out.Packets[2].At != 3e6 {
		t.Fatalf("clamped At = %d, want 3e6", out.Packets[2].At)
	}
	// Cleared RTTs become the sentinel.
	for _, p := range out.Packets {
		if p.RTT < -1 || p.RTT > int64(time.Hour) {
			t.Fatalf("rtt %d survived", p.RTT)
		}
	}
	// Timestamps are monotonic on the way out.
	for i := 1; i < len(out.Packets); i++ {
		if out.Packets[i].At < out.Packets[i-1].At {
			t.Fatalf("output not monotonic at %d", i)
		}
	}
	// The input was not modified.
	if tr.Packets[4].At != 3e6-10e6 {
		t.Fatal("SanitizeCollected mutated its input")
	}
	// ValidateCollected names every class of problem without modifying.
	problems := ValidateCollected(tr, SanitizeOptions{})
	if len(problems) == 0 {
		t.Fatal("ValidateCollected found nothing on a dirty trace")
	}
}

func TestValidateCollectedCapsOutput(t *testing.T) {
	tr := &tracefmt.Trace{}
	for i := 0; i < 100; i++ {
		tr.Packets = append(tr.Packets, tracefmt.PacketRecord{At: int64(i), Size: 0})
	}
	problems := ValidateCollected(tr, SanitizeOptions{})
	if len(problems) != maxProblems {
		t.Fatalf("problems = %d, want cap %d", len(problems), maxProblems)
	}
}

func TestDistillStrictRejectsDirtyTrace(t *testing.T) {
	truth := core.DelayParams{F: 2 * time.Millisecond, Vb: 5000, Vr: 800}
	tr := synthTrace(10, func(int) core.DelayParams { return truth }, noLoss)
	tr.Packets[7].Size = 0 // one bad record

	cfg := DefaultConfig()
	cfg.Strict = true
	if _, err := Distill(tr, cfg); !errors.Is(err, ErrDirtyTrace) {
		t.Fatalf("err = %v, want ErrDirtyTrace", err)
	}

	// Non-strict mode distills around the damage.
	cfg.Strict = false
	res, err := Distill(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collected.Clean() || res.Collected.PacketsDropped != 1 {
		t.Fatalf("collected report = %s", res.Collected)
	}
	if err := res.Replay.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDistillBoundsCorruptTimestamp is the reason MaxGap exists: one
// damaged timestamp near the int64 horizon must not make the windowing
// loop walk millions of empty steps.
func TestDistillBoundsCorruptTimestamp(t *testing.T) {
	truth := core.DelayParams{F: 2 * time.Millisecond, Vb: 5000, Vr: 800}
	tr := synthTrace(10, func(int) core.DelayParams { return truth }, noLoss)
	tr.Packets[len(tr.Packets)-1].At = int64(1) << 62

	done := make(chan *Result, 1)
	go func() {
		res, err := Distill(tr, DefaultConfig())
		if err != nil {
			done <- nil
			return
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res == nil {
			t.Fatal("distill failed")
		}
		if res.Collected.PacketsDropped != 1 {
			t.Fatalf("collected report = %s", res.Collected)
		}
		if got := res.Replay.TotalDuration(); got > time.Minute {
			t.Fatalf("replay spans %v; the corrupt timestamp leaked into windowing", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("distill hung on a corrupt timestamp")
	}
}
