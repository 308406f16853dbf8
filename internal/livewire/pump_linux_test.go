//go:build linux && (amd64 || arm64)

package livewire

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// shardLoopStates returns the scheduler state of every goroutine running
// a pump shard loop, as runtime.Stack prints it ("IO wait", "syscall",
// "runnable", ...; any ", N minutes" suffix stripped).
func shardLoopStates() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var states []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "(*pumpShard).loop") {
			continue
		}
		open, end := strings.IndexByte(g, '['), strings.IndexByte(g, ']')
		if open < 0 || end < open {
			continue
		}
		state, _, _ := strings.Cut(g[open+1:end], ",")
		states = append(states, state)
	}
	return states
}

// TestPumpShardsParkInNetpoller pins where an idle shard waits: parked
// on the runtime netpoller ("IO wait"), never inside a blocking
// epoll_wait ("syscall"), which would hold an OS thread and its P and
// leave due timers waiting for sysmon to retake it. A loop that has just
// sent the last echo passes briefly through its final sendmmsg and
// zero-timeout epoll_wait, so the test waits for both loops to reach
// "IO wait"; a loop blocked in epoll_wait stays in "syscall" and fails.
func TestPumpShardsParkInNetpoller(t *testing.T) {
	g := NewPumpGroup(PumpGroupConfig{Shards: 2})
	target := echoServer(t)
	relays := make([]*Relay, 4)
	for i := range relays {
		r, err := NewRelayWithSubmitterOpts("127.0.0.1:0", target.String(),
			instantSubmitter{}, RelayOpts{Group: g})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if !r.Sharded() {
			t.Fatal("relay did not attach to the group")
		}
		relays[i] = r
	}
	for _, r := range relays {
		burstEcho(t, r, 16, 16)
	}

	for deadline := time.Now().Add(5 * time.Second); ; {
		states := shardLoopStates()
		parked := len(states) == 2
		for _, s := range states {
			parked = parked && s == "IO wait"
		}
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle shard loops are in states %q, want both in \"IO wait\"", states)
		}
		runtime.Gosched()
	}

	// Closing the group wakes the parked loops at once; the relays are
	// still attached and detach from the closed shards afterwards.
	closed := make(chan struct{})
	go func() { g.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("PumpGroup.Close did not return with the shards parked")
	}
	// Close returns once each loop has signalled done from its deferred
	// close; the goroutine itself is gone a moment later.
	for deadline := time.Now().Add(2 * time.Second); ; runtime.Gosched() {
		left := shardLoopStates()
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard loops still running after Close: %q", left)
		}
	}
}
