package livewire

import (
	"errors"
	"net"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"tracemod/internal/faults"
)

// reservePort grabs a loopback UDP port and releases it, so the test
// knows an address that currently refuses traffic but can be bound later.
func reservePort(t *testing.T) *net.UDPAddr {
	t.Helper()
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()
	return addr
}

// TestRelaySurvivesRefusedTarget proves the self-healing behavior the
// pumps gained: a relay pointed at a dead target absorbs the ICMP
// port-unreachable errors (ECONNREFUSED on the connected UDP socket)
// instead of its pump exiting, and traffic resumes by itself once the
// target comes up.
func TestRelaySurvivesRefusedTarget(t *testing.T) {
	target := reservePort(t)

	r := newRelay(t, target, constTrace(time.Millisecond, 0), 1,
		RelayOpts{Retry: faults.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond}})
	c := dialRelay(t, r)

	// Poke the dead target. Each relayed write bounces an ICMP refusal
	// back onto the target-side socket; the old pump exited permanently
	// on the first one.
	for i := 0; i < 10; i++ {
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Bring the target up on the very port that was refusing.
	srv, err := net.ListenUDP("udp", target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, addr, err := srv.ReadFromUDP(buf)
			if err != nil {
				return
			}
			srv.WriteToUDP(buf[:n], addr)
		}
	}()

	// Traffic must resume without touching the relay.
	buf := make([]byte, 64)
	echoed := func() bool {
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		_, err := c.Read(buf)
		return err == nil
	}
	if !waitFor(echoed, 10*time.Second) {
		t.Fatalf("traffic never resumed; stats: %+v", r.Stats())
	}
	if st := r.Stats(); st.SocketErrors == 0 {
		t.Fatalf("the refused target never registered: %+v", st)
	}
}

// TestRelayCloseInterruptsBackoff proves shutdown stays prompt: a pump
// parked in a long retry sleep must wake on r.closed, not serve out its
// backoff.
func TestRelayCloseInterruptsBackoff(t *testing.T) {
	target := reservePort(t)
	eng := shapingEngine(t, constTrace(time.Millisecond, 0), 1, nil)
	baseline := runtime.NumGoroutine()
	r, err := NewRelayWithSubmitterOpts("127.0.0.1:0", target.String(), eng,
		RelayOpts{Retry: faults.Backoff{Base: time.Hour, Max: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	c := dialRelay(t, r)

	// Bounce a refusal off the dead target so the target-side pump walks
	// into its hour-long backoff sleep.
	for i := 0; i < 5 && r.Stats().SocketErrors == 0; i++ {
		c.Write([]byte("ping"))
		time.Sleep(10 * time.Millisecond)
	}

	r.Close()
	// Both pumps must be gone promptly.
	if !waitFor(func() bool { return runtime.NumGoroutine() <= baseline }, 5*time.Second) {
		t.Fatalf("pump goroutines survived Close for 5s (baseline %d, now %d)",
			baseline, runtime.NumGoroutine())
	}
}

func TestTransientSocketErrClassification(t *testing.T) {
	transient := []error{
		syscall.ECONNREFUSED,
		syscall.ECONNRESET,
		syscall.EINTR,
		syscall.EAGAIN,
		syscall.ENOBUFS,
		syscall.EHOSTUNREACH,
		syscall.ENETUNREACH,
		syscall.ENETDOWN,
		&net.OpError{Op: "read", Err: os.NewSyscallError("recvfrom", syscall.ECONNREFUSED)},
	}
	for _, err := range transient {
		if !transientSocketErr(err) {
			t.Errorf("%v must be transient", err)
		}
	}
	fatal := []error{
		net.ErrClosed,
		&net.OpError{Op: "read", Err: net.ErrClosed},
		errors.New("something unclassifiable"),
		syscall.EBADF,
	}
	for _, err := range fatal {
		if transientSocketErr(err) {
			t.Errorf("%v must not be transient", err)
		}
	}
}

// TestRecoverPumpBoundsUnknownErrors: an error the pump cannot classify
// retries a bounded number of times, then the pump gives up.
func TestRecoverPumpBoundsUnknownErrors(t *testing.T) {
	r := &Relay{
		closed: make(chan struct{}),
		retry:  faults.Backoff{Base: time.Microsecond, Max: 10 * time.Microsecond},
	}
	streak := 0
	unknown := errors.New("mystery failure")
	for i := 0; i < maxPumpErrStreak; i++ {
		if !r.recoverPump(&streak, unknown) {
			t.Fatalf("retry %d refused; budget is %d", i, maxPumpErrStreak)
		}
	}
	if r.recoverPump(&streak, unknown) {
		t.Fatal("unknown-error streak must exhaust its budget")
	}
	// A transient error is never budget-limited.
	for i := 0; i < 3*maxPumpErrStreak; i++ {
		if !r.recoverPump(&streak, syscall.ECONNREFUSED) {
			t.Fatal("transient errors must retry indefinitely")
		}
	}
	// And a closed relay stops everything immediately.
	close(r.closed)
	if r.recoverPump(&streak, syscall.ECONNREFUSED) {
		t.Fatal("recoverPump must refuse after close")
	}
}
