package remote

import (
	"errors"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/faultinject"
	"repro/internal/faultinject/leaktest"
	"repro/internal/wire"
)

// TestRedialRefusalSurfacesImmediately: when a reconnect's OpOpen is answered
// with a typed policy refusal (here: the daemon is draining), the client must
// report it at once — a deliberate admission decision is not a transport
// fault, and burning the retry/backoff budget on it (or, one level up, failing
// over to a replica) would turn admission control into a retry storm.
func TestRedialRefusalSurfacesImmediately(t *testing.T) {
	leaktest.Check(t)
	srv, addr := startServer(t)
	srv.SetRegistry(daemon.NewRegistry(daemon.Quotas{}))
	srv.Put("obj", []byte("remote contents"))

	proxy := faultinject.NewProxy(addr)
	paddr, err := proxy.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Backoff is deliberately huge: if the refusal were treated as retryable,
	// the call would visibly stall instead of returning.
	c, err := DialWith(paddr, "obj", DialOptions{
		MaxRetries:  5,
		BackoffBase: 500 * time.Millisecond,
		BackoffMax:  2 * time.Second,
		OpTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	buf := make([]byte, 6)
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatalf("healthy read: %v", err)
	}

	// Start draining, then cut the live session: the client's next operation
	// redials and its OpOpen is refused with wire.ErrShuttingDown. This first
	// read is untimed — the torn connection is a genuine transport fault, and
	// one backoff before the redial that discovers the refusal is legitimate.
	srv.Registry().Drain(0)
	proxy.DropActive()
	if _, rerr := c.ReadAt(buf, 0); !errors.Is(rerr, wire.ErrShuttingDown) {
		t.Fatalf("read during drain = %v, want wire.ErrShuttingDown", rerr)
	}

	// From here the refusal is known: every further call must surface it at
	// once, without spending the (deliberately huge) retry/backoff budget.
	start := time.Now()
	_, rerr := c.ReadAt(buf, 0)
	waited := time.Since(start)
	if !errors.Is(rerr, wire.ErrShuttingDown) {
		t.Fatalf("read during drain = %v, want wire.ErrShuttingDown", rerr)
	}
	if waited >= 400*time.Millisecond {
		t.Fatalf("refusal took %v to surface — it sat in the retry loop", waited)
	}
	if !IsRefusal(rerr) {
		t.Fatalf("IsRefusal(%v) = false", rerr)
	}
}

// TestIsRefusalClassification pins which errors count as policy refusals.
func TestIsRefusalClassification(t *testing.T) {
	for _, err := range []error{wire.ErrQuotaExceeded, wire.ErrOverloaded, wire.ErrShuttingDown} {
		if !IsRefusal(err) {
			t.Errorf("IsRefusal(%v) = false, want true", err)
		}
	}
	for _, err := range []error{nil, wire.ErrNotFound, wire.ErrBusy, errors.New("connection reset")} {
		if IsRefusal(err) {
			t.Errorf("IsRefusal(%v) = true, want false", err)
		}
	}
}
