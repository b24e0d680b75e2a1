package remote

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/faultinject"
	"repro/internal/faultinject/leaktest"
)

// TestClientDeadlineOnHungServer: the server hangs mid-exchange; the
// configured per-operation deadline must bound the wait, and the handle must
// be usable again after the automatic reconnect.
func TestClientDeadlineOnHungServer(t *testing.T) {
	leaktest.Check(t)
	srv, addr := startServer(t)
	srv.Put("obj", []byte("remote contents"))

	c, err := DialWith(addr, "obj", DialOptions{
		OpTimeout:  75 * time.Millisecond,
		MaxRetries: -1, // isolate the deadline: no transparent replay
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srv.StallNext(400 * time.Millisecond)
	buf := make([]byte, 6)
	start := time.Now()
	_, rerr := c.ReadAt(buf, 0)
	waited := time.Since(start)
	if !errors.Is(rerr, context.DeadlineExceeded) {
		t.Fatalf("hung read err = %v, want DeadlineExceeded", rerr)
	}
	if waited > 2*time.Second {
		t.Fatalf("deadline took %v; hung exchange effectively unbounded", waited)
	}

	// The suspect session was retired; the very next call redials and works.
	if n, err := c.ReadAt(buf, 0); err != nil || string(buf[:n]) != "remote" {
		t.Fatalf("read after reconnect = (%q, %v)", buf[:n], err)
	}
	if c.Reconnects() == 0 {
		t.Fatal("hung session was not retired")
	}
}

// TestClientReplaysReadAcrossHang: with retries enabled, one client call
// absorbs the hang entirely — deadline, reconnect, replay — and succeeds.
func TestClientReplaysReadAcrossHang(t *testing.T) {
	leaktest.Check(t)
	srv, addr := startServer(t)
	srv.Put("obj", []byte("remote contents"))

	c, err := DialWith(addr, "obj", DialOptions{OpTimeout: 75 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srv.StallNext(400 * time.Millisecond) // one-shot: the replay sails through
	buf := make([]byte, 15)
	n, rerr := c.ReadAt(buf, 0)
	if rerr != nil || string(buf[:n]) != "remote contents" {
		t.Fatalf("read across hang = (%q, %v)", buf[:n], rerr)
	}
	if c.Reconnects() == 0 {
		t.Fatal("read succeeded without the expected reconnect")
	}
}

// TestClientWriteFailsFastOnDrop: non-idempotent operations must NOT replay
// once the request may have reached the server.
func TestClientWriteFailsFastOnDrop(t *testing.T) {
	leaktest.Check(t)
	srv, addr := startServer(t)
	srv.Put("obj", []byte("0123456789"))

	proxy := faultinject.NewProxy(addr)
	paddr, err := proxy.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := DialWith(paddr, "obj", DialOptions{OpTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srv.StallNext(300 * time.Millisecond) // hold the exchange so the drop lands mid-flight
	done := make(chan error, 1)
	go func() {
		_, werr := c.WriteAt([]byte("XX"), 0)
		done <- werr
	}()
	time.Sleep(50 * time.Millisecond)
	proxy.DropActive()

	select {
	case werr := <-done:
		if werr == nil {
			t.Fatal("write reported success across a dropped connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write hung after connection drop")
	}

	// A later read heals the connection; the write was reported failed, so
	// whether it applied is the caller's problem — the channel must recover.
	buf := make([]byte, 2)
	if _, err := c.ReadAt(buf, 2); err != nil {
		t.Fatalf("read after failed write: %v", err)
	}
}

// TestClientServerKilledMidPipeline is the acceptance scenario: the file
// server dies under a pipeline of in-flight reads. Every in-flight call must
// error within the deadline envelope — no orphaned waiter — and once a
// server is back on the same address, a subsequent read succeeds through
// automatic reconnect.
func TestClientServerKilledMidPipeline(t *testing.T) {
	leaktest.Check(t)
	srv := NewFileServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("the quick brown fox jumps over the lazy dog")
	srv.Put("obj", content)
	srv.SetLatency(100 * time.Millisecond) // hold replies so the kill lands mid-pipeline

	const opTimeout = 500 * time.Millisecond
	c, err := DialWith(addr, "obj", DialOptions{OpTimeout: opTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	durations := make([]time.Duration, readers)
	start := time.Now()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 4)
			_, errs[i] = c.ReadAt(buf, int64(i))
			durations[i] = time.Since(start)
		}(i)
	}

	time.Sleep(30 * time.Millisecond) // let the pipeline fill
	srv.Kill()                        // kill the server under it, mid-frame

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	// Envelope: per attempt up to opTimeout, plus retries and backoff.
	envelope := time.Duration(1+defaultMaxRetries)*opTimeout + 2*time.Second
	select {
	case <-waitDone:
	case <-time.After(envelope):
		t.Fatal("in-flight reads still blocked after the server died: waiters orphaned")
	}
	for i, rerr := range errs {
		if rerr == nil {
			t.Errorf("read %d reported success against a dead server", i)
		}
		if durations[i] > envelope {
			t.Errorf("read %d took %v, beyond the deadline envelope %v", i, durations[i], envelope)
		}
	}

	// Bring a server back on the SAME address; the next read must heal.
	srv2 := NewFileServer()
	if _, err := srv2.Start(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	srv2.Put("obj", content)

	buf := make([]byte, 9)
	recoverStart := time.Now()
	n, rerr := c.ReadAt(buf, 4)
	if rerr != nil || string(buf[:n]) != "quick bro" {
		t.Fatalf("read after server restart = (%q, %v)", buf[:n], rerr)
	}
	t.Logf("recovered %v after restart; %d reconnects", time.Since(recoverStart), c.Reconnects())
	if c.Reconnects() == 0 {
		t.Fatal("recovery did not go through reconnect")
	}
}

// TestClientDropReleasesPipelinedWaiters: a wire-level connection drop with
// a full pipeline in flight must release every waiter and leak nothing; the
// reads themselves succeed via replay.
func TestClientDropReleasesPipelinedWaiters(t *testing.T) {
	leaktest.Check(t)
	srv, addr := startServer(t)
	content := []byte("abcdefghijklmnopqrstuvwxyz")
	srv.Put("obj", content)

	proxy := faultinject.NewProxy(addr)
	paddr, err := proxy.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := DialWith(paddr, "obj", DialOptions{OpTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srv.SetLatency(80 * time.Millisecond)
	const readers = 8
	var wg sync.WaitGroup
	fails := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 1)
			n, rerr := c.ReadAt(buf, int64(i))
			if rerr != nil {
				fails <- fmt.Errorf("read %d: %w", i, rerr)
				return
			}
			if n != 1 || buf[0] != content[i] {
				fails <- fmt.Errorf("read %d returned %q", i, buf[:n])
			}
		}(i)
	}
	time.Sleep(30 * time.Millisecond)
	proxy.DropActive()
	srv.SetLatency(0)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pipelined reads hung after connection drop")
	}
	close(fails)
	for ferr := range fails {
		t.Error(ferr)
	}
	if c.Reconnects() == 0 {
		t.Fatal("pipeline recovered without a reconnect?")
	}
}

// TestClientTornResponseFrame: the connection dies mid-frame — the client
// received a torn response prefix. The mux must fail the session (never
// deliver partial bytes as a response), and the client must recover.
func TestClientTornResponseFrame(t *testing.T) {
	leaktest.Check(t)
	srv, addr := startServer(t)
	srv.Put("obj", []byte("remote contents"))

	proxy := faultinject.NewProxy(addr)
	paddr, err := proxy.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := DialWith(paddr, "obj", DialOptions{OpTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	proxy.TruncateNextResponse(3) // tear the next response frame
	buf := make([]byte, 6)
	n, rerr := c.ReadAt(buf, 0)
	// Replay may heal the read entirely (idempotent); either way the data
	// must be right if reported right.
	if rerr == nil && string(buf[:n]) != "remote" {
		t.Fatalf("torn frame delivered corrupt data: %q", buf[:n])
	}
	if n, err := c.ReadAt(buf, 0); err != nil || string(buf[:n]) != "remote" {
		t.Fatalf("read after torn frame = (%q, %v)", buf[:n], err)
	}
}

// TestClientCloseRacesInflight: Close while a pipeline is in flight must
// release every call promptly — with backend.ErrObjectClosed or a transport
// error, never a hang — and later calls report backend.ErrObjectClosed.
func TestClientCloseRacesInflight(t *testing.T) {
	leaktest.Check(t)
	srv, addr := startServer(t)
	srv.Put("obj", []byte("abcdefghijklmnop"))
	srv.SetLatency(60 * time.Millisecond)

	c, err := DialWith(addr, "obj", DialOptions{OpTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 6
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 2)
			c.ReadAt(buf, int64(i)) // success or error both fine; hanging is not
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight reads hung across Close")
	}

	if _, err := c.ReadAt(make([]byte, 1), 0); !errors.Is(err, backend.ErrObjectClosed) {
		t.Fatalf("read after Close = %v, want backend.ErrObjectClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	srv.SetLatency(0)
}
