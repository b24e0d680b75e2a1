package remote

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/backend"
	"repro/internal/faultinject"
)

func startServer(t *testing.T) (*FileServer, string) {
	t.Helper()
	srv := NewFileServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestClientReadWriteOverTCP(t *testing.T) {
	srv, addr := startServer(t)
	srv.Put("obj", []byte("remote contents"))

	c, err := Dial(addr, "obj")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	buf := make([]byte, 6)
	if n, err := c.ReadAt(buf, 7); n != 6 || err != nil || string(buf) != "conten" {
		t.Errorf("ReadAt = (%d, %v, %q)", n, err, buf)
	}
	if size, err := c.Size(); size != 15 || err != nil {
		t.Errorf("Size = (%d, %v), want 15", size, err)
	}
	if _, err := c.WriteAt([]byte("REMOTE"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got, _ := srv.Get("obj")
	if string(got) != "REMOTE contents" {
		t.Errorf("server object = %q", got)
	}
	if err := c.Truncate(6); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	got, _ = srv.Get("obj")
	if string(got) != "REMOTE" {
		t.Errorf("after truncate = %q", got)
	}
}

func TestClientReadPastEndEOF(t *testing.T) {
	srv, addr := startServer(t)
	srv.Put("short", []byte("ab"))
	c, err := Dial(addr, "short")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8)
	n, err := c.ReadAt(buf, 0)
	if n != 2 || !errors.Is(err, io.EOF) {
		// partial read then EOF on the next chunk attempt is also acceptable:
		// the client loop stops at a zero-byte chunk.
		if n != 2 || err != nil {
			t.Errorf("ReadAt = (%d, %v), want 2 bytes", n, err)
		}
	}
	if string(buf[:2]) != "ab" {
		t.Errorf("data = %q", buf[:2])
	}
}

func TestClientOpenCreatesMissingObject(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr, "fresh")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.WriteAt([]byte("new"), 0); err != nil {
		t.Fatal(err)
	}
	got, ok := srv.Get("fresh")
	if !ok || string(got) != "new" {
		t.Errorf("object = (%q, %v)", got, ok)
	}
}

func TestClientConcurrentCallers(t *testing.T) {
	srv, addr := startServer(t)
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	srv.Put("obj", data)

	c, err := Dial(addr, "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 50; i++ {
				off := int64((g*50 + i) * 64 % (len(data) - 64))
				if _, err := c.ReadAt(buf, off); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, data[off:off+64]) {
					errs <- errors.New("payload mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPutVisibleToOpenConnections(t *testing.T) {
	// Replacing an object with Put must be visible to sessions opened
	// before the replacement: the connection binds the NAME, not a
	// snapshot. (Cache-invalidation scenarios depend on this.)
	srv, addr := startServer(t)
	srv.Put("obj", []byte("old"))
	c, err := Dial(addr, "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 3)
	if _, err := c.ReadAt(buf, 0); err != nil || string(buf) != "old" {
		t.Fatalf("first read = (%q, %v)", buf, err)
	}
	srv.Put("obj", []byte("new"))
	if _, err := c.ReadAt(buf, 0); err != nil || string(buf) != "new" {
		t.Errorf("read after Put = (%q, %v), want replacement visible", buf, err)
	}
}

func TestClientAfterClose(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, "obj")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.ReadAt(make([]byte, 1), 0); !errors.Is(err, backend.ErrObjectClosed) {
		t.Errorf("ReadAt after close err = %v, want backend.ErrObjectClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestClientServerShutdownMidSession(t *testing.T) {
	srv, addr := startServer(t)
	srv.Put("obj", []byte("x"))
	c, err := Dial(addr, "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	if _, err := c.ReadAt(make([]byte, 1), 0); err == nil {
		t.Error("ReadAt succeeded after server shutdown")
	}
}

func TestServerFaultInjection(t *testing.T) {
	srv, addr := startServer(t)
	srv.Put("obj", []byte("data"))
	c, err := Dial(addr, "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srv.FailNext(errors.New("disk exploded"))
	if _, err := c.ReadAt(make([]byte, 4), 0); err == nil {
		t.Error("injected fault not observed")
	}
	// The fault is one-shot; the next operation succeeds.
	buf := make([]byte, 4)
	if _, err := c.ReadAt(buf, 0); err != nil || string(buf) != "data" {
		t.Errorf("recovery read = (%q, %v)", buf, err)
	}
}

func TestServerLatencyInjection(t *testing.T) {
	srv, addr := startServer(t)
	srv.Put("obj", []byte("data"))
	srv.SetLatency(30 * time.Millisecond)
	c, err := Dial(addr, "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.ReadAt(make([]byte, 4), 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
}

func TestClientRemoteRoundTripProperty(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr, "prop")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Put("prop", nil)

	f := func(data []byte, off uint16) bool {
		if len(data) == 0 {
			return true
		}
		o := int64(off)
		if _, err := c.WriteAt(data, o); err != nil {
			return false
		}
		back := make([]byte, len(data))
		if _, err := c.ReadAt(back, o); err != nil && !errors.Is(err, io.EOF) {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSlowSourceDelays slows a source with errorfs latency: every
// operation waits out the injector's delay before it runs.
func TestSlowSourceDelays(t *testing.T) {
	mem := backend.NewMem()
	mem.Put("obj", []byte("abc"))
	s, err := backend.NewErrorFS(mem, faultinject.NewInjector(0, nil, 1, 20*time.Millisecond)).Open("obj")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.ReadAt(make([]byte, 3), 0); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("delay not applied")
	}
}

// TestFlakySourceTripAndHeal models a source that becomes unreachable
// mid-session with errorfs over one mem object: read through a quiet
// injector, then tripped (an injector failing every operation), then healed
// (a quiet one again). errorfs rolls Open too, so the tripped phase is
// observed at Open, Stat and List.
func TestFlakySourceTripAndHeal(t *testing.T) {
	boom := errors.New("network partition")
	mem := backend.NewMem()
	mem.Put("obj", []byte("abc"))
	view := func(rate float64) *backend.ErrorFS {
		return backend.NewErrorFS(mem, faultinject.NewInjector(rate, boom, 1, 0))
	}

	buf := make([]byte, 3)
	s, err := view(0).Open("obj")
	if err != nil {
		t.Fatalf("healthy Open: %v", err)
	}
	if _, err := s.ReadAt(buf, 0); err != nil {
		t.Fatalf("healthy ReadAt: %v", err)
	}
	tripped := view(1)
	if _, err := tripped.Open("obj"); !errors.Is(err, boom) {
		t.Errorf("tripped Open err = %v, want %v", err, boom)
	}
	if _, err := tripped.Stat("obj"); !errors.Is(err, boom) {
		t.Errorf("tripped Stat err = %v, want %v", err, boom)
	}
	if _, err := tripped.List(); !errors.Is(err, boom) {
		t.Errorf("tripped List err = %v, want %v", err, boom)
	}
	if tripped.Injector().Injected() != 3 {
		t.Errorf("tripped injector failed %d operations, want 3", tripped.Injector().Injected())
	}
	healed, err := view(0).Open("obj")
	if err != nil {
		t.Fatalf("healed Open: %v", err)
	}
	if _, err := healed.ReadAt(buf, 0); err != nil || string(buf) != "abc" {
		t.Errorf("healed ReadAt = (%q, %v)", buf, err)
	}
}
