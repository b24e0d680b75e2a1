package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/shm"
	"repro/internal/vfs"
)

// requireShm skips on platforms where the ring carrier compiles out.
func requireShm(t *testing.T) {
	t.Helper()
	if !shm.Supported() {
		t.Skip("shm transport unsupported on this platform")
	}
}

// TestShmTransportEndToEnd drives a real sentinel subprocess over the ring
// carrier: the session must actually get a segment, and reads, writes,
// size, sync, and close must behave exactly like the pipe path.
func TestShmTransportEndToEnd(t *testing.T) {
	requireShm(t)
	tr := newTestProcCtl(t, map[string]string{"transport": "shm"})
	if tr.seg == nil {
		t.Fatal("transport=shm session came up without a segment")
	}

	msg := []byte("ring-carried payload, long enough to be uninlined sometimes")
	if n, err := tr.writeAt(msg, 0); err != nil || n != len(msg) {
		t.Fatalf("writeAt = %d, %v", n, err)
	}
	if err := tr.sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	got := make([]byte, len(msg))
	if n, err := tr.readAt(got, 0); err != nil || n != len(msg) {
		t.Fatalf("readAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
	if size, err := tr.size(); err != nil || size != int64(len(msg)) {
		t.Fatalf("size = %d, %v", size, err)
	}
	if err := tr.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestShmTransportPipelined hammers one shm session from many goroutines so
// exchanges overlap on the rings — the mux pipeline must stay correlated.
func TestShmTransportPipelined(t *testing.T) {
	requireShm(t)
	tr := newTestProcCtl(t, map[string]string{"transport": "shm", "readahead": "false"})

	content := make([]byte, 8192)
	for i := range content {
		content[i] = byte(i)
	}
	if _, err := tr.writeAt(content, 0); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	if err := tr.sync(); err != nil {
		t.Fatalf("seed sync: %v", err)
	}

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			buf := make([]byte, 64)
			for i := 0; i < 200; i++ {
				off := int64(((w * 131) + i*64) % (len(content) - 64))
				n, err := tr.readAt(buf, off)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf[:n], content[off:off+int64(n)]) {
					errs <- errors.New("pipelined read returned misattributed bytes")
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestShmCloseQuiescesReadAhead: a read at offset 0 starts an asynchronous
// read-ahead fill, and a Close right behind it must let that fill land
// instead of closing the rings under it.
func TestShmCloseQuiescesReadAhead(t *testing.T) {
	requireShm(t)
	path := filepath.Join(t.TempDir(), "file.af")
	if err := vfs.Create(path, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
		Params:  map[string]string{"transport": "shm"},
	}); err != nil {
		t.Fatalf("vfs.Create: %v", err)
	}
	if err := os.WriteFile(vfs.DataPath(path), bytes.Repeat([]byte("0123456789abcdef"), 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	// A race-enabled sentinel sleeps a second at exit by default, which
	// would stretch the loop to a quarter of an hour under -race.
	t.Setenv("GORACE", "atexit_sleep_ms=0")
	buf := make([]byte, 4096)
	for i := 0; i < 1000; i++ {
		h, err := Open(path, Options{Strategy: StrategyProcCtl})
		if err != nil {
			t.Fatalf("round %d: Open: %v", i, err)
		}
		if _, err := h.ReadAt(buf, 0); err != nil {
			h.Close()
			t.Fatalf("round %d: ReadAt: %v", i, err)
		}
		if err := h.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", i, err)
		}
	}
}

// TestShmSentinelDeathPoisonsAndUnmaps is the chaos criterion over the ring
// carrier: SIGKILL mid-pipeline must fail every exchange with
// ErrSentinelDied (no waiter may block on a ring no one will ever ring),
// close the segment, and leak no goroutines.
func TestShmSentinelDeathPoisonsAndUnmaps(t *testing.T) {
	requireShm(t)
	faultinject.LeakCheck(t)
	tr := newTestProcCtl(t, map[string]string{"transport": "shm", "readahead": "false"})

	if _, err := tr.size(); err != nil {
		t.Fatalf("healthy size: %v", err)
	}
	if err := tr.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill sentinel: %v", err)
	}

	const callers = 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := tr.size()
			errs <- err
		}()
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("exchange succeeded against a dead sentinel")
			}
		case <-deadline:
			t.Fatal("exchange blocked on the rings after sentinel death")
		}
	}

	waitDeadline := time.Now().Add(5 * time.Second)
	for {
		_, err := tr.size()
		if errors.Is(err, ErrSentinelDied) {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("post-death error never became ErrSentinelDied: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The death hook must have closed the segment: its rings reject traffic.
	ringDeadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := tr.seg.Cmd().Write([]byte{0}); errors.Is(err, shm.ErrClosed) {
			break
		}
		if time.Now().After(ringDeadline) {
			t.Fatal("segment still open after sentinel death")
		}
		time.Sleep(10 * time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- tr.close() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("close hung after sentinel death")
	}
}

// TestShmWarmPoolAdoption checks that warm-pool sentinels carry their
// segment through adoption: the OpOpen rebind and the session both ride the
// rings, and retiring the pool releases the idle children.
func TestShmWarmPoolAdoption(t *testing.T) {
	requireShm(t)
	t.Cleanup(DrainSentinelPool)
	params := map[string]string{"transport": "shm", "pool": "2"}

	// First open is cold (pool empty) and primes the pool at close.
	tr := newTestProcCtl(t, params)
	if tr.seg == nil {
		t.Fatal("cold pooled open came up without a segment")
	}
	if _, err := tr.writeAt([]byte("warm me"), 0); err != nil {
		t.Fatalf("writeAt: %v", err)
	}
	if err := tr.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	path := tr.poolPath
	poolDeadline := time.Now().Add(10 * time.Second)
	for IdleSentinels(path) == 0 {
		if time.Now().After(poolDeadline) {
			t.Fatal("pool never replenished after close")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Second open must adopt a warm shm child and serve over its rings.
	m, err := vfs.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := newProcCtlTransport(path, m)
	if err != nil {
		t.Fatalf("warm open: %v", err)
	}
	if tr2.seg == nil {
		t.Fatal("warm adoption lost the segment")
	}
	if _, err := tr2.size(); err != nil {
		t.Fatalf("size over adopted rings: %v", err)
	}
	if err := tr2.close(); err != nil {
		t.Fatalf("close adopted: %v", err)
	}
}

// TestTransportParam pins carrier-param validation and the pipe default.
func TestTransportParam(t *testing.T) {
	for v, want := range map[string]string{"": "pipe", "pipe": "pipe", "shm": "shm"} {
		got, err := transportParam(vfs.Manifest{Params: map[string]string{"transport": v}})
		if err != nil || got != want {
			t.Errorf("transport %q = (%q, %v), want %q", v, got, err, want)
		}
	}
	if _, err := transportParam(vfs.Manifest{Params: map[string]string{"transport": "carrier-pigeon"}}); err == nil {
		t.Error("bogus transport param accepted")
	}
}

// TestPipeTransportHasNoSegment: the default carrier must not allocate shm.
func TestPipeTransportHasNoSegment(t *testing.T) {
	tr := newTestProcCtl(t, nil)
	if tr.seg != nil {
		t.Fatal("pipe-carrier session allocated a segment")
	}
	if _, err := tr.size(); err != nil {
		t.Fatalf("size: %v", err)
	}
	if err := tr.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
