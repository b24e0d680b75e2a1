package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/vfs"
	"repro/internal/wire"
)

func TestRemoteDownMidSession(t *testing.T) {
	srv := remote.NewFileServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Put("obj", []byte("alive"))

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "none",
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "obj"},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	buf := make([]byte, 5)
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatalf("healthy read: %v", err)
	}

	// The source vanishes mid-session; operations fail but nothing hangs.
	srv.Close()
	if _, err := h.ReadAt(buf, 0); err == nil {
		t.Error("read succeeded after source shutdown")
	}
	done := make(chan error, 1)
	go func() { done <- h.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after source shutdown")
	}
}

func TestRemoteUnreachableAtOpen(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "none",
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: "127.0.0.1:1", Path: "obj"}, // nothing listens
	})

	// In-process strategies fail at Open, when the program binds its source.
	if _, err := core.Open(path, core.Options{Strategy: core.StrategyThread}); err == nil {
		t.Error("thread Open succeeded with unreachable source")
	}

	// The process-plus-control strategy fails at Open too: its sentinel
	// answers the open handshake with the program's error.
	if h, err := core.Open(path, core.Options{Strategy: core.StrategyProcCtl}); err == nil {
		h.Close()
		t.Error("procctl Open succeeded with unreachable source")
	}
}

// TestProcCtlOpenReportsProgramError: a program that cannot open fails
// Open on both procctl carriers with the program's own error, the way
// StrategyThread reports it, instead of returning a session whose first
// operation fails.
func TestProcCtlOpenReportsProgramError(t *testing.T) {
	for _, carrier := range []string{"pipe", "shm"} {
		t.Run(carrier, func(t *testing.T) {
			path := createAF(t, vfs.Manifest{
				Program: vfs.ProgramSpec{Name: "passthrough"},
				Cache:   "none",
				Source:  vfs.SourceSpec{Kind: "tcp", Addr: "127.0.0.1:1", Path: "obj"}, // nothing listens
				Params:  map[string]string{"transport": carrier},
			})
			_, threadErr := core.Open(path, core.Options{Strategy: core.StrategyThread})
			if threadErr == nil {
				t.Fatal("thread Open succeeded with unreachable source")
			}
			h, err := core.Open(path, core.Options{Strategy: core.StrategyProcCtl})
			if err == nil {
				h.Close()
				t.Fatal("procctl Open succeeded with unreachable source")
			}
			t.Logf("thread: %v\nprocctl: %v", threadErr, err)
			for _, want := range []string{`open program "passthrough"`, "127.0.0.1:1"} {
				if !strings.Contains(threadErr.Error(), want) || !strings.Contains(err.Error(), want) {
					t.Errorf("errors do not both name %q:\n thread:  %v\n procctl: %v", want, threadErr, err)
				}
			}
		})
	}
}

func TestFaultInjectionSurfacesAndRecovers(t *testing.T) {
	srv := remote.NewFileServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Put("obj", []byte("payload"))

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "none",
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "obj"},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	srv.FailNext(errors.New("injected disk failure"))
	buf := make([]byte, 7)
	if _, err := h.ReadAt(buf, 0); err == nil {
		t.Error("injected failure not observed through the sentinel")
	}
	// One-shot fault: the session recovers on the next operation.
	if _, err := h.ReadAt(buf, 0); err != nil || string(buf) != "payload" {
		t.Errorf("recovery read = (%q, %v)", buf, err)
	}
}

func TestLargeTransfersChunkAcrossControlChannel(t *testing.T) {
	// Transfers beyond the frame payload limit must be chunked transparently
	// by the client side of each strategy.
	payload := bytes.Repeat([]byte{0xA5}, wire.MaxPayload+64*1024)
	for _, strategy := range []core.Strategy{core.StrategyThread, core.StrategyProcCtl} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			if testing.Short() && strategy == core.StrategyProcCtl {
				t.Skip("large subprocess transfer in -short mode")
			}
			path := createAF(t, vfs.Manifest{
				Program: vfs.ProgramSpec{Name: "passthrough"},
				Cache:   "memory",
			})
			h, err := core.Open(path, core.Options{Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()

			if _, err := h.WriteAt(payload, 0); err != nil {
				t.Fatalf("WriteAt: %v", err)
			}
			if strategy == core.StrategyProcCtl {
				// Writes are asynchronous; force completion before reading.
				if err := h.Sync(); err != nil {
					t.Fatalf("Sync: %v", err)
				}
			}
			back := make([]byte, len(payload))
			if _, err := h.ReadAt(back, 0); err != nil && !errors.Is(err, io.EOF) {
				t.Fatalf("ReadAt: %v", err)
			}
			if !bytes.Equal(back, payload) {
				t.Error("large transfer corrupted")
			}
			if size, err := h.Size(); err != nil || size != int64(len(payload)) {
				t.Errorf("Size = (%d, %v), want %d", size, err, len(payload))
			}
		})
	}
}

func TestThreadReadAtEOFSemantics(t *testing.T) {
	// Pin the os.File-compatible short-read contract end to end (this is
	// the bug the equivalence property test caught).
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "disk",
	})
	seedData(t, path, []byte("0123456789"))
	for _, strategy := range positionedStrategies {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			h, err := core.Open(path, core.Options{Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			buf := make([]byte, 8)
			n, err := h.ReadAt(buf, 6)
			if n != 4 || !errors.Is(err, io.EOF) {
				t.Errorf("short ReadAt = (%d, %v), want (4, EOF)", n, err)
			}
			if string(buf[:n]) != "6789" {
				t.Errorf("data = %q", buf[:n])
			}
			if _, err := h.ReadAt(buf, 100); !errors.Is(err, io.EOF) {
				t.Errorf("past-end ReadAt err = %v, want EOF", err)
			}
		})
	}
}

func TestConcurrentHandleUse(t *testing.T) {
	// A Handle serializes internally, so concurrent goroutines sharing one
	// handle must not race or corrupt the session.
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.WriteAt(bytes.Repeat([]byte("x"), 4096), 0); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			buf := make([]byte, 64)
			for i := 0; i < 100; i++ {
				off := int64((g*100 + i) % 4000)
				if _, err := h.ReadAt(buf, off); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Errorf("goroutine: %v", err)
		}
	}
}

func TestAllOpsFailAfterClose(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	checks := map[string]error{}
	_, checks["Read"] = h.Read(make([]byte, 1))
	_, checks["Write"] = h.Write([]byte("x"))
	_, checks["ReadAt"] = h.ReadAt(make([]byte, 1), 0)
	_, checks["WriteAt"] = h.WriteAt([]byte("x"), 0)
	_, checks["Seek"] = h.Seek(0, io.SeekStart)
	_, checks["Size"] = h.Size()
	checks["Truncate"] = h.Truncate(0)
	checks["Sync"] = h.Sync()
	checks["Lock"] = h.Lock(0, 1)
	checks["Unlock"] = h.Unlock(0, 1)
	_, checks["Control"] = h.Control(nil)
	for op, err := range checks {
		if !errors.Is(err, wire.ErrClosed) {
			t.Errorf("%s after close err = %v, want ErrClosed", op, err)
		}
	}
}

func TestSeekErrors(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Seek(0, 99); err == nil {
		t.Error("Seek with bogus whence succeeded")
	}
	if _, err := h.Seek(-10, io.SeekStart); err == nil {
		t.Error("Seek to negative position succeeded")
	}
	// The handle stays usable after rejected seeks.
	if _, err := h.Write([]byte("still fine")); err != nil {
		t.Errorf("Write after rejected seeks: %v", err)
	}
}

func TestThreadSentinelGoroutineExitsOnClose(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
	})
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Close joins the sentinel goroutine synchronously, so the count must
	// return to (about) the baseline immediately.
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Errorf("goroutines grew %d -> %d; sentinel goroutines leaked", before, after)
	}
}

func TestProcessStreamIntegrityProperty(t *testing.T) {
	// Whatever byte sequence an application writes through a plain-process
	// sentinel — in arbitrary chunk sizes — lands intact in the data part,
	// and streams back intact on a later open. Three seeds keep subprocess
	// cost bounded.
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			payload := make([]byte, 16*1024+rng.Intn(8192))
			rng.Read(payload)

			path := createAF(t, vfs.Manifest{
				Program: vfs.ProgramSpec{Name: "passthrough"},
				Cache:   "disk",
			})
			h, err := core.Open(path, core.Options{Strategy: core.StrategyProcess})
			if err != nil {
				t.Fatal(err)
			}
			rest := payload
			for len(rest) > 0 {
				n := rng.Intn(3000) + 1
				if n > len(rest) {
					n = len(rest)
				}
				if _, err := h.Write(rest[:n]); err != nil {
					t.Fatalf("Write: %v", err)
				}
				rest = rest[n:]
			}
			if err := h.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := readData(t, path); !bytes.Equal(got, payload) {
				t.Fatalf("data part: %d bytes, want %d; corrupted", len(got), len(payload))
			}

			// Stream it back through another subprocess sentinel.
			h2, err := core.Open(path, core.Options{Strategy: core.StrategyProcess})
			if err != nil {
				t.Fatal(err)
			}
			defer h2.Close()
			back, err := io.ReadAll(h2)
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			if !bytes.Equal(back, payload) {
				t.Fatal("stream-back corrupted")
			}
		})
	}
}

func TestMemoryCachePersistsToDataPart(t *testing.T) {
	// Memory cache mode with no remote source uses the data part as its
	// persistent home: contents written in one session survive to the next.
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	got, err := io.ReadAll(h2)
	if err != nil || string(got) != "persisted" {
		t.Errorf("second session = (%q, %v)", got, err)
	}
}
