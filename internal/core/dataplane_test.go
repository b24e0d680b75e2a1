package core

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/shm"
	"repro/internal/vfs"
)

// Tests for the syscall-economy observability surface: carrier and fallback
// reporting through Handle.Stats, and the data-plane wakeup counters.

func openTestHandle(t *testing.T, params map[string]string) *Handle {
	t.Helper()
	return openTestHandleAs(t, StrategyProcCtl, params)
}

func openTestHandleAs(t *testing.T, strategy Strategy, params map[string]string) *Handle {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file.af")
	if err := vfs.Create(path, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
		Params:  params,
	}); err != nil {
		t.Fatalf("vfs.Create: %v", err)
	}
	h, err := Open(path, Options{Strategy: strategy})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// TestCarrierReportedInStats: Handle.Stats names the conduit the session
// actually got, with no fallback reason when the request was honored.
func TestCarrierReportedInStats(t *testing.T) {
	h := openTestHandle(t, nil)
	if s := h.Stats(); s.Carrier != "pipe" || s.CarrierFallback != "" {
		t.Fatalf("default carrier stats = %q/%q, want pipe with no fallback", s.Carrier, s.CarrierFallback)
	}

	if shm.Supported() {
		hs := openTestHandle(t, map[string]string{"transport": "shm"})
		if s := hs.Stats(); s.Carrier != "shm" || s.CarrierFallback != "" {
			t.Fatalf("shm carrier stats = %q/%q, want shm with no fallback", s.Carrier, s.CarrierFallback)
		}
	}
}

// TestCarrierFallbackReasonPlumbed: the demotion reason recorded at open
// must surface verbatim through carrierInfo — the seam Handle.Stats reads.
// (Provoking a real lane failure is not portable, so the plumbing is pinned
// directly; a real handshake failure is TestLaneBootOutsideHubLock's.)
func TestCarrierFallbackReasonPlumbed(t *testing.T) {
	tr := &procCtlTransport{conn: &pipeConn{}, fallback: "lane segment spawn failed: injected"}
	carrier, reason := tr.carrierInfo()
	if carrier != "pipe" || reason != "lane segment spawn failed: injected" {
		t.Fatalf("carrierInfo = %q/%q", carrier, reason)
	}

	// A session that got its lane reports shm with no reason.
	trShm := &procCtlTransport{conn: &laneConn{}}
	if carrier, reason := trShm.carrierInfo(); carrier != "shm" || reason != "" {
		t.Fatalf("shm carrierInfo = %q/%q, want shm with no fallback", carrier, reason)
	}
}

// TestNoFallbackReasonForHonoredRequests: the reason stays empty when pipes
// were chosen, not imposed, and on strategies that have no control channel
// to demote.
func TestNoFallbackReasonForHonoredRequests(t *testing.T) {
	for _, params := range []map[string]string{nil, {"transport": "pipe"}} {
		if s := openTestHandle(t, params).Stats(); s.Carrier != "pipe" || s.CarrierFallback != "" {
			t.Fatalf("pipe-by-choice %v: carrier %q, fallback %q", params, s.Carrier, s.CarrierFallback)
		}
	}
	for _, strategy := range []Strategy{StrategyProcess, StrategyThread} {
		h := openTestHandleAs(t, strategy, map[string]string{"transport": "shm"})
		if s := h.Stats(); s.Carrier != "" || s.CarrierFallback != "" {
			t.Fatalf("%v strategy: carrier %q, fallback %q", strategy, s.Carrier, s.CarrierFallback)
		}
	}
}

// TestDataPlaneStatsPipe: over pipes, pipelined reads must show the drain
// discipline — frames decoded, wakeups counted, and no ring doorbells.
func TestDataPlaneStatsPipe(t *testing.T) {
	h := openTestHandle(t, map[string]string{"readahead": "false"})
	if _, err := h.WriteAt(make([]byte, 8192), 0); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 50; i++ {
				if _, err := h.ReadAt(buf, int64((w*50+i)*64)%8192); err != nil {
					t.Errorf("ReadAt: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	ds, ok := h.DataPlaneStats()
	if !ok {
		t.Fatal("procctl handle has no data-plane stats")
	}
	if ds.Carrier != "pipe" || ds.Doorbells != 0 || ds.Suppressed != 0 {
		t.Fatalf("pipe session rang ring doorbells: %+v", ds)
	}
	if ds.RecvFrames == 0 || ds.RecvWakeups == 0 {
		t.Fatalf("pipe receive path counted nothing: %+v", ds)
	}
	if ds.RecvFrames < ds.RecvWakeups {
		t.Fatalf("more wakeups than frames (%d > %d) — drain buffer not draining", ds.RecvWakeups, ds.RecvFrames)
	}
}

// TestDataPlaneStatsShm: over rings, the receive path is syscall-free
// (RecvWakeups stays zero) and the doorbell ledger moves.
func TestDataPlaneStatsShm(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport unsupported on this platform")
	}
	h := openTestHandle(t, map[string]string{"transport": "shm", "readahead": "false"})
	if _, err := h.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 100; i++ {
		if _, err := h.ReadAt(buf, int64(i*37)%4000); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
	}

	ds, ok := h.DataPlaneStats()
	if !ok {
		t.Fatal("procctl handle has no data-plane stats")
	}
	if ds.Carrier != "shm" {
		t.Fatalf("carrier = %q, want shm", ds.Carrier)
	}
	if ds.RecvWakeups != 0 {
		t.Fatalf("shm receive path issued %d read syscalls, want 0", ds.RecvWakeups)
	}
	if ds.RecvFrames == 0 {
		t.Fatal("no response frames counted")
	}
	if ds.Doorbells+ds.Suppressed == 0 {
		t.Fatal("ring wakeup ledger never moved")
	}
}
