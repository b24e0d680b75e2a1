package core

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/vfs"
)

// Warm sentinel pool tests live in the core package so they can observe pool
// internals (idle identity, monitors) that the public API deliberately hides.
// The shared TestMain in core_test registers programs and handles child
// re-exec for the whole test binary.

func createPooledAF(t *testing.T, pool string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file.af")
	m := vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "disk",
		Params:  map[string]string{"pool": pool},
	}
	if err := vfs.Create(path, m); err != nil {
		t.Fatalf("vfs.Create: %v", err)
	}
	return path
}

func TestPrewarmFillsAndDrainEmptiesPool(t *testing.T) {
	path := createPooledAF(t, "2")
	defer DrainSentinelPool()

	n, err := PrewarmSentinels(path)
	if err != nil {
		t.Fatalf("PrewarmSentinels: %v", err)
	}
	if n != 2 || IdleSentinels(path) != 2 {
		t.Fatalf("prewarmed %d idle %d, want 2/2", n, IdleSentinels(path))
	}

	DrainSentinelPool()
	if got := IdleSentinels(path); got != 0 {
		t.Fatalf("idle after drain = %d, want 0", got)
	}

	// The pool is reusable after a drain.
	if n, err = PrewarmSentinels(path); err != nil || n != 2 {
		t.Fatalf("re-prewarm = (%d, %v), want (2, nil)", n, err)
	}
}

func TestWarmOpenAdoptsPooledSentinel(t *testing.T) {
	path := createPooledAF(t, "1")
	defer DrainSentinelPool()

	if _, err := PrewarmSentinels(path); err != nil {
		t.Fatalf("PrewarmSentinels: %v", err)
	}
	procPool.mu.Lock()
	if len(procPool.idle[path]) != 1 {
		procPool.mu.Unlock()
		t.Fatal("expected exactly one parked sentinel")
	}
	warm := procPool.idle[path][0]
	procPool.mu.Unlock()

	h, err := Open(path, Options{Strategy: StrategyProcCtl})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer h.Close()

	// Adoption happens synchronously inside Open: the parked entry must be
	// gone from the idle list (replenishment adds a NEW sentinel, never the
	// adopted one back).
	procPool.mu.Lock()
	for _, ps := range procPool.idle[path] {
		if ps == warm {
			procPool.mu.Unlock()
			t.Fatal("adopted sentinel still parked in the pool")
		}
	}
	procPool.mu.Unlock()

	// And the adopted sentinel serves real traffic end to end.
	if _, err := h.WriteAt([]byte("warm start"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, 10)
	if _, err := h.ReadAt(got, 0); err != nil || string(got) != "warm start" {
		t.Fatalf("ReadAt = (%q, %v)", got, err)
	}
}

func TestWarmPoolReplenishesAfterClose(t *testing.T) {
	path := createPooledAF(t, "2")
	defer DrainSentinelPool()

	if _, err := PrewarmSentinels(path); err != nil {
		t.Fatalf("PrewarmSentinels: %v", err)
	}
	h, err := Open(path, Options{Strategy: StrategyProcCtl})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := IdleSentinels(path); got != 1 {
		t.Fatalf("idle after adoption = %d, want 1 (replenish is deferred to close)", got)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// close() tops the pool back up in the background; wait for it to reach
	// the configured size.
	deadline := time.Now().Add(5 * time.Second)
	for IdleSentinels(path) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never replenished: idle = %d, want 2", IdleSentinels(path))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDeadIdleSentinelIsDiscarded(t *testing.T) {
	path := createPooledAF(t, "1")
	defer DrainSentinelPool()

	if _, err := PrewarmSentinels(path); err != nil {
		t.Fatalf("PrewarmSentinels: %v", err)
	}
	procPool.mu.Lock()
	warm := procPool.idle[path][0]
	procPool.mu.Unlock()

	// Kill the parked child and wait for its monitor to notice; the death
	// hook self-evicts the entry from the idle list.
	if err := warm.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill parked sentinel: %v", err)
	}
	select {
	case <-warm.mon.done:
	case <-time.After(5 * time.Second):
		t.Fatal("monitor never observed sentinel death")
	}
	deadline := time.Now().Add(5 * time.Second)
	for IdleSentinels(path) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead sentinel never evicted from idle list")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The pool is empty, so Open cold-spawns — and must still work.
	h, err := Open(path, Options{Strategy: StrategyProcCtl})
	if err != nil {
		t.Fatalf("Open after pool death: %v", err)
	}
	defer h.Close()
	if _, err := h.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
}

func TestUnpooledManifestBypassesPool(t *testing.T) {
	path := filepath.Join(t.TempDir(), "file.af")
	if err := vfs.Create(path, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "disk",
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := PrewarmSentinels(path); err != nil || n != 0 {
		t.Fatalf("PrewarmSentinels on unpooled manifest = (%d, %v), want (0, nil)", n, err)
	}
	h, err := Open(path, Options{Strategy: StrategyProcCtl})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer h.Close()
	if got := IdleSentinels(path); got != 0 {
		t.Fatalf("unpooled open parked %d sentinels", got)
	}
}
