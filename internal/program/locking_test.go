package program_test

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/activefile"
	"repro/internal/core"
	"repro/internal/vfs"
)

// holdLockingEnv names the active file a helper process locks and holds
// (see TestMain).
const holdLockingEnv = "LOCKING_TEST_HOLD"

// holdLockingRange is the helper process of TestKilledHolderReleasesLocking:
// it takes [0, 10) of the active file at path, says "held", and waits to be
// killed.
func holdLockingRange(path string) {
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err == nil {
		err = h.Lock(0, 10)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("held")
	time.Sleep(time.Hour)
	runtime.KeepAlive(h)
	os.Exit(0)
}

// lockingCells is every sentinel shape two sessions of one locking file
// can meet in: in process, a sentinel per session over pipes or a
// one-lane shm segment, and two sessions sharing a four-lane sentinel.
var lockingCells = []struct {
	name     string
	strategy core.Strategy
	params   map[string]string
}{
	{"thread", core.StrategyThread, nil},
	{"direct", core.StrategyDirect, nil},
	{"procctl-pipe", core.StrategyProcCtl, nil},
	{"procctl-shm", core.StrategyProcCtl, map[string]string{"transport": "shm"}},
	{"procctl-shm-lanes4", core.StrategyProcCtl, map[string]string{"transport": "shm", "shmlanes": "4"}},
}

// TestLockingMatrix checks that a lock excludes the file's other sessions
// whatever strategy, carrier, lane count or cache mode serves them: no
// tuning param may change what a lock means.
func TestLockingMatrix(t *testing.T) {
	for _, cell := range lockingCells {
		for _, cacheMode := range []string{"disk", "memory", "none"} {
			t.Run(cell.name+"/"+cacheMode, func(t *testing.T) {
				path := createAF(t, vfs.Manifest{
					Program: vfs.ProgramSpec{Name: "locking"},
					Cache:   cacheMode,
					Params:  cell.params,
				})
				h1 := open(t, path, cell.strategy)
				h2 := open(t, path, cell.strategy)

				if err := h1.Lock(0, 10); err != nil {
					t.Fatalf("h1.Lock(0,10): %v", err)
				}
				if err := h2.Lock(5, 10); !errors.Is(err, activefile.ErrBusy) {
					t.Fatalf("h2.Lock(5,10) overlapping h1 = %v, want ErrBusy", err)
				}
				if err := h2.Lock(10, 10); err != nil {
					t.Fatalf("h2.Lock(10,10) disjoint: %v", err)
				}
				if err := h2.Unlock(0, 10); err != nil {
					t.Fatalf("h2.Unlock(0,10) of a range it does not hold: %v", err)
				}
				if err := h2.Lock(0, 10); !errors.Is(err, activefile.ErrBusy) {
					t.Fatalf("h2.Lock(0,10) after its own Unlock = %v, want ErrBusy: h1's lock was dropped", err)
				}
				if err := h1.Unlock(0, 10); err != nil {
					t.Fatalf("h1.Unlock(0,10): %v", err)
				}
				if err := h2.Lock(0, 10); err != nil {
					t.Fatalf("h2.Lock(0,10) after h1's Unlock: %v", err)
				}
			})
		}
	}
}

// TestLockingNoDataFile locks through the manifest when there is no data
// part.
func TestLockingNoDataFile(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "locking"},
		NoData:  true,
		Params:  map[string]string{vfs.ParamBackend: "mem", vfs.ParamObject: "obj"},
	})
	h1 := open(t, path, core.StrategyDirect)
	h2 := open(t, path, core.StrategyProcCtl)
	if err := h1.Lock(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := h2.Lock(0, 10); !errors.Is(err, activefile.ErrBusy) {
		t.Fatalf("h2.Lock = %v, want ErrBusy", err)
	}
}

func TestLockConflictBetweenSessions(t *testing.T) {
	path := createAF(t, vfs.Manifest{Program: vfs.ProgramSpec{Name: "locking"}})
	a := open(t, path, core.StrategyDirect)
	b := open(t, path, core.StrategyDirect)
	if err := a.Lock(10, 10); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name   string
		off, n int64
		busy   bool
	}{
		{name: "exact overlap", off: 10, n: 10, busy: true},
		{name: "left overlap", off: 5, n: 6, busy: true},
		{name: "right overlap", off: 19, n: 5, busy: true},
		{name: "containing", off: 0, n: 40, busy: true},
		{name: "inside", off: 12, n: 2, busy: true},
		{name: "adjacent left ok", off: 0, n: 10},
		{name: "adjacent right ok", off: 20, n: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := b.Lock(tt.off, tt.n)
			if !tt.busy {
				if err != nil {
					t.Errorf("Lock = %v, want nil", err)
				}
				b.Unlock(tt.off, tt.n)
				return
			}
			if !errors.Is(err, activefile.ErrBusy) {
				t.Errorf("Lock err = %v, want ErrBusy", err)
			}
		})
	}
}

func TestLockConflictErrorNamesRange(t *testing.T) {
	path := createAF(t, vfs.Manifest{Program: vfs.ProgramSpec{Name: "locking"}})
	a := open(t, path, core.StrategyDirect)
	b := open(t, path, core.StrategyDirect)
	if err := a.Lock(0, 10); err != nil {
		t.Fatal(err)
	}
	err := b.Lock(5, 10)
	if err == nil || !strings.Contains(err.Error(), "[5,15)") {
		t.Errorf("conflict error = %v, want one naming [5,15)", err)
	}
}

func TestLockBadRanges(t *testing.T) {
	path := createAF(t, vfs.Manifest{Program: vfs.ProgramSpec{Name: "locking"}})
	h := open(t, path, core.StrategyDirect)
	for _, give := range [][2]int64{{-1, 4}, {0, 0}, {0, -2}} {
		if err := h.Lock(give[0], give[1]); err == nil || errors.Is(err, activefile.ErrBusy) {
			t.Errorf("Lock(%d,%d) err = %v, want an invalid-range error", give[0], give[1], err)
		}
		if err := h.Unlock(give[0], give[1]); err == nil {
			t.Errorf("Unlock(%d,%d) succeeded", give[0], give[1])
		}
	}
}

// TestLockCloseDropsOnlyOwnLocks closes one of two lock holders sharing a
// sentinel: process-owned locks would drop both sessions' ranges.
func TestLockCloseDropsOnlyOwnLocks(t *testing.T) {
	path := createAF(t, vfs.Manifest{Program: vfs.ProgramSpec{Name: "locking"}})
	a, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	b := open(t, path, core.StrategyDirect)
	c := open(t, path, core.StrategyDirect)
	for _, r := range [][2]int64{{0, 4}, {8, 4}} {
		if err := a.Lock(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Lock(20, 4); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(0, 4); err != nil {
		t.Errorf("range not freed by Close: %v", err)
	}
	if err := c.Lock(20, 4); !errors.Is(err, activefile.ErrBusy) {
		t.Errorf("Lock of b's range after a's Close = %v, want ErrBusy", err)
	}
}

func TestLockMutualExclusionUnderConcurrency(t *testing.T) {
	// Sessions contend for the same range; at most one may hold it at a
	// time, verified with a counter only mutated inside the lock.
	path := createAF(t, vfs.Manifest{Program: vfs.ProgramSpec{Name: "locking"}})
	var (
		inside  int
		maxSeen int
		mu      sync.Mutex
		wg      sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		h := open(t, path, core.StrategyDirect)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := h.Lock(100, 50); err != nil {
					continue // contended; try again
				}
				mu.Lock()
				inside++
				maxSeen = max(maxSeen, inside)
				mu.Unlock()

				mu.Lock()
				inside--
				mu.Unlock()
				if err := h.Unlock(100, 50); err != nil {
					t.Errorf("Unlock: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if maxSeen > 1 {
		t.Errorf("max simultaneous holders = %d, want 1", maxSeen)
	}
}

// TestKilledHolderReleasesLocking kills a process holding a lock and times
// how long the range stays locked after it.
func TestKilledHolderReleasesLocking(t *testing.T) {
	path := createAF(t, vfs.Manifest{Program: vfs.ProgramSpec{Name: "locking"}})
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), holdLockingEnv+"="+path)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	if line, err := bufio.NewReader(out).ReadString('\n'); line != "held\n" {
		t.Fatalf("helper said %q, %v; want \"held\"", line, err)
	}

	h := open(t, path, core.StrategyDirect)
	if err := h.Lock(0, 10); !errors.Is(err, activefile.ErrBusy) {
		t.Fatalf("Lock while another process holds the range = %v, want ErrBusy", err)
	}
	killed := time.Now()
	cmd.Process.Kill()
	cmd.Wait()
	for {
		err := h.Lock(0, 10)
		if err == nil {
			break
		}
		if !errors.Is(err, activefile.ErrBusy) {
			t.Fatalf("Lock after the kill: %v", err)
		}
		if time.Since(killed) > 2*time.Second {
			t.Fatal("range still locked 2 s after its holder was killed")
		}
		time.Sleep(time.Millisecond)
	}
	if d := time.Since(killed); d > 100*time.Millisecond {
		t.Errorf("range freed %v after its holder was killed, want within 100ms", d)
	}
}
